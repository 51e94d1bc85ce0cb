// Shared plumbing of the `roomnet` command: the flag cursor every verb
// parses its options with, and the verb entry points main() dispatches to.
//
// Bad command-line input is a usage error (exit 2), never a silently
// different run: a flag missing its value, a value that does not parse, a
// negative count, or a probability outside [0, 1] throws UsageError before
// any simulation starts.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "netcore/time.hpp"

namespace roomnet::cli {

/// Bad command-line input. main() prints it with the usage text; exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An input file that cannot be read or parsed. main() prints it; exit 2.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value a file loader returned, or InputError naming `path`.
template <typename T>
T loaded(std::optional<T> value, const char* path) {
  if (!value) throw InputError(std::string("cannot load ") + path);
  return std::move(*value);
}

/// The `max` for counts stored in an `int`.
inline constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

/// Walks `--flag [value]` arguments. `next()` steps to the next flag; the
/// typed readers consume that flag's value.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Steps to the next flag; false past the last argument.
  bool next() { return ++at_ < argc_; }
  /// True when the current flag is `name`.
  [[nodiscard]] bool is(const char* name) const;
  /// Throws UsageError naming the current flag as unknown.
  [[noreturn]] void unknown() const;

  /// The current flag's value (throws when it is missing).
  const char* value();
  /// Any integer, decimal or 0x-prefixed.
  std::int64_t integer();
  /// A non-negative integer no larger than `max`.
  std::uint64_t count(
      std::uint64_t max = std::numeric_limits<std::int64_t>::max());
  /// A non-negative whole number of sim seconds that SimTime can hold.
  SimTime seconds(std::uint64_t unit_s = 1);
  /// A real number in [0, 1].
  double probability();
  /// A non-negative real number (a regression limit: 0.25 = +25%).
  double fraction();

 private:
  double real();
  /// Throws UsageError naming `problem`, the flag, and its value.
  [[noreturn]] void bad(const char* problem) const;

  int argc_;
  char** argv_;
  int at_ = -1;
};

// Verbs. Each receives the arguments after its name ("roomnet run" gets
// `<dir> [flags]`) and returns the process exit code.
int run_main(int argc, char** argv);
int audit_diff_main(int argc, char** argv);
int prof_show_main(int argc, char** argv);
int prof_diff_main(int argc, char** argv);
int events_query_main(int argc, char** argv);
int events_timeline_main(int argc, char** argv);
int events_summary_main(int argc, char** argv);
int events_diff_main(int argc, char** argv);
int fleet_run_main(int argc, char** argv);
int fleet_summary_main(int argc, char** argv);
int corpus_gen_main(int argc, char** argv);

}  // namespace roomnet::cli
