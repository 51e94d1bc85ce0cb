#include "cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace roomnet::cli {

bool Flags::is(const char* name) const {
  return std::strcmp(argv_[at_], name) == 0;
}

void Flags::unknown() const {
  throw UsageError(std::string("unknown option: ") + argv_[at_]);
}

const char* Flags::value() {
  if (at_ + 1 >= argc_)
    throw UsageError(std::string(argv_[at_]) + " needs a value");
  return argv_[++at_];
}

std::int64_t Flags::integer() {
  const char* text = value();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE) bad("bad value");
  return v;
}

std::uint64_t Flags::count(std::uint64_t max) {
  const std::int64_t v = integer();
  if (v < 0) bad("negative count");
  if (static_cast<std::uint64_t>(v) > max) bad("out-of-range count");
  return static_cast<std::uint64_t>(v);
}

SimTime Flags::seconds(std::uint64_t unit_s) {
  // SimTime counts int64 microseconds.
  constexpr std::uint64_t kMaxSeconds =
      std::numeric_limits<std::int64_t>::max() / 1'000'000;
  return SimTime::from_seconds(
      static_cast<double>(count(kMaxSeconds / unit_s) * unit_s));
}

double Flags::probability() {
  const double v = real();
  if (!(v >= 0.0 && v <= 1.0)) bad("bad probability");
  return v;
}

double Flags::fraction() {
  const double v = real();
  if (!(v >= 0.0)) bad("bad fraction");
  return v;
}

double Flags::real() {
  const char* text = value();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') bad("bad value");
  return v;
}

void Flags::bad(const char* problem) const {
  throw UsageError(std::string(problem) + " for " + argv_[at_ - 1] + ": " +
                   argv_[at_]);
}

}  // namespace roomnet::cli
