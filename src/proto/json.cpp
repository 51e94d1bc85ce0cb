#include "proto/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "netcore/text_file.hpp"

namespace roomnet::json {

bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

const Value* Value::find_path(std::string_view dotted) const {
  const Value* cur = this;
  while (!dotted.empty()) {
    const auto dot = dotted.find('.');
    const std::string_view key =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    cur = cur->find(key);
    if (cur == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return cur;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  out += escape_json(s);
  out += '"';
}

void dump_value(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    const double d = v.as_number();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
      out += buf;
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6f", d);
      out += buf;
    }
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      dump_value(e, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      dump_string(k, out);
      out += ':';
      dump_value(e, out);
    }
    out += '}';
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    auto v = value();
    skip_ws();
    if (!v || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n': return literal("null") ? std::optional<Value>(Value(nullptr)) : std::nullopt;
      case 't': return literal("true") ? std::optional<Value>(Value(true)) : std::nullopt;
      case 'f': return literal("false") ? std::optional<Value>(Value(false)) : std::nullopt;
      case '"': return string_value();
      case '[': return nested([this] { return array_value(); });
      case '{': return nested([this] { return object_value(); });
      default: return number_value();
    }
  }

  // Containers recurse through value(); without a depth cap a hostile
  // payload of a few thousand '[' bytes overflows the stack (the TuyaLP and
  // TPLINK-SHP decoders hand attacker-controlled UDP payloads straight to
  // this parser). No legitimate device payload nests anywhere near 64 deep.
  template <typename F>
  std::optional<Value> nested(F&& parse) {
    if (depth_ >= kMaxDepth) return std::nullopt;
    ++depth_;
    auto out = parse();
    --depth_;
    return out;
  }

  std::optional<Value> string_value() {
    auto s = raw_string();
    if (!s) return std::nullopt;
    return Value(std::move(*s));
  }

  std::optional<std::string> raw_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            const auto begin = text_.data() + pos_;
            const auto [p, ec] = std::from_chars(begin, begin + 4, code, 16);
            if (ec != std::errc{} || p != begin + 4) return std::nullopt;
            pos_ += 4;
            // latin-1 subset only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> number_value() {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double d = 0;
    const auto [p, ec] = std::from_chars(begin, end, d);
    if (ec != std::errc{} || p == begin) return std::nullopt;
    pos_ = static_cast<std::size_t>(p - text_.data());
    return Value(d);
  }

  std::optional<Value> array_value() {
    if (!consume('[')) return std::nullopt;
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    for (;;) {
      auto v = value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (consume(']')) return Value(std::move(arr));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> object_value() {
    if (!consume('{')) return std::nullopt;
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    for (;;) {
      skip_ws();
      auto key = raw_string();
      if (!key || !consume(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      obj.emplace(std::move(*key), std::move(*v));
      if (consume('}')) return Value(std::move(obj));
      if (!consume(',')) return std::nullopt;
    }
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace roomnet::json
