// HTTP/1.1 message codec (requests and responses, header multimap,
// Content-Length bodies). Plaintext HTTP is a §5.2 threat surface: 33 lab
// devices speak it, some exposing User-Agent strings with OS/firmware
// versions, backup files, and unauthenticated camera snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netcore/bytes.hpp"

namespace roomnet {

/// Ordered case-insensitive header list (order matters for fingerprinting).
class HttpHeaders {
 public:
  void add(std::string name, std::string value) {
    entries_.emplace_back(std::move(name), std::move(value));
  }
  /// First matching header value (case-insensitive name match).
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const { return get(name).has_value(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries()
      const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  Bytes body;
};

struct HttpResponse {
  std::string version = "HTTP/1.1";
  int status = 200;
  std::string reason = "OK";
  HttpHeaders headers;
  Bytes body;
};

/// Serializers add Content-Length automatically when a body is present and
/// the header is absent.
Bytes encode_http_request(const HttpRequest& req);
Bytes encode_http_response(const HttpResponse& res);

/// An HTTP/1.x head read in one pass: slices into the text it was scanned
/// from, valid while that text is.
struct HttpHead {
  /// The start line split on spaces into at most three parts; the third
  /// keeps the spaces inside it.
  std::array<std::string_view, 3> start{};
  std::size_t start_parts = 0;
  /// Just past the blank line that ends the head.
  std::size_t body_offset = 0;
};

/// Splits `line` on spaces into at most three parts of `out`; returns how
/// many it found.
std::size_t split_start_line(std::string_view line,
                             std::array<std::string_view, 3>& out);

/// Walks an HTTP head once. Calls `on_header(name, value)` for each header
/// line in order, with leading spaces stripped from the value, and returns
/// the head; nullopt when the head does not end in a blank line or a header
/// line has no ':' (`on_header` may already have seen earlier lines).
template <class OnHeader>
std::optional<HttpHead> scan_http_head(std::string_view text,
                                       OnHeader&& on_header) {
  std::size_t eol = text.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  HttpHead head;
  head.start_parts = split_start_line(text.substr(0, eol), head.start);
  for (std::size_t pos = eol + 2;; pos = eol + 2) {
    eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) return std::nullopt;
    if (eol == pos) {
      head.body_offset = pos + 2;
      return head;
    }
    const std::string_view line = text.substr(pos, eol - pos);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    on_header(line.substr(0, colon), value);
  }
}

/// ASCII case-insensitive equality (header names).
inline bool iequals(std::string_view a, std::string_view b) {
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (lower(a[i]) != lower(b[i])) return false;
  return true;
}

/// A response status code: the whole slice must be a number.
std::optional<int> parse_http_status(std::string_view s);

/// Parsers accept a complete message (the simulator delivers whole payloads).
std::optional<HttpRequest> decode_http_request(BytesView raw);
std::optional<HttpResponse> decode_http_response(BytesView raw);

/// True if the payload plausibly starts an HTTP/1.x message (used by the
/// classifiers).
bool looks_like_http(BytesView payload);

}  // namespace roomnet
