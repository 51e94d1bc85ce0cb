#include "proto/http.hpp"

#include <algorithm>
#include <charconv>

namespace roomnet {

namespace {
/// Scans the head of `raw`, copying every header into `headers`.
std::optional<HttpHead> scan_all_headers(BytesView raw, HttpHeaders& headers) {
  return scan_http_head(
      std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()),
      [&](std::string_view name, std::string_view value) {
        headers.add(std::string(name), std::string(value));
      });
}

void write_head(ByteWriter& w, std::string_view start_line,
                const HttpHeaders& headers, std::size_t body_size) {
  w.str(start_line);
  w.str("\r\n");
  bool has_length = headers.has("Content-Length");
  for (const auto& [name, value] : headers.entries()) {
    w.str(name);
    w.str(": ");
    w.str(value);
    w.str("\r\n");
  }
  if (!has_length && body_size > 0) {
    w.str("Content-Length: ");
    w.str(std::to_string(body_size));
    w.str("\r\n");
  }
  w.str("\r\n");
}
}  // namespace

std::size_t split_start_line(std::string_view line,
                             std::array<std::string_view, 3>& out) {
  std::size_t parts = 0;
  std::size_t i = 0;
  while (i < line.size() && parts < out.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    const auto sp = line.find(' ', i);
    if (parts == out.size() - 1 || sp == std::string_view::npos) {
      out[parts++] = line.substr(i);
      break;
    }
    out[parts++] = line.substr(i, sp - i);
    i = sp + 1;
  }
  return parts;
}

std::optional<std::string> HttpHeaders::get(std::string_view name) const {
  for (const auto& [n, v] : entries_)
    if (iequals(n, name)) return v;
  return std::nullopt;
}

Bytes encode_http_request(const HttpRequest& req) {
  ByteWriter w;
  write_head(w, req.method + " " + req.target + " " + req.version, req.headers,
             req.body.size());
  w.raw(req.body);
  return w.take();
}

Bytes encode_http_response(const HttpResponse& res) {
  ByteWriter w;
  write_head(w,
             res.version + " " + std::to_string(res.status) + " " + res.reason,
             res.headers, res.body.size());
  w.raw(res.body);
  return w.take();
}

std::optional<HttpRequest> decode_http_request(BytesView raw) {
  HttpHeaders headers;
  const auto head = scan_all_headers(raw, headers);
  if (!head || head->start_parts != 3 || !head->start[2].starts_with("HTTP/"))
    return std::nullopt;
  HttpRequest req;
  req.method = head->start[0];
  req.target = head->start[1];
  req.version = head->start[2];
  req.headers = std::move(headers);
  req.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return req;
}

std::optional<int> parse_http_status(std::string_view s) {
  int status = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), status);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return status;
}

std::optional<HttpResponse> decode_http_response(BytesView raw) {
  HttpHeaders headers;
  const auto head = scan_all_headers(raw, headers);
  if (!head || head->start_parts < 2 || !head->start[0].starts_with("HTTP/"))
    return std::nullopt;
  const auto status = parse_http_status(head->start[1]);
  if (!status) return std::nullopt;
  HttpResponse res;
  res.version = head->start[0];
  res.status = *status;
  res.reason = head->start_parts > 2 ? head->start[2] : "";
  res.headers = std::move(headers);
  res.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return res;
}

bool looks_like_http(BytesView payload) {
  const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                              std::min<std::size_t>(payload.size(), 16));
  static constexpr std::string_view kMethods[] = {
      "GET ",    "POST ",   "PUT ",     "DELETE ", "HEAD ",
      "OPTIONS ", "HTTP/1.", "NOTIFY ", "M-SEARCH ", "SUBSCRIBE "};
  for (const auto m : kMethods)
    if (text.starts_with(m)) return true;
  return false;
}

}  // namespace roomnet
