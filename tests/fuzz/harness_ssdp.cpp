// Structure-aware SSDP/UPnP fuzz. Phase A: the raw input through
// decode_ssdp and the UPnP XML description parser. Phase B: build a
// well-formed M-SEARCH/NOTIFY/response and mutate at header granularity —
// duplicate/drop/splice header lines, break the colon separator, blow up
// MX, damage the start line, truncate mid-CRLF — then require total
// decodes. Both phases also decode with the reference copy of the old
// decoder (reference_decoders.hpp) and require the same fields, from
// view_ssdp as from decode_ssdp, and re-encode with the reference copy of
// the old encoder (reference_encoders.hpp), requiring the same bytes.
#include <string>
#include <vector>

#include "fuzz_input.hpp"
#include "fuzz_mutate.hpp"
#include "harness.hpp"
#include "proto/ssdp.hpp"
#include "reference_decoders.hpp"
#include "reference_encoders.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "ssdp";
constexpr std::string_view kTokenChars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:-._/";

void check_reference(BytesView data) {
  ROOMNET_FUZZ_CHECK(reference::ssdp_differs(data) == nullptr, kName,
                     "decode_ssdp differs from the reference decoder");
  ROOMNET_FUZZ_CHECK(reference::http_request_differs(data) == nullptr, kName,
                     "decode_http_request differs from the reference decoder");
  ROOMNET_FUZZ_CHECK(reference::http_response_differs(data) == nullptr, kName,
                     "decode_http_response differs from the reference decoder");
}

void check_idempotent(const SsdpMessage& decoded) {
  const Bytes e2 = encode_ssdp(decoded);
  ROOMNET_FUZZ_CHECK(e2 == reference::encode_ssdp(decoded), kName,
                     "encode_ssdp differs from the reference encoder");
  const auto d2 = decode_ssdp(BytesView(e2));
  ROOMNET_FUZZ_CHECK(d2.has_value(), kName,
                     "re-encoded message no longer decodes");
  const Bytes e3 = encode_ssdp(*d2);
  ROOMNET_FUZZ_CHECK(e2 == e3, kName, "decode-encode cycle is not a fixpoint");
}

Bytes template_message(FuzzInput& in) {
  SsdpMessage msg;
  static constexpr SsdpKind kKinds[] = {SsdpKind::kMSearch, SsdpKind::kNotify,
                                        SsdpKind::kResponse};
  msg.kind = kKinds[in.u8() % 3];
  msg.search_target = in.boolean() ? "ssdp:all"
                                   : "urn:schemas-upnp-org:device:" +
                                         in.str(in.range(1, 12), kTokenChars);
  msg.usn = "uuid:" + in.str(in.range(1, 16), kTokenChars);
  msg.server = "Linux/" + in.str(in.range(1, 8), kTokenChars) + " UPnP/1.0";
  msg.location = "http://192.168.10." + std::to_string(in.u8()) + ":" +
                 std::to_string(in.u16()) + "/desc.xml";
  msg.nts = in.boolean() ? "ssdp:alive" : "ssdp:byebye";
  msg.mx = static_cast<int>(in.range(1, 5));
  return encode_ssdp(msg);
}

std::vector<std::string> split_lines(const Bytes& wire) {
  std::vector<std::string> lines;
  std::string cur;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i + 1 < wire.size() && wire[i] == '\r' && wire[i + 1] == '\n') {
      lines.push_back(cur);
      cur.clear();
      ++i;
    } else {
      cur += static_cast<char>(wire[i]);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

Bytes join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += "\r\n";
  }
  return Bytes(out.begin(), out.end());
}

}  // namespace

int fuzz_ssdp(BytesView data) {
  if (data.size() > 65536) return 0;

  // Phase A: raw input through both parsers.
  check_reference(data);
  if (const auto decoded = decode_ssdp(data)) check_idempotent(*decoded);
  const std::string_view as_text(reinterpret_cast<const char*>(data.data()),
                                 data.size());
  if (const auto desc = UpnpDeviceDescription::from_xml(as_text)) {
    // Fields scraped from hostile XML may themselves contain markup, which
    // legitimately shifts tag boundaries on a re-parse — so only require
    // that re-serialization parses at all, not a byte fixpoint.
    const auto again = UpnpDeviceDescription::from_xml(desc->to_xml());
    ROOMNET_FUZZ_CHECK(again.has_value(), kName,
                       "re-serialized UPnP description no longer parses");
  }

  // Phase B: header-granularity mutations of a well-formed message.
  FuzzInput in(data);
  Bytes wire = template_message(in);
  const std::size_t mutations = in.range(1, 6);
  for (std::size_t i = 0; i < mutations; ++i) {
    auto lines = split_lines(wire);
    if (lines.empty()) break;
    switch (in.u8() % 7) {
      case 0:  // duplicate a header line
        lines.insert(lines.begin() +
                         static_cast<std::ptrdiff_t>(in.below(lines.size())),
                     lines[in.below(lines.size())]);
        break;
      case 1:  // drop a line (possibly the blank terminator)
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(in.below(lines.size())));
        break;
      case 2: {  // break the colon separator on a header line
        auto& line = lines[in.below(lines.size())];
        const auto colon = line.find(':');
        if (colon != std::string::npos) line[colon] = ' ';
        break;
      }
      case 3: {  // giant / negative-looking MX
        for (auto& line : lines)
          if (line.rfind("MX:", 0) == 0)
            line = "MX: " + (in.boolean() ? std::string(64, '9')
                                          : "-" + std::to_string(in.u16()));
        break;
      }
      case 4:  // damage the start line
        lines[0] = in.str(in.range(0, 24), kTokenChars);
        break;
      case 5: {  // inject an arbitrary header
        lines.insert(
            lines.begin() + 1,
            in.str(in.range(1, 10), kTokenChars) + ": " +
                in.str(in.range(0, 24), kTokenChars));
        break;
      }
      default:
        break;
    }
    wire = join_lines(lines);
    if (in.boolean()) truncate(wire, in);
  }
  check_reference(BytesView(wire));
  if (const auto decoded = decode_ssdp(wire)) check_idempotent(*decoded);
  return 0;
}

}  // namespace roomnet::fuzz
