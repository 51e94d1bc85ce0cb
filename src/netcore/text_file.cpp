#include "netcore/text_file.hpp"

#include <fstream>

namespace roomnet {

bool write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  return !out.fail();
}

}  // namespace roomnet
