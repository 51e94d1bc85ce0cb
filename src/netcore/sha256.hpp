// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), implemented from
// scratch. Two consumers: IoT Inspector pseudonymizes device MACs as
// HMAC-SHA256(per-user salt, MAC) (§3.3 footnote), which the crowd dataset
// generator reproduces, and the provenance layer (src/obs) content-hashes
// every pipeline stage's canonically-serialized outputs into the run
// manifest. The streaming `Sha256` class exists for the latter: stage
// hashes fold in data incrementally (e.g. every captured frame as it
// arrives) and `digest()` finalizes a copy, so a running hash can be
// snapshotted at each stage boundary without rehashing the prefix. Blocks
// are compressed by the kernel sha256_kernels.hpp picks for this CPU.
#pragma once

#include <array>
#include <cstdint>

#include "netcore/bytes.hpp"

namespace roomnet {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256. update() consumes any number of byte spans;
/// digest()/hex() finalize a *copy* of the state, so both can be called
/// mid-stream (and repeatedly) while updates continue.
class Sha256 {
 public:
  Sha256() = default;

  void update(BytesView data);

  [[nodiscard]] Sha256Digest digest() const;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint8_t buffer_[64] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

Sha256Digest sha256(BytesView data);
Sha256Digest hmac_sha256(BytesView key, BytesView message);

/// Hex form of the digest.
std::string sha256_hex(BytesView data);
std::string hmac_sha256_hex(BytesView key, BytesView message);

}  // namespace roomnet
