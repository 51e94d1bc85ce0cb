// SHA-256 block kernels, internal to netcore: `Sha256` compresses through
// whichever one the CPU supports, and the tests check both against each
// other. Nothing outside sha256.cpp and the tests includes this header.
//
// A kernel compresses `blocks` consecutive 64-byte blocks at `data` into the
// eight-word state `h`. The scalar kernel is the reference and the only one
// on CPUs without the SHA extensions and on non-x86 builds; the SHA-NI
// kernel is picked once, by CPUID, and there is no switch to force either.
#pragma once

#include <cstddef>
#include <cstdint>

namespace roomnet::sha256_kernels {

using BlockFn = void (*)(std::uint32_t h[8], const std::uint8_t* data,
                         std::size_t blocks);

/// The portable FIPS 180-4 compression function.
void blocks_scalar(std::uint32_t h[8], const std::uint8_t* data,
                   std::size_t blocks);

/// The x86 SHA-NI kernel, or nullptr when this build has none or the CPU
/// lacks SHA, SSE4.1 or SSSE3.
[[nodiscard]] BlockFn shani();

/// The kernel `Sha256` uses: shani() when there is one, else blocks_scalar.
[[nodiscard]] BlockFn active();

/// "sha-ni" or "scalar", naming active().
[[nodiscard]] const char* active_name();

}  // namespace roomnet::sha256_kernels
