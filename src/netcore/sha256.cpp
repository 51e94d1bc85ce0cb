#include "netcore/sha256.hpp"

#include <algorithm>

#include "netcore/sha256_kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define ROOMNET_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define ROOMNET_SHA256_X86 0
#endif

namespace roomnet {

namespace {

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace sha256_kernels {

void blocks_scalar(std::uint32_t h[8], const std::uint8_t* data,
                   std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             data[4 * i + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = hh + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

#if ROOMNET_SHA256_X86
namespace {

#define ROOMNET_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four message words, big-endian at `p`.
ROOMNET_SHA_TARGET inline __m128i load_be(const std::uint8_t* p,
                                          __m128i bswap) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

/// Four rounds: `w` holds message words W[t..t+3], `k` points at K[t].
ROOMNET_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh,
                                       __m128i w, const std::uint32_t* k) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// W[t..t+3] from W[t-16..t-1], held four words each in w0..w3.
ROOMNET_SHA_TARGET inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                                           __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

ROOMNET_SHA_TARGET void blocks_shani(std::uint32_t h[8],
                                     const std::uint8_t* data,
                                     std::size_t blocks) {
  // Big-endian message words, and the state in the lane order the SHA
  // instructions take: {A,B,E,F} and {C,D,G,H}.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_be(data, bswap), w1 = load_be(data + 16, bswap);
    __m128i w2 = load_be(data + 32, bswap), w3 = load_be(data + 48, bswap);
    for (int q = 0; q < 4; ++q) {
      const std::uint32_t* k = kRoundConstants + 16 * q;
      rounds4(abef, cdgh, w0, k);
      rounds4(abef, cdgh, w1, k + 4);
      rounds4(abef, cdgh, w2, k + 8);
      rounds4(abef, cdgh, w3, k + 12);
      if (q == 3) break;
      w0 = schedule(w0, w1, w2, w3);
      w1 = schedule(w1, w2, w3, w0);
      w2 = schedule(w2, w3, w0, w1);
      w3 = schedule(w3, w0, w1, w2);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef ROOMNET_SHA_TARGET

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3 && sse41 && (b & bit_SHA) != 0;
}

}  // namespace

BlockFn shani() {
  static const bool supported = cpu_has_shani();
  return supported ? blocks_shani : nullptr;
}
#else
BlockFn shani() { return nullptr; }
#endif

namespace {
// Constant-initialized to the reference kernel, then switched once during
// static initialization; a hash taken before that point is still correct.
BlockFn g_active = blocks_scalar;
[[maybe_unused]] const bool g_selected = [] {
  if (const BlockFn fast = shani()) g_active = fast;
  return true;
}();
}  // namespace

BlockFn active() { return g_active; }

const char* active_name() {
  return g_active == blocks_scalar ? "scalar" : "sha-ni";
}

}  // namespace sha256_kernels

void Sha256::update(BytesView data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffered_, left);
    std::copy(p, p + take, buffer_ + buffered_);
    buffered_ += take;
    p += take;
    left -= take;
    if (buffered_ < 64) return;
    sha256_kernels::active()(h_, buffer_, 1);
    buffered_ = 0;
  }
  // Every whole block in one kernel call.
  if (const std::size_t blocks = left / 64; blocks > 0) {
    sha256_kernels::active()(h_, p, blocks);
    p += blocks * 64;
    left -= blocks * 64;
  }
  std::copy(p, p + left, buffer_);
  buffered_ = left;
}

Sha256Digest Sha256::digest() const {
  // Finalize a copy so the stream can keep accepting updates.
  Sha256 state = *this;
  std::uint8_t tail[128] = {};
  const std::size_t rem = state.buffered_;
  std::copy(state.buffer_, state.buffer_ + rem, tail);
  tail[rem] = 0x80;
  const std::size_t tail_len = (rem + 1 + 8 <= 64) ? 64 : 128;
  const std::uint64_t bit_len = state.total_bytes_ * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  sha256_kernels::active()(state.h_, tail, tail_len / 64);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state.h_[i] >> 24);
    digest[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state.h_[i] >> 16);
    digest[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state.h_[i] >> 8);
    digest[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state.h_[i]);
  }
  return digest;
}

std::string Sha256::hex() const {
  const Sha256Digest d = digest();
  return to_hex(BytesView(d));
}

Sha256Digest sha256(BytesView data) {
  Sha256 state;
  state.update(data);
  return state.digest();
}

Sha256Digest hmac_sha256(BytesView key, BytesView message) {
  std::array<std::uint8_t, 64> pad{};
  if (key.size() > 64) {
    const Sha256Digest hashed = sha256(key);
    std::copy(hashed.begin(), hashed.end(), pad.begin());
  } else {
    std::copy(key.begin(), key.end(), pad.begin());
  }
  for (std::uint8_t& b : pad) b ^= 0x36;
  Sha256 inner;
  inner.update(BytesView(pad));
  inner.update(message);
  const Sha256Digest inner_hash = inner.digest();

  // key ^ opad == (key ^ ipad) ^ (ipad ^ opad)
  for (std::uint8_t& b : pad) b ^= 0x36 ^ 0x5c;
  Sha256 outer;
  outer.update(BytesView(pad));
  outer.update(BytesView(inner_hash));
  return outer.digest();
}

std::string sha256_hex(BytesView data) {
  const Sha256Digest d = sha256(data);
  return to_hex(BytesView(d));
}

std::string hmac_sha256_hex(BytesView key, BytesView message) {
  const Sha256Digest d = hmac_sha256(key, message);
  return to_hex(BytesView(d));
}

}  // namespace roomnet
