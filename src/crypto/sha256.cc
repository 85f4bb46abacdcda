#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "util/hex.h"

// The SHA-NI kernel needs x86-64 and a compiler that knows the "sha" feature
// of __builtin_cpu_supports (GCC; Clang from 18). Other builds compile only
// the portable compress.
#if defined(__x86_64__) && (!defined(__clang__) || __clang_major__ >= 18)
#define XDEAL_HAVE_SHA_NI 1
#include <immintrin.h>
#else
#define XDEAL_HAVE_SHA_NI 0
#endif

namespace xdeal {

namespace {

constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRoundConstants[64] = {
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
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

std::string Hash256::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

std::string Hash256::ShortHex() const {
  return HexEncode(bytes.data(), 4);
}

bool Hash256::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

uint64_t Hash256::Prefix64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[i];
  return v;
}

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if XDEAL_HAVE_SHA_NI

namespace {

#define XDEAL_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Message words 4g..4g+3 from the previous sixteen, as four-word vectors:
// w4 = words 4g-16.., w3 = 4g-12.., w2 = 4g-8.., w1 = 4g-4...
XDEAL_SHA_NI_TARGET inline __m128i Schedule(__m128i w4, __m128i w3,
                                            __m128i w2, __m128i w1) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3),
                            _mm_alignr_epi8(w1, w2, 4));
  return _mm_sha256msg2_epu32(t, w1);
}

// Rounds 4g..4g+3 over message words `w`. The state is split the way
// sha256rnds2 wants it: abef = (a, b, e, f), cdgh = (c, d, g, h), each with
// its first word in the high lane.
XDEAL_SHA_NI_TARGET inline void Rounds4(__m128i& abef, __m128i& cdgh,
                                        __m128i w, size_t g) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

XDEAL_SHA_NI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t* data,
                                       size_t blocks) {
  // Big-endian words: reverse the bytes within each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), kByteSwap);
    Rounds4(abef, cdgh, w0, 0);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kByteSwap);
    Rounds4(abef, cdgh, w1, 1);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kByteSwap);
    Rounds4(abef, cdgh, w2, 2);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kByteSwap);
    Rounds4(abef, cdgh, w3, 3);
    for (size_t g = 4; g < 16; g += 4) {
      w0 = Schedule(w0, w1, w2, w3);
      Rounds4(abef, cdgh, w0, g);
      w1 = Schedule(w1, w2, w3, w0);
      Rounds4(abef, cdgh, w1, g + 1);
      w2 = Schedule(w2, w3, w0, w1);
      Rounds4(abef, cdgh, w2, g + 2);
      w3 = Schedule(w3, w0, w1, w2);
      Rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef XDEAL_SHA_NI_TARGET

}  // namespace

CompressFn ShaNiCompress() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return &CompressShaNi;
  }
  return nullptr;
}

#else  // !XDEAL_HAVE_SHA_NI

CompressFn ShaNiCompress() { return nullptr; }

#endif  // XDEAL_HAVE_SHA_NI

CompressFn DispatchedCompress() {
  static const CompressFn chosen = [] {
    CompressFn sha_ni = ShaNiCompress();
    return sha_ni != nullptr ? sha_ni : &CompressPortable;
  }();
  return chosen;
}

Hash256 DigestWith(CompressFn compress, const uint8_t* data, size_t len) {
  Sha256 h(compress);
  h.Update(data, len);
  return h.Finish();
}

}  // namespace sha256_internal

Sha256::Sha256() : Sha256(sha256_internal::DispatchedCompress()) {}

Sha256::Sha256(sha256_internal::CompressFn compress) : compress_(compress) {
  std::memcpy(state_, kInitialState, sizeof(state_));
}

void Sha256::Update(const uint8_t* data, size_t len) {
  bit_len_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    compress_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the input; only a tail is buffered.
  size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) {
    compress_(state_, data, blocks);
    data += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len_ >> (56 - 8 * i));
  }
  Update(pad, pad_len + 8);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256Digest(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256Digest(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace xdeal
