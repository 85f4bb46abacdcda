// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Every hash in the system goes through this implementation: block hashes,
// deal identifiers, vote messages, Merkle nodes, signature challenges, and
// proof-of-work. On x86-64 CPUs with the SHA extensions, blocks compress
// through a SHA-NI kernel; elsewhere through the portable compress, which
// the tests keep as the oracle for the kernel. Validated against the FIPS
// test vectors in crypto_sha256_test.cpp.

#ifndef XDEAL_CRYPTO_SHA256_H_
#define XDEAL_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/det.h"

namespace xdeal {

/// A 32-byte SHA-256 digest, comparable and hashable for use as a map key.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256& o) const { return bytes == o.bytes; }
  bool operator!=(const Hash256& o) const { return bytes != o.bytes; }
  bool operator<(const Hash256& o) const { return bytes < o.bytes; }

  /// Lowercase hex (64 chars).
  std::string ToHex() const;

  /// First 8 hex chars — convenient for logs.
  std::string ShortHex() const;

  /// True if all bytes are zero (the default value).
  bool IsZero() const;

  /// Treats the first 8 bytes as a big-endian integer; used for PoW
  /// difficulty comparison and deterministic tie-breaking.
  uint64_t Prefix64() const;
};

namespace sha256_internal {

/// A block compress: folds `blocks` consecutive 64-byte blocks at `data`
/// (any alignment) into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t blocks);

/// The portable compress: the fallback on CPUs without SHA-NI, and the
/// oracle the tests and bench_crypto_micro check the dispatched path against.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The SHA-NI compress, or nullptr when this build is not x86-64 or this CPU
/// lacks SHA-NI, SSE4.1 or SSSE3.
CompressFn ShaNiCompress();

/// The compress every Sha256 uses: ShaNiCompress() where available, else
/// CompressPortable. Chosen once per process, with no knob.
CompressFn DispatchedCompress();

/// The digest of `len` bytes at `data`, compressed by `compress` instead of
/// DispatchedCompress().
Hash256 DigestWith(CompressFn compress, const uint8_t* data, size_t len);

}  // namespace sha256_internal

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes at `data`.
  void Update(const uint8_t* data, size_t len);
  /// Absorbs the bytes of `data`.
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  /// Absorbs the bytes of `s`.
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the digest. The hasher must not be reused.
  Hash256 Finish();

 private:
  friend Hash256 sha256_internal::DigestWith(sha256_internal::CompressFn,
                                             const uint8_t*, size_t);

  explicit Sha256(sha256_internal::CompressFn compress);

  sha256_internal::CompressFn compress_;
  uint32_t state_[8];
  uint64_t bit_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// One-shot digest of `data`.
XDEAL_DETERMINISTIC Hash256 Sha256Digest(const Bytes& data);
/// One-shot digest of the bytes of `data`.
XDEAL_DETERMINISTIC Hash256 Sha256Digest(std::string_view data);

/// Hash functor for Hash256 keys in unordered containers.
struct Hash256Hasher {
  /// The first 8 digest bytes, folded big-endian.
  size_t operator()(const Hash256& h) const {
    // Fold the first 8 digest bytes big-endian, byte by byte. A memcpy into
    // the size_t would read them in host order, making the hash value — and
    // any bucket layout derived from it — differ across endianness.
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v = (v << 8) | h.bytes[i];
    }
    return static_cast<size_t>(v);
  }
};

}  // namespace xdeal

#endif  // XDEAL_CRYPTO_SHA256_H_
