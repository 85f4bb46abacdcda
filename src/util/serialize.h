// ByteWriter / ByteReader: canonical little-endian serialization.
//
// Used wherever bytes must be canonical: contract call arguments, vote
// messages that get signed, block hashing, and proofs. Canonical encoding is
// essential for the protocols: two parties must derive byte-identical
// messages for signature verification to succeed.
//
// SnapshotIO lists a checkpointed record's fields once, for both
// directions: the record's Checkpoint and Restore run the same listing, one
// to encode the live record, the other to decode a snapshot into a fresh
// one.

#ifndef XDEAL_UTIL_SERIALIZE_H_
#define XDEAL_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace xdeal {

/// Appends fixed-width integers, length-prefixed strings/blobs to a buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Fixed-width little-endian integers; a bool is one byte, 0 or 1.
  ByteWriter& U8(uint8_t v) {
    buf_.push_back(v);
    return *this;
  }
  ByteWriter& U16(uint16_t v) { return AppendLe(v); }
  ByteWriter& U32(uint32_t v) { return AppendLe(v); }
  ByteWriter& U64(uint64_t v) { return AppendLe(v); }
  ByteWriter& I64(int64_t v) { return AppendLe(static_cast<uint64_t>(v)); }
  ByteWriter& Bool(bool v) { return U8(v ? 1 : 0); }

  /// Length-prefixed (u32) string.
  ByteWriter& Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
    return *this;
  }

  /// Length-prefixed (u32) byte blob.
  ByteWriter& Blob(const Bytes& b) {
    U32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
    return *this;
  }

  /// Raw bytes, no length prefix (for fixed-width fields like hashes).
  ByteWriter& Raw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
    return *this;
  }
  ByteWriter& Raw(const Bytes& b) { return Raw(b.data(), b.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  template <typename T>
  ByteWriter& AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }

  Bytes buf_;
};

/// Reads values written by ByteWriter. All reads are bounds-checked and
/// return Status on truncation, so malformed contract call payloads from
/// deviating parties are rejected rather than crashing.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  /// Fixed-width little-endian integers; any nonzero bool byte is true.
  Result<uint8_t> U8() {
    if (pos_ + 1 > buf_.size()) return Truncated();
    return buf_[pos_++];
  }
  Result<uint16_t> U16() { return ReadLe<uint16_t>(); }
  Result<uint32_t> U32() { return ReadLe<uint32_t>(); }
  Result<uint64_t> U64() { return ReadLe<uint64_t>(); }
  /// A U64 reinterpreted as signed.
  Result<int64_t> I64() {
    auto r = ReadLe<uint64_t>();
    if (!r.ok()) return r.status();
    return static_cast<int64_t>(r.value());
  }
  /// One byte; nonzero is true.
  Result<bool> Bool() {
    auto r = U8();
    if (!r.ok()) return r.status();
    return r.value() != 0;
  }

  /// Length-prefixed (u32) string.
  Result<std::string> Str() {
    auto len = U32();
    if (!len.ok()) return len.status();
    if (pos_ + len.value() > buf_.size()) return Truncated();
    std::string out(buf_.begin() + pos_, buf_.begin() + pos_ + len.value());
    pos_ += len.value();
    return out;
  }

  /// Length-prefixed (u32) byte blob.
  Result<Bytes> Blob() {
    auto len = U32();
    if (!len.ok()) return len.status();
    if (pos_ + len.value() > buf_.size()) return Truncated();
    Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + len.value());
    pos_ += len.value();
    return out;
  }

  /// Reads exactly `len` raw bytes.
  Result<Bytes> Raw(size_t len) {
    if (pos_ + len > buf_.size()) return Truncated();
    Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  Result<T> ReadLe() {
    if (pos_ + sizeof(T) > buf_.size()) return Truncated();
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(buf_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  static Status Truncated() {
    return Status::InvalidArgument("truncated byte buffer");
  }

  const Bytes& buf_;
  size_t pos_ = 0;
};

/// A direction-agnostic snapshot codec. A record lists its fields once as
/// calls on a SnapshotIO, each taking the field by reference: an encoding
/// SnapshotIO appends the field's bytes exactly as ByteWriter would; a
/// decoding one overwrites the field from a ByteReader. A listing may run
/// on a const record to encode (a record's Checkpoint is const); decoding
/// into a const field fails with kInternal.
///
/// Decoding never trusts the input. The first failed read records a Status
/// (sticky): every later call is then a no-op, so a listing checks ok()
/// once, before its decoded values cause side effects, instead of after
/// every field. Element counts are bounded by the bytes left before
/// anything is allocated, and Check() rejects out-of-range values.
class SnapshotIO {
 public:
  /// Width of an element-count prefix on the wire.
  enum class Prefix { kU32, kU64 };

  /// An encoder: every field call appends to `out`, which must outlive
  /// this object.
  explicit SnapshotIO(ByteWriter* out) : writer_(out) {}
  /// A decoder reading from `in`'s position on; `in` must outlive this
  /// object and advances as fields are read.
  explicit SnapshotIO(ByteReader& in) : reader_(&in) {}

  SnapshotIO(const SnapshotIO&) = delete;
  SnapshotIO& operator=(const SnapshotIO&) = delete;

  /// True when decoding, false when encoding.
  bool reading() const { return reader_ != nullptr; }
  /// False once any call has failed.
  bool ok() const { return status_.ok(); }
  /// The first failure, or OK.
  const Status& status() const { return status_; }

  /// One-byte field (uint8_t).
  template <typename T>
  void U8(T& v) { Fixed<uint8_t>(v, 1); }
  /// Four-byte little-endian field (uint32_t).
  template <typename T>
  void U32(T& v) { Fixed<uint32_t>(v, 4); }
  /// Eight-byte little-endian field (uint64_t).
  template <typename T>
  void U64(T& v) { Fixed<uint64_t>(v, 8); }
  /// A size_t carried as a U64.
  template <typename T>
  void Size(T& v) { Fixed<size_t>(v, 8); }
  /// One byte, 0 or 1 when encoding; any nonzero byte decodes as true.
  template <typename T>
  void Bool(T& v) { Fixed<bool>(v, 1); }

  /// A u32-length-prefixed string.
  template <typename T>
  void Str(T& s) {
    static_assert(std::is_same_v<std::remove_const_t<T>, std::string>);
    if (!ok()) return;
    if (!reading()) {
      writer_->Str(s);
    } else if constexpr (std::is_const_v<T>) {
      FailConst();
    } else {
      Result<std::string> r = reader_->Str();
      if (r.ok()) s = std::move(r.value());
      Fail(r.status());
    }
  }

  /// Exactly `len` raw bytes, no prefix (fixed-width fields like hashes).
  void Raw(uint8_t* data, size_t len);

  /// A one-byte enum. Decoding rejects a value above `max`.
  template <typename E>
  void Enum(E& e, std::remove_const_t<E> max, const char* what) {
    uint8_t v = static_cast<uint8_t>(e);
    U8(v);
    Check(v <= static_cast<uint8_t>(max), what);
    if constexpr (!std::is_const_v<E>) {
      if (reading() && ok()) e = static_cast<E>(v);
    }
  }

  /// An element count. Decoding rejects a count above the bytes left:
  /// every element takes at least one byte, so the check bounds any
  /// reserve or resize that follows.
  void Count(size_t& n, Prefix prefix = Prefix::kU32);

  /// A count, then `each(element)` per element. Decoding replaces `v` with
  /// `count` value-initialised elements first.
  template <typename Vec, typename Each>
  void List(Vec& v, Each each, Prefix prefix = Prefix::kU32) {
    size_t n = v.size();
    Count(n, prefix);
    if (!ok()) return;
    if (reading()) {
      if constexpr (std::is_const_v<Vec>) {
        return FailConst();
      } else {
        v.assign(n, typename Vec::value_type{});
      }
    }
    for (auto& element : v) {
      each(element);
      if (!ok()) return;
    }
  }

  /// A count, then `each(key, value)` per entry in key order. Decoding
  /// clears `m` and inserts each entry once it decoded cleanly.
  template <typename Map, typename Each>
  void Entries(Map& m, Each each, Prefix prefix = Prefix::kU32) {
    size_t n = m.size();
    Count(n, prefix);
    if (!ok()) return;
    if (!reading()) {
      for (auto& [key, value] : m) each(key, value);
    } else if constexpr (std::is_const_v<Map>) {
      FailConst();
    } else {
      m.clear();
      for (size_t i = 0; i < n; ++i) {
        typename Map::key_type key{};
        typename Map::mapped_type value{};
        each(key, value);
        if (!ok()) return;
        m.insert_or_assign(std::move(key), std::move(value));
      }
    }
  }

  /// A sub-record in a u32-length-prefixed blob. Encoding calls
  /// `encode(ByteWriter*)` on a fresh writer; decoding calls
  /// `decode(ByteReader&)` on a reader over exactly the blob, which it must
  /// consume. Both return a Status, which becomes this codec's failure.
  template <typename Encode, typename Decode>
  void Nested(Encode encode, Decode decode) {
    if (!ok()) return;
    if (!reading()) {
      ByteWriter blob;
      Fail(encode(&blob));
      writer_->Blob(blob.bytes());
      return;
    }
    Result<Bytes> blob = reader_->Blob();
    if (!blob.ok()) return Fail(blob.status());
    ByteReader sub(blob.value());
    Fail(decode(sub));
    if (ok() && !sub.AtEnd()) FailUnread(sub.remaining());
  }

  /// Decode-side rejection: when decoding and `cond` is false, fails with
  /// InvalidArgument(`what`). A no-op when encoding.
  void Check(bool cond, const char* what);

  /// Records `s` as the failure unless `s` is OK or a failure is already
  /// recorded. Works in both directions.
  void Fail(Status s);

 private:
  /// Encodes `v` in `width` little-endian bytes, or decodes it.
  template <typename Field, typename T>
  void Fixed(T& v, size_t width) {
    static_assert(std::is_same_v<std::remove_const_t<T>, Field>);
    if (!ok()) return;
    if (!reading()) {
      Put(static_cast<uint64_t>(v), width);
    } else if constexpr (std::is_const_v<T>) {
      FailConst();
    } else {
      uint64_t x = Get(width);
      if (ok()) v = static_cast<Field>(x);
    }
  }

  void Put(uint64_t v, size_t width);
  uint64_t Get(size_t width);
  void FailConst();
  void FailUnread(size_t bytes);

  ByteWriter* writer_ = nullptr;
  ByteReader* reader_ = nullptr;
  Status status_;
};

}  // namespace xdeal

#endif  // XDEAL_UTIL_SERIALIZE_H_
