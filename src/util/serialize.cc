#include "util/serialize.h"

namespace xdeal {

namespace {

template <typename T>
Result<uint64_t> Widen(Result<T> r) {
  if (!r.ok()) return r.status();
  return static_cast<uint64_t>(r.value());
}

}  // namespace

void SnapshotIO::Put(uint64_t v, size_t width) {
  if (width == 1) {
    writer_->U8(static_cast<uint8_t>(v));
  } else if (width == 4) {
    writer_->U32(static_cast<uint32_t>(v));
  } else {
    writer_->U64(v);
  }
}

uint64_t SnapshotIO::Get(size_t width) {
  Result<uint64_t> v = width == 1   ? Widen(reader_->U8())
                       : width == 4 ? Widen(reader_->U32())
                                    : reader_->U64();
  if (!v.ok()) {
    Fail(v.status());
    return 0;
  }
  return v.value();
}

void SnapshotIO::Raw(uint8_t* data, size_t len) {
  if (!ok()) return;
  if (!reading()) {
    writer_->Raw(data, len);
    return;
  }
  Result<Bytes> r = reader_->Raw(len);
  if (r.ok()) std::memcpy(data, r.value().data(), len);
  Fail(r.status());
}

void SnapshotIO::Count(size_t& n, Prefix prefix) {
  if (prefix == Prefix::kU32) {
    uint32_t narrow = static_cast<uint32_t>(n);
    U32(narrow);
    n = narrow;
  } else {
    Size(n);
  }
  if (reading() && ok() && n > reader_->remaining()) {
    Fail(Status::InvalidArgument(
        "snapshot count " + std::to_string(n) + " exceeds the " +
        std::to_string(reader_->remaining()) + " bytes left"));
  }
}

void SnapshotIO::Check(bool cond, const char* what) {
  if (reading() && !cond) Fail(Status::InvalidArgument(what));
}

void SnapshotIO::Fail(Status s) {
  if (ok() && !s.ok()) status_ = std::move(s);
}

void SnapshotIO::FailConst() {
  Fail(Status::Internal("snapshot: decoding into a const field"));
}

void SnapshotIO::FailUnread(size_t bytes) {
  Fail(Status::InvalidArgument("snapshot sub-record has " +
                               std::to_string(bytes) + " unread bytes"));
}

}  // namespace xdeal
