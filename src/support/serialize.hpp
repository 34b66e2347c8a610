// Binary serialization primitives and atomic file I/O for the persistent
// specialization cache.
//
// ByteWriter/ByteReader encode values in a fixed little-endian layout so that
// cache artifacts written by one process deserialize identically in another.
// Readers are bounds-checked: any overrun throws SerializeError, which cache
// consumers treat as "corrupt artifact, recompile" rather than a crash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace kspec {

// A malformed, truncated, or version-incompatible serialized artifact.
class SerializeError : public Error {
 public:
  explicit SerializeError(const std::string& what) : Error("serialize error: " + what) {}
};

class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F32(float v);
  void F64(double v);
  // Length-prefixed string (u32 length + raw bytes).
  void Str(std::string_view s);
  void Raw(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  float F32();
  double F64();
  std::string Str();

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::span<const std::uint8_t> Rest() const { return data_.subspan(pos_); }

 private:
  void Need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// FNV-1a over a raw byte range (same function as Fnv1a(string_view)); used as
// the cache artifact content checksum.
std::uint64_t Fnv1aBytes(const void* data, std::size_t n);

// The self-validating envelope every persistent artifact shares — .kmod
// modules, .nso shared objects, the tuning cache. Layout, all integers
// little-endian:
//   [0..7]   magic (names the artifact kind)
//   [8..11]  u32 format version
//   [12..19] u64 FNV-1a checksum of the payload bytes
//   [20..27] u64 payload byte count
//   [28..]   payload
struct EnvelopeFormat {
  char magic[8];
  std::uint32_t version;
  const char* name;  // artifact kind, for error messages
};

// Wraps `payload` in a `format` envelope.
std::vector<std::uint8_t> SealEnvelope(const EnvelopeFormat& format,
                                       std::span<const std::uint8_t> payload);

// Checks an envelope's magic, version, size and checksum in one pass and
// returns its payload (a view into `bytes`). Throws SerializeError on any
// mismatch or truncation.
std::span<const std::uint8_t> OpenEnvelope(const EnvelopeFormat& format,
                                           std::span<const std::uint8_t> bytes);

// Reads a whole file. Returns false (without throwing) if the file does not
// exist or cannot be read.
bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out);

// Writes `bytes` to `path` via a uniquely named temp file + fsync + rename so
// that (a) concurrent readers never observe a half-written artifact, (b) two
// concurrent publishers of the same path never corrupt each other (last
// complete rename wins), and (c) a crash right after the rename cannot
// surface a truncated-but-renamed file. Returns false on any I/O failure.
bool WriteFileAtomic(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace kspec
