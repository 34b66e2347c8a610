#include "support/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace kspec {

void ByteWriter::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::F32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  U32(bits);
}

void ByteWriter::F64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void ByteWriter::Raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteReader::Need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw SerializeError("truncated input: need " + std::to_string(n) + " bytes at offset " +
                         std::to_string(pos_) + " of " + std::to_string(data_.size()));
  }
}

std::uint8_t ByteReader::U8() {
  Need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

float ByteReader::F32() {
  std::uint32_t bits = U32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

double ByteReader::F64() {
  std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string ByteReader::Str() {
  std::uint32_t n = U32();
  Need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::uint64_t Fnv1aBytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint8_t> SealEnvelope(const EnvelopeFormat& format,
                                       std::span<const std::uint8_t> payload) {
  ByteWriter out;
  out.Raw(format.magic, sizeof(format.magic));
  out.U32(format.version);
  out.U64(Fnv1aBytes(payload.data(), payload.size()));
  out.U64(payload.size());
  out.Raw(payload.data(), payload.size());
  return out.Take();
}

std::span<const std::uint8_t> OpenEnvelope(const EnvelopeFormat& format,
                                           std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeaderBytes = 28;
  if (bytes.size() < kHeaderBytes) throw SerializeError("artifact shorter than header");
  if (std::memcmp(bytes.data(), format.magic, sizeof(format.magic)) != 0) {
    throw SerializeError(std::string("bad magic: not a kspec ") + format.name + " artifact");
  }
  ByteReader header(bytes.subspan(sizeof(format.magic)));
  const std::uint32_t version = header.U32();
  if (version != format.version) {
    throw SerializeError(std::string(format.name) + " format version " + std::to_string(version) +
                         " != expected " + std::to_string(format.version));
  }
  const std::uint64_t checksum = header.U64();
  const std::uint64_t payload_size = header.U64();
  if (payload_size != header.remaining()) {
    throw SerializeError("payload size mismatch: header says " + std::to_string(payload_size) +
                         ", file has " + std::to_string(header.remaining()));
  }
  const std::span<const std::uint8_t> payload = header.Rest();
  if (Fnv1aBytes(payload.data(), payload.size()) != checksum) {
    throw SerializeError("content checksum mismatch (corrupt artifact)");
  }
  return payload;
}

bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  if (end < 0) return false;
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(end));
  if (!out->empty()) in.read(reinterpret_cast<char*>(out->data()), end);
  return static_cast<bool>(in);
}

bool WriteFileAtomic(const std::string& path, std::span<const std::uint8_t> bytes) {
  // The temp file lives next to the target so the rename stays within one
  // filesystem (rename across devices is not atomic), and its name is unique
  // per process and per call: concurrent publishers of the same target must
  // not truncate each other's half-written temp file, or the loser's rename
  // would publish the winner's torn bytes.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync BEFORE the rename: rename orders the directory entry, not the data
  // blocks, so a crash between rename and writeback could otherwise surface a
  // truncated-but-renamed file. Readers must never see that.
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace kspec
