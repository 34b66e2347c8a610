#include "kcc/artifact_dir.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "support/log.hpp"
#include "support/serialize.hpp"
#include "support/str.hpp"

namespace kspec::kcc {

LoadResult ArtifactDir::Load(ArtifactKind kind, const std::string& file_name,
                             const std::string& key_text, const BodyFn& on_body,
                             std::vector<std::uint8_t>* envelope) const {
  const std::string path = PathFor(file_name);
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) return LoadResult::kMissing;
  try {
    std::string stored_key;
    const std::span<const std::uint8_t> body = OpenEnvelope(kind, bytes, &stored_key);
    if (stored_key != key_text) {
      KSPEC_LOG_WARN << "artifact dir: " << path
                     << " belongs to a different key (hash collision) — treating as miss";
      return LoadResult::kCollision;
    }
    if (on_body) on_body(body);
  } catch (const SerializeError& e) {
    KSPEC_LOG_WARN << "artifact dir: quarantining unreadable artifact " << path << " ("
                   << e.what() << ")";
    Quarantine(file_name);
    return LoadResult::kCorrupt;
  }
  if (envelope) *envelope = std::move(bytes);
  return LoadResult::kHit;
}

bool ArtifactDir::Publish(ArtifactKind kind, const std::string& file_name,
                          const std::string& key_text,
                          std::span<const std::uint8_t> envelope) const {
  const std::string path = PathFor(file_name);
  try {
    std::string stored_key;
    OpenEnvelope(kind, envelope, &stored_key);
    if (stored_key != key_text) {
      KSPEC_LOG_WARN << "artifact dir: refusing to publish bytes keyed differently than " << path;
      return false;
    }
  } catch (const SerializeError& e) {
    KSPEC_LOG_WARN << "artifact dir: refusing to publish malformed artifact " << path << " ("
                   << e.what() << ")";
    return false;
  }
  if (!WriteFileAtomic(path, envelope)) {
    KSPEC_LOG_WARN << "artifact dir: failed to publish " << path << " — continuing";
    return false;
  }
  return true;
}

bool ArtifactDir::Contains(const std::string& file_name) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(file_name), ec);
}

void ArtifactDir::Quarantine(const std::string& file_name) const {
  static std::atomic<std::uint64_t> counter{0};
  const std::string path = PathFor(file_name);
  const std::string aside = path + Format(".bad.%d.%llu", static_cast<int>(::getpid()),
                                          static_cast<unsigned long long>(counter.fetch_add(1)));
  if (std::rename(path.c_str(), aside.c_str()) != 0) ::unlink(path.c_str());
}

}  // namespace kspec::kcc
