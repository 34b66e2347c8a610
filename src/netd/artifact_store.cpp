#include "netd/artifact_store.hpp"

#include <filesystem>

#include "support/status.hpp"

namespace kspec::netd {

using kcc::ArtifactKind;
using kcc::LoadResult;

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  KSPEC_CHECK_MSG(!dir_.path().empty(), "artifact store needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_.path(), ec);
  if (ec) throw Error("artifact store: cannot create '" + dir_.path() + "': " + ec.message());
}

std::string ArtifactStore::PathFor(const kcc::ModuleCacheKey& key) const {
  return dir_.PathFor(key.FileName());
}

bool ArtifactStore::Count(LoadResult r, std::uint64_t StoreStats::*hits,
                          std::uint64_t StoreStats::*misses) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (r) {
    case LoadResult::kHit:
      ++(stats_.*hits);
      return true;
    case LoadResult::kCorrupt:
      ++stats_.corrupt_quarantined;
      break;
    case LoadResult::kCollision:
      ++stats_.collisions;
      break;
    case LoadResult::kMissing:
      break;
  }
  ++(stats_.*misses);
  return false;
}

bool ArtifactStore::LoadBytes(const kcc::ModuleCacheKey& key, std::vector<std::uint8_t>* out) {
  // The body is decoded too, so a daemon never ships bytes a client cannot
  // parse.
  return Count(dir_.Load(ArtifactKind::kModule, key.FileName(), key.CanonicalText(),
                         [](std::span<const std::uint8_t> body) { kcc::DecodeModuleBody(body); },
                         out),
               &StoreStats::hits, &StoreStats::misses);
}

std::shared_ptr<const kcc::CompiledModule> ArtifactStore::Load(const kcc::ModuleCacheKey& key) {
  std::shared_ptr<const kcc::CompiledModule> mod;
  Count(dir_.Load(ArtifactKind::kModule, key.FileName(), key.CanonicalText(),
                  [&](std::span<const std::uint8_t> body) {
                    mod = std::make_shared<const kcc::CompiledModule>(
                        kcc::DecodeModuleBody(body));
                  }),
        &StoreStats::hits, &StoreStats::misses);
  return mod;
}

bool ArtifactStore::Publish(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod) {
  return PublishBytes(key, kcc::Serialize(mod, key.CanonicalText()));
}

bool ArtifactStore::PublishBytes(const kcc::ModuleCacheKey& key,
                                 std::span<const std::uint8_t> bytes) {
  if (!dir_.Publish(ArtifactKind::kModule, key.FileName(), key.CanonicalText(), bytes)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.publishes;
  return true;
}

bool ArtifactStore::Contains(const kcc::ModuleCacheKey& key) const {
  return dir_.Contains(key.FileName());
}

bool ArtifactStore::LoadNative(const std::string& file_name, const std::string& key_text,
                               const kcc::ArtifactDir::BodyFn& on_body,
                               std::vector<std::uint8_t>* envelope) {
  return Count(dir_.Load(ArtifactKind::kNative, file_name, key_text, on_body, envelope),
               &StoreStats::native_hits, &StoreStats::native_misses);
}

bool ArtifactStore::PublishNative(const std::string& file_name, const std::string& key_text,
                                  std::span<const std::uint8_t> envelope) {
  if (!dir_.Publish(ArtifactKind::kNative, file_name, key_text, envelope)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.native_publishes;
  return true;
}

bool ArtifactStore::ContainsNative(const std::string& file_name) const {
  return dir_.Contains(file_name);
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kspec::netd
