// Content-addressed shared artifact store.
//
// One directory holding the compiled specializations of every process on the
// machine: a kcc::ArtifactDir, the same envelope directory a Context's
// cache_dir and a NativeEngine's cache_dir are, counted for a fleet report.
// Module artifacts are named "k%016llx.kmod" by key hash — the exact layout
// Context::set_cache_dir uses, so a plain Context (or NativeEngine) pointed at
// the store directory gets the same artifacts with zero glue. Publishing is
// validated and atomic, so concurrent publishers of the same key are safe and
// readers only ever observe whole artifacts. Corrupt entries are quarantined
// as "<name>.bad.<pid>.<n>" (never served, never fatal); hash-colliding
// entries are a counted miss left in place.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kcc/artifact_dir.hpp"
#include "kcc/cache_key.hpp"
#include "kcc/compiler.hpp"

namespace kspec::netd {

struct StoreStats {
  std::uint64_t hits = 0;        // validated artifact served
  std::uint64_t misses = 0;      // no artifact for the key
  std::uint64_t publishes = 0;   // artifacts written
  std::uint64_t corrupt_quarantined = 0;  // unreadable entries renamed aside
  std::uint64_t collisions = 0;  // file present but keyed differently
  // The native-tier (.nso shared object) artifact kind, counted separately so
  // a fleet report can tell module traffic from native-artifact traffic.
  std::uint64_t native_hits = 0;
  std::uint64_t native_misses = 0;
  std::uint64_t native_publishes = 0;
};

class ArtifactStore {
 public:
  // Creates `dir` if absent; throws kspec::Error if that fails.
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_.path(); }
  std::string PathFor(const kcc::ModuleCacheKey& key) const;

  // Validated artifact bytes for `key` into *out. False on miss — including
  // corrupt entries (quarantined, counted) and hash-colliding entries (left
  // in place; the next publish of `key` overwrites them; counted).
  bool LoadBytes(const kcc::ModuleCacheKey& key, std::vector<std::uint8_t>* out);

  // The deserialized module for `key`; nullptr on miss.
  std::shared_ptr<const kcc::CompiledModule> Load(const kcc::ModuleCacheKey& key);

  // Serializes and publishes atomically. False on I/O failure (the store is
  // best-effort: callers continue without persistence).
  bool Publish(const kcc::ModuleCacheKey& key, const kcc::CompiledModule& mod);

  // Publishes pre-serialized artifact bytes after validating that they are a
  // well-formed envelope embedding exactly `key` (a daemon response is
  // re-verified before it can poison the shared store). False on validation
  // or I/O failure.
  bool PublishBytes(const kcc::ModuleCacheKey& key, std::span<const std::uint8_t> bytes);

  // Cheap existence probe (no validation, no stats).
  bool Contains(const kcc::ModuleCacheKey& key) const;

  // ---- native-tier artifacts (.nso) ----
  // The caller names the file and supplies the embedded key text, because a
  // native artifact's identity may be wider than one ModuleCacheKey (shape
  // variants). LoadNative runs `on_body` on a hit and hands over the envelope
  // when `envelope` is non-null.
  bool LoadNative(const std::string& file_name, const std::string& key_text,
                  const kcc::ArtifactDir::BodyFn& on_body,
                  std::vector<std::uint8_t>* envelope = nullptr);
  bool PublishNative(const std::string& file_name, const std::string& key_text,
                     std::span<const std::uint8_t> envelope);
  bool ContainsNative(const std::string& file_name) const;

  StoreStats stats() const;

 private:
  // Tallies one load into the module or native counters.
  bool Count(kcc::LoadResult r, std::uint64_t StoreStats::*hits,
             std::uint64_t StoreStats::*misses);

  kcc::ArtifactDir dir_;
  mutable std::mutex mu_;  // guards stats_
  StoreStats stats_;
};

}  // namespace kspec::netd
