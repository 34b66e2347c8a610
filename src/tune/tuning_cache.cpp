// Persistent tier of the TuningCache.
//
// The file is the shared artifact envelope (support/serialize.hpp: magic,
// format version, FNV-1a content checksum, payload size) around the entry map.
// Any malformed file — truncated, corrupt, version-bumped — deserializes to
// an empty cache with a warning rather than an error: tuned configurations
// are always recomputable, so the cache must never be able to wedge a run.
// Writes go through WriteFileAtomic (temp file + rename) after re-merging
// the on-disk entries, so concurrent processes sharing one path never see a
// torn file and a late writer does not drop an earlier writer's entries.
#include <utility>

#include "support/log.hpp"
#include "support/serialize.hpp"
#include "tune/tuner.hpp"

namespace kspec::tune {

namespace {

constexpr EnvelopeFormat kTuneFormat = {{'K', 'S', 'P', 'C', 'T', 'U', 'N', '1'}, 1,
                                         "tuning-cache"};

std::vector<std::uint8_t> SerializeEntries(const std::map<std::string, Config>& entries) {
  ByteWriter payload;
  payload.U32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, config] : entries) {
    payload.Str(key);
    payload.U32(static_cast<std::uint32_t>(config.size()));
    for (const auto& [name, value] : config) {
      payload.Str(name);
      payload.I64(value);
    }
  }
  return SealEnvelope(kTuneFormat, payload.bytes());
}

// Throws SerializeError on any malformation; callers downgrade to "empty".
std::map<std::string, Config> DeserializeEntries(std::span<const std::uint8_t> bytes) {
  ByteReader r(OpenEnvelope(kTuneFormat, bytes));
  std::map<std::string, Config> entries;
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.Str();
    Config config;
    const std::uint32_t params = r.U32();
    for (std::uint32_t j = 0; j < params; ++j) {
      std::string name = r.Str();
      config[std::move(name)] = r.I64();
    }
    entries[std::move(key)] = std::move(config);
  }
  if (!r.AtEnd()) throw SerializeError("trailing bytes after entries");
  return entries;
}

// Best-effort read of `path` into an entry map; empty on any failure.
std::map<std::string, Config> ReadEntries(const std::string& path, bool warn) {
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) return {};
  try {
    return DeserializeEntries(bytes);
  } catch (const SerializeError& e) {
    if (warn) {
      KSPEC_LOG_WARN << "tuning cache " << path << ": " << e.what()
                     << " — starting empty (entries will be re-tuned)";
    }
    return {};
  }
}

}  // namespace

TuningCache::TuningCache(std::string path) : path_(std::move(path)) { LoadFromDisk(); }

void TuningCache::LoadFromDisk() {
  std::map<std::string, Config> loaded = ReadEntries(path_, /*warn=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(loaded);
}

std::string TuningCache::MakeKey(const std::string& kernel, const std::string& device,
                                 const std::string& problem_signature) {
  return kernel + "|" + device + "|" + problem_signature;
}

std::optional<Config> TuningCache::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::Store(const std::string& key, Config config) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = std::move(config);
  }
  if (!path_.empty()) Flush();
}

std::size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Config TuningCache::LookupOrCompute(const std::string& key,
                                    const std::function<Config()>& compute) {
  if (std::optional<Config> hit = Lookup(key)) return *hit;
  // The search runs outside mu_ (it launches kernels, possibly for seconds);
  // racers on the same key wait for it instead of searching again. The
  // flight re-checks the entry (a flight that finished since the Lookup
  // above stored it) and stores its result before the key is released, so
  // no later caller can run the search a second time.
  return searches_.Do(key, [&] {
    if (std::optional<Config> hit = Lookup(key)) return *hit;
    Config config = compute();
    Store(key, config);
    return config;
  });
}

bool TuningCache::Flush() const {
  if (path_.empty()) return true;
  // Serialize whole read-merge-write cycles against other in-process
  // flushers: two interleaved cycles could each re-read the file before the
  // other wrote, and the later rename would drop the earlier writer's entry.
  std::lock_guard<std::mutex> io(flush_mu_);
  std::map<std::string, Config> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  // Re-merge what other processes wrote meanwhile; our entries win ties.
  // File I/O happens outside mu_ so a slow disk never blocks Lookup/Store.
  std::map<std::string, Config> merged = ReadEntries(path_, /*warn=*/false);
  for (const auto& [key, config] : snapshot) merged[key] = config;
  std::vector<std::uint8_t> bytes = SerializeEntries(merged);
  if (!WriteFileAtomic(path_, bytes)) {
    KSPEC_LOG_WARN << "tuning cache: cannot write " << path_;
    return false;
  }
  return true;
}

}  // namespace kspec::tune
