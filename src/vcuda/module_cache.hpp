// In-memory tier of the specialization cache: collision-safe, LRU-bounded.
//
// Entries are bucketed by the key's 64-bit hash, but a lookup only returns a
// module whose *full* ModuleCacheKey matches — an FNV-1a collision is detected
// (counted in collisions_detected) and reported as a miss instead of silently
// serving the wrong specialized binary. Eviction is least-recently-used
// against a configurable byte budget so long-running many-parameter-set
// processes (the GPU-PF streaming case) don't grow without bound.
//
// ModuleCache is not internally synchronized; Context guards it with its
// cache mutex.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kcc/cache_key.hpp"

namespace kspec::vcuda {

class ModuleCache {
 public:
  static constexpr std::size_t kDefaultByteBudget = 256ull << 20;  // 256 MiB

  explicit ModuleCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}

  // Returns the cached module for `key` (bumping it to most-recently-used),
  // or nullptr on miss. `hash` must be key.Hash() in production; tests pass
  // forged hashes to exercise collision handling.
  std::shared_ptr<const kcc::CompiledModule> Get(std::uint64_t hash,
                                                 const kcc::ModuleCacheKey& key);

  // True when an entry with this exact key is resident, WITHOUT bumping its
  // LRU recency — a probe asking "is this specialization here?" must not
  // distort the eviction order of the entries it only looks at.
  bool Contains(std::uint64_t hash, const kcc::ModuleCacheKey& key) const;

  // Inserts `module` under `key`, evicting LRU entries beyond the byte
  // budget. If an entry with an equal key already exists (a concurrent
  // compile raced us), the existing module is kept and returned; otherwise
  // returns `module`.
  std::shared_ptr<const kcc::CompiledModule> Put(
      std::uint64_t hash, const kcc::ModuleCacheKey& key,
      std::shared_ptr<const kcc::CompiledModule> module);

  // Shrinks the budget (evicting immediately if over) or grows it.
  void set_byte_budget(std::size_t bytes);
  std::size_t byte_budget() const { return byte_budget_; }

  std::size_t entry_count() const { return lru_.size(); }
  std::size_t bytes_cached() const { return bytes_cached_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t collisions_detected() const { return collisions_detected_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    kcc::ModuleCacheKey key;
    std::shared_ptr<const kcc::CompiledModule> module;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;  // front = most recently used

  void EvictOverBudget();

  std::size_t byte_budget_;
  std::size_t bytes_cached_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t collisions_detected_ = 0;
  LruList lru_;
  // Hash buckets; a bucket holds >1 entry only under an FNV-1a collision.
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> buckets_;
};

}  // namespace kspec::vcuda
