// Implementation-parameter autotuning.
//
// Chapter 3 of the dissertation positions kernel specialization as
// complementary to autotuning: "by using highly parameterized CUDA kernels
// that are specialized quickly at run time, autotuning tools can be used to
// characterize the performance of a given implementation so that effective
// parameters can be selected quickly and used to compile a specialized
// kernel." This module is that companion tool, in three tiers:
//
//   1. A *static pre-pass* (PruneFn, typically built by prepass.hpp's
//      OccupancyPrune): configurations that provably cannot launch —
//      coverage arithmetic, device block limits, zero occupancy from
//      MiniPTX register counts — are pruned without compiling or launching
//      them, and counted in TuneResult::pruned_static.
//   2. *Search* over named integer parameter ranges with a pluggable
//      evaluation function (typically: specialize, launch on the simulator,
//      return simulated milliseconds): exhaustive GridSearch, multi-start
//      CoordinateDescent, and the model-guided PredictiveSearch that fits a
//      low-order cost model from a small seed sample (KLARAPTOR-style) and
//      verifies only the top-ranked predictions with real measurements.
//   3. A *persistent TuningCache* keyed by (kernel, device, problem
//      signature), serialized through the same checksummed atomic-file
//      machinery as the .kmod specialization cache, so a second process —
//      or a fleet — skips the search entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/single_flight.hpp"

namespace kspec::tune {

struct ParamRange {
  std::string name;
  std::vector<std::int64_t> values;
};

using Config = std::map<std::string, std::int64_t>;

struct Sample {
  Config config;
  double millis = 0;
};

enum class TuneStatus {
  kOk,                // best holds a measured, feasible configuration
  kNoFeasibleConfig,  // every configuration was pruned or infeasible
};

struct TuneResult {
  Config best;
  double best_millis = 0;
  std::size_t evaluated = 0;      // configurations actually measured
  std::size_t skipped = 0;        // configurations rejected by the evaluator
  std::size_t pruned_static = 0;  // configurations rejected by the pre-pass
  TuneStatus status = TuneStatus::kNoFeasibleConfig;
  std::vector<Sample> history;

  // PredictiveSearch provenance (untouched by the other searches).
  bool used_fallback = false;  // model fit was poor; descended instead
  bool cache_hit = false;      // answered from a TuningCache, zero evaluations
  double fit_r2 = 0;           // dof-adjusted R^2 of the cost model (can be < 0)

  // False when no feasible configuration exists: `best` is EMPTY and
  // `best_millis` meaningless — callers must check before indexing `best`.
  bool ok() const { return status == TuneStatus::kOk; }
};

// Evaluation callback: returns the cost (simulated ms) of a configuration,
// or throws / returns a non-finite value to mark it infeasible (occupancy
// limits, uncoverable masks, ...).
using EvalFn = std::function<double(const Config&)>;

// Static feasibility pre-pass: returns true when the configuration is known
// infeasible WITHOUT compiling or launching it. Pruned configurations are
// never passed to the evaluator and are tallied in pruned_static.
using PruneFn = std::function<bool(const Config&)>;

// Exhaustive search over the cross product of all ranges.
TuneResult GridSearch(const std::vector<ParamRange>& space, const EvalFn& eval,
                      const PruneFn& prune = {});

// Greedy coordinate descent: start from each range's first feasible value,
// then repeatedly sweep one parameter at a time until no sweep improves.
// Evaluates far fewer points than the grid on separable-ish cost surfaces.
TuneResult CoordinateDescent(const std::vector<ParamRange>& space, const EvalFn& eval,
                             int max_rounds = 4, const PruneFn& prune = {});

struct PredictiveOptions {
  PruneFn prune;           // static pre-pass applied before anything runs
  int seed_samples = 12;   // configurations measured to fit the cost model
                           // (3 tuned dims = 7 coefficients; 12 leaves the
                           // adjusted-R^2 gate real dof to judge the fit)
  int verify_top_k = 5;    // model-ranked candidates confirmed with real evals
  int max_evaluations = 0; // hard budget on measured evals; 0 = seeds + top_k
  double min_fit_r2 = 0.5; // adjusted R^2 below this = model distrusted entirely
  int fallback_max_rounds = 4;  // descent budget when falling back
};

// Model-guided search (the KLARAPTOR idea adapted to the deterministic
// simulator): measure a small stratified seed sample, fit a low-order
// per-parameter cost model (quadratic in log2 of each parameter, least
// squares on log cost), rank every unmeasured candidate by predicted cost,
// and verify only the top-k predictions with real evaluations. When the fit
// is poor (fit_r2 < min_fit_r2) or the seed sample cannot support the model,
// falls back to CoordinateDescent over the same memoized evaluations
// (used_fallback = true). Spaces no larger than the evaluation budget are
// simply measured exhaustively, making the result exact.
TuneResult PredictiveSearch(const std::vector<ParamRange>& space, const EvalFn& eval,
                            PredictiveOptions opts = {});

// Remembers tuned configurations per problem signature, so repeated problems
// skip the search entirely — mirroring the compiled-binary cache one level
// up. Optionally *persistent*: a cache constructed with a file path loads
// any previously stored entries (a missing, corrupt, truncated, or
// version-mismatched file is treated as empty, never fatal) and every
// Store() writes the merged entry set back through an atomic temp-file
// rename, so concurrent processes sharing the path never observe a torn
// file and late writers do not drop earlier writers' entries.
//
// Thread-safety contract (guaranteed): Lookup, Store, Flush, size, and
// LookupOrCompute may be called concurrently from any number of threads —
// the entry map is guarded by an internal mutex, and Flush's read-merge-write
// of the backing file runs outside that mutex (file I/O never blocks lookups)
// but is serialized against other in-process flushes so interleaved
// read-merge-write cycles cannot drop a concurrent Store's entry from disk.
// This is what lets several contexts (one per simulated device) share one
// cache: same-device contexts reuse each other's tuned entries with no
// external locking. Cross-process sharing remains safe through the atomic
// file protocol, exactly as before.
class TuningCache {
 public:
  TuningCache() = default;  // in-memory only
  explicit TuningCache(std::string path);

  // Canonical cache key: every entry is keyed by what the tuned numbers
  // depend on — the kernel/app identity, the device, and the problem
  // signature (geometry, not data).
  static std::string MakeKey(const std::string& kernel, const std::string& device,
                             const std::string& problem_signature);

  std::optional<Config> Lookup(const std::string& key) const;
  void Store(const std::string& key, Config config);
  std::size_t size() const;
  const std::string& path() const { return path_; }

  // Single-flight cache-or-search: returns the cached configuration for
  // `key`, or runs `compute` (outside every cache lock — it is typically a
  // full tuning search), stores its result, and returns it. Concurrent
  // callers racing on the same cold key run `compute` exactly once and share
  // the winner — the sharing primitive: the first caller to need a
  // (kernel, device, signature) pays the search, every other caller hits.
  // `compute` exceptions propagate to every waiter and nothing is stored.
  Config LookupOrCompute(const std::string& key, const std::function<Config()>& compute);

  // Serializes the current entries to the bound path (no-op when unbound).
  // Automatic on Store; exposed for tests and tooling. Returns false on I/O
  // failure.
  bool Flush() const;

 private:
  void LoadFromDisk();

  std::string path_;  // empty = in-memory only
  mutable std::mutex mu_;  // guards entries_
  // Serializes Flush's read-merge-write file cycle (held without mu_, so
  // file I/O never blocks Lookup/Store).
  mutable std::mutex flush_mu_;
  std::map<std::string, Config> entries_;
  // One LookupOrCompute search in progress per key; racers share its outcome.
  SingleFlight<Config> searches_;
};

}  // namespace kspec::tune
