// Counter block for the asynchronous specialization service.
//
// The executor's accounting obeys one invariant the concurrency tests assert:
// every submit (SubmitLoad, Prewarm or SubmitTask) lands in exactly one of a
// new flight (which shows up in `completed` once it finishes), `coalesced`,
// or `rejected` — so once the executor has drained,
// submitted == coalesced + completed + rejected.
//
// The same struct serves the specialization daemon (src/netd/): per-tenant
// and per-key tallies feed its admission control and hot-key telemetry, and
// ToJson() is what `kccc --stats` ships over the wire.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace kspec::vcuda {
struct CacheStats;
}

namespace kspec::serve {

// Upper edges (exclusive) of the compile-wall-time histogram buckets, in
// milliseconds; a final open-ended bucket catches everything beyond.
inline constexpr std::array<double, 6> kCompileMsBucketUpper = {1, 10, 50, 100, 250, 500};
inline constexpr std::size_t kCompileMsBuckets = kCompileMsBucketUpper.size() + 1;

struct ServeStats {
  std::uint64_t submitted = 0;  // every submit call
  std::uint64_t coalesced = 0;  // joined a same-key flight in progress
  std::uint64_t completed = 0;  // flights finished: succeeded + failed + expired
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;     // compile or task threw; waiters rethrow on get()
  std::uint64_t expired = 0;    // deadline passed while queued; null result
  std::uint64_t rejected = 0;   // bounded queue full at submit time
  // Submissions that came in through Prewarm (warm-up of a context's cache
  // ahead of traffic). A side tally: every prewarm is also
  // counted in submitted/coalesced/rejected, so the invariant above holds
  // unchanged.
  std::uint64_t prewarmed = 0;
  // Demand submissions that coalesced onto a flight Prewarm originated: the
  // prewarm landed before (or while) traffic wanted the key, which is the
  // telemetry the daemon's hot-key predictor is scored on.
  std::uint64_t prewarm_hits = 0;
  // Daemon-level tallies (the executor itself never sets these; the daemon
  // copies its executor's stats and fills them in from its own accounting):
  // coalesced flights whose joiner belonged to a different tenant/process
  // than the flight's originator, and submissions parked or bounced by
  // per-tenant admission control.
  std::uint64_t cross_process_coalesced = 0;
  std::uint64_t throttled = 0;
  std::size_t queue_depth_high_water = 0;

  // Wall time of each flight's LoadModule call (a cache hit lands in the
  // lowest bucket, a cold compile in the hundreds-of-ms ones).
  std::array<std::uint64_t, kCompileMsBuckets> compile_ms_hist{};
  double compile_millis_total = 0;

  struct TenantCounters {
    std::uint64_t submitted = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t rejected = 0;
    std::uint64_t throttled = 0;
  };
  // Keyed by CompileRequest::tenant ("" = anonymous local callers).
  std::map<std::string, TenantCounters> tenants;

  // Submissions per specialization key, keyed by the key's hash id
  // ("k%016llx", matching the artifact file stem). std::map keeps the JSON
  // and rendered output deterministic.
  std::map<std::string, std::uint64_t> key_requests;

  void RecordCompileMillis(double ms);

  // Multi-line human-readable block for benches and kccc --jobs.
  std::string Render() const;

  // Single-line JSON object carrying every counter, the histogram, and the
  // per-tenant / per-key maps; what the daemon answers kStatsReq with.
  std::string ToJson() const;
};

// The service report benches and kccc print after a drain: the ServeStats
// block plus the owning context's cache counters on one extra line. One
// implementation so bench_serve, bench_netd, and kccc stay in sync.
std::string RenderServiceReport(const ServeStats& stats, const vcuda::CacheStats& cache);

}  // namespace kspec::serve
