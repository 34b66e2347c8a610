#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <thread>

#include "jobs.hpp"
#include "native/build.hpp"
#include "native/engine.hpp"
#include "probes.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "trace.hpp"
#include "vgpu/device.hpp"

namespace kbench {

namespace fs = std::filesystem;
using namespace kspec;
using vgpu::ExecutionTier;

namespace {

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class Kind {
  kRespec,   // a specialization no cache holds yet
  kWarm,     // every module (and artifact) resident
  kRestart,  // a fresh Context (and engine) over the workload's persistent state
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRespec: return "respec";
    case Kind::kWarm: return "warm";
    case Kind::kRestart: return "restart";
  }
  return "?";
}

struct Request {
  Kind kind;
  int target;  // job index, or time-to-native module index on `native`
};

// Each workload's request cycle and deterministic window: the first requests
// of its sequence, over which sim_ms_mean and the per-layer counts are taken.
// A run always completes them, so those numbers depend on the seed alone. On
// respecialize the window is twelve cycles: jobs 0-35 issued, 0-23 re-issued
// warm and 0-11 restarted, whole catalogue blocks; on steady it is one cycle,
// on native two.
constexpr std::size_t kRespecializeCycle = 6;
constexpr std::size_t kRespecializeWindow = 72;
constexpr std::size_t kJobBlock = 12;  // respecialize jobs per catalogue block
constexpr std::size_t kSteadyCycle = 8;
constexpr std::size_t kNativeCycle = 7;
constexpr std::size_t kNativeWindow = 2 * kNativeCycle;

// Set-ups per run on respecialize and steady; setup_s is their median. A
// steady set-up also gives a respec sample, so it has more. (The native
// set-up, fourteen host compiles or 35-60 s, runs once.)
constexpr int kRespecializeSetups = 9;
constexpr int kSteadySetups = 11;

vgpu::DeviceProfile Device() { return vgpu::TeslaC2070(); }

// The vgpu pool: one worker per host core but one, which the client thread
// keeps. Using every core made timings track whatever else the host ran.
unsigned HostWorkers() { return std::max(2u, std::thread::hardware_concurrency()) - 1; }

// Default (auto) execution policy with the pool size pinned.
void Configure(vcuda::Context& ctx, ExecutionTier tier) {
  ctx.set_tier_policy(tier);
  ctx.set_exec_policy(vgpu::ExecPolicy{vgpu::ExecMode::kAuto, HostWorkers()});
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.NextInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

// ---------------------------------------------------------------------------
// Job catalogues
// ---------------------------------------------------------------------------

// Orders cases so that every round of `strata.size()` consecutive picks holds
// one case of each stratum: each round visits the strata in a fresh seeded
// order, and each stratum yields its next case (cases shuffled within it).
template <typename Case>
std::vector<Case> Stratified(std::vector<std::vector<Case>> strata, Rng& rng) {
  std::size_t rounds = strata.front().size();
  for (auto& cases : strata) {
    Shuffle(cases, rng);
    rounds = std::min(rounds, cases.size());
  }
  std::vector<std::size_t> order(strata.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::vector<Case> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    Shuffle(order, rng);
    for (std::size_t k : order) out.push_back(strata[k][r]);
  }
  return out;
}

// respecialize: small problems, every app specialized (SK). The catalogue of
// cases is the same for every seed: each app's parameters are grouped into
// strata by what drives their compile and run cost (tile shape; PIV variant,
// search range and block size; backprojection depth, z blocking and texture
// path; row-filter border), and a fixed shuffle takes them in stratified order,
// so any block of kJobBlock consecutive jobs holds a like mix of costs. The
// seed permutes the jobs within each block and picks the input data: every
// block holds the same jobs whatever the seed, so a seed changes the order,
// not the work.
//
// No stage's specialization key repeats across the catalogue, so every job
// is first seen (the run fails a respec request that hits a cache). Matching's
// window-statistics and score stages are keyed by the shift range and block
// size alone, so each (shift, threads) pair goes to one tile shape only; the
// row filter's key ignores the block size, so its cases differ in the anchor.
std::vector<JobSpec> RespecializeJobs(std::uint64_t seed, std::size_t count) {
  Rng catalogue(0x5eed0fca7a1091eull);

  std::vector<MatchingCase> shifts;
  for (int sh = 4; sh <= 15; ++sh)
    for (int sw = 4; sw <= 15; ++sw)
      for (int threads : {32, 64}) {
        MatchingCase c;
        c.tpl_h = c.tpl_w = 16;
        c.shift_h = sh;
        c.shift_w = sw;
        c.cfg.threads = threads;
        shifts.push_back(c);
      }
  Shuffle(shifts, catalogue);
  std::vector<std::vector<MatchingCase>> matching(4);
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    const std::size_t tile = i % matching.size();
    MatchingCase c = shifts[i];
    c.cfg.tile_h = tile & 1 ? 8 : 4;
    c.cfg.tile_w = tile & 2 ? 8 : 4;
    matching[tile].push_back(c);
  }

  std::vector<std::vector<PivCase>> piv;
  for (auto variant : {apps::piv::Variant::kBasic, apps::piv::Variant::kWarpSpec,
                       apps::piv::Variant::kMultiMask})
    for (int range = 1; range <= 3; ++range)
      for (int threads : {64, 128}) {
        piv.emplace_back();
        for (int mask = 8; mask <= 23; ++mask) {
          PivCase c;
          c.img = 96;
          c.mask = mask;
          c.range = range;
          c.stride = mask;
          c.cfg.threads = threads;
          c.cfg.variant = variant;
          piv.back().push_back(c);
        }
      }

  std::vector<std::vector<BackprojCase>> backproj;
  for (int vol_z : {8, 12})
    for (int zpt : {1, 2, 4})
      for (bool tex : {false, true}) {
        backproj.emplace_back();
        for (int angles = 6; angles <= 11; ++angles)
          for (int threads : {32, 64, 96, 128, 160}) {
            BackprojCase c;
            c.geo.vol_n = 32;
            c.geo.vol_z = vol_z;
            c.geo.det_u = 48;
            c.geo.det_v = 32;
            c.geo.n_angles = angles;
            c.cfg.threads = threads;
            c.cfg.zpt = zpt;
            c.cfg.use_texture = tex;
            backproj.back().push_back(c);
          }
      }

  std::vector<std::vector<RowFilterCase>> rowfilter(3);
  for (int border = 0; border < 3; ++border)
    for (int ksize = 3; ksize <= 32; ++ksize)
      for (int anchor = 0; anchor < std::min(ksize, 4); ++anchor) {
        RowFilterCase c;
        c.w = 512;
        c.h = 128;
        c.ksize = ksize;
        c.anchor = anchor;
        c.border = static_cast<apps::rowfilter::Border>(border);
        c.cfg.threads = 32 << anchor;
        rowfilter[static_cast<std::size_t>(border)].push_back(c);
      }

  const auto m = Stratified(std::move(matching), catalogue);
  const auto p = Stratified(std::move(piv), catalogue);
  const auto b = Stratified(std::move(backproj), catalogue);
  const auto r = Stratified(std::move(rowfilter), catalogue);
  count = std::min({count, m.size(), p.size(), b.size(), r.size()});
  count -= count % kJobBlock;
  std::vector<JobSpec> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].matching = m[i];
    jobs[i].piv = p[i];
    jobs[i].backproj = b[i];
    jobs[i].rowfilter = r[i];
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  for (std::size_t lo = 0; lo < count; lo += kJobBlock) {
    std::vector<JobSpec> block(jobs.begin() + static_cast<std::ptrdiff_t>(lo),
                               jobs.begin() + static_cast<std::ptrdiff_t>(lo + kJobBlock));
    Shuffle(block, rng);
    std::copy(block.begin(), block.end(), jobs.begin() + static_cast<std::ptrdiff_t>(lo));
  }
  for (std::size_t i = 0; i < count; ++i) jobs[i].data_seed = seed * 1000003 + i;
  return jobs;
}

// The bench_native problem sizes.
JobSpec BenchSizes(std::uint64_t seed) {
  JobSpec j;
  j.matching.tpl_h = 32;
  j.matching.tpl_w = 24;
  j.matching.shift_h = j.matching.shift_w = 32;
  j.matching.cfg.tile_h = j.matching.cfg.tile_w = 8;
  j.piv.img = 192;
  j.piv.mask = 16;
  j.piv.range = 4;
  j.piv.stride = 12;
  j.piv.cfg.variant = apps::piv::Variant::kWarpSpec;
  j.piv.cfg.threads = 64;
  j.backproj.geo.vol_n = 64;
  j.backproj.geo.vol_z = 12;
  j.backproj.geo.det_u = 32;
  j.backproj.geo.det_v = 24;
  j.backproj.geo.n_angles = 12;
  j.backproj.blobs = 3;
  j.backproj.cfg.threads = 64;
  j.rowfilter.w = 512;
  j.rowfilter.h = 192;
  j.rowfilter.ksize = 9;
  j.data_seed = seed * 1000003;
  return j;
}

// steady: every app specialized at the bench sizes; the seed picks the input
// data and the row filter's width and border (a few percent of the work).
JobSpec SteadyJob(std::uint64_t seed) {
  JobSpec j = BenchSizes(seed);
  Rng rng(seed * 0x2545f4914f6cdd1dull + 5);
  j.rowfilter.ksize = 7 + 2 * static_cast<int>(rng.NextInt(0, 2));
  j.rowfilter.border = static_cast<apps::rowfilter::Border>(rng.NextInt(0, 2));
  return j;
}

// native: the bench_native configurations. Matching and backprojection stay
// run-time evaluated: their SK translation units take minutes to compile.
JobSpec NativeJob(std::uint64_t seed) {
  JobSpec j = BenchSizes(seed);
  j.matching.cfg.specialize = false;
  j.backproj.cfg.specialize = false;
  return j;
}

// ---------------------------------------------------------------------------
// Request sequences
// ---------------------------------------------------------------------------

// respecialize: cycles of [respec, warm, respec, warm, respec, restart]. The
// n-th warm request re-issues job n on the client's context (every module
// resident); the n-th restart re-issues job n in a fresh context with no
// cache directory, so it recompiles. Re-issuing in issue order makes the warm
// and restart classes of whole catalogue blocks, like the jobs themselves.
std::vector<Request> RespecializeSequence(std::size_t jobs) {
  static const Kind kCycle[] = {Kind::kRespec, Kind::kWarm, Kind::kRespec,
                                Kind::kWarm,   Kind::kRespec, Kind::kRestart};
  std::vector<Request> seq;
  int issued = 0, warm = 0, restarts = 0;
  for (std::size_t i = 0; static_cast<std::size_t>(issued) < jobs; ++i) {
    const Kind kind = kCycle[i % kRespecializeCycle];
    const int target =
        kind == Kind::kRespec ? issued++ : kind == Kind::kWarm ? warm++ : restarts++;
    seq.push_back({kind, target});
  }
  return seq;
}

// steady: cycles of seven warm requests and one restart over the .kmod cache
// directory the setup filled (disk loads and decode, no compile).
std::vector<Request> SteadySequence(std::size_t length) {
  std::vector<Request> seq;
  for (std::size_t i = 0; i < length; ++i) {
    seq.push_back({i % kSteadyCycle == kSteadyCycle - 1 ? Kind::kRestart : Kind::kWarm, 0});
  }
  return seq;
}

// native: cycles of a time-to-native request and three pairs of a restart and
// a warm request. Each time-to-native request takes the next fresh module. Its
// host compile is most of a cycle's time, so the cycle is kept short to fit
// as many of them into a run as it can; restarts and warm requests, tens of
// ms each, share the rest equally.
std::vector<Request> NativeSequence(std::size_t modules) {
  std::vector<Request> seq;
  for (std::size_t m = 0; m < modules; ++m) {
    seq.push_back({Kind::kRespec, static_cast<int>(m)});
    for (int r = 0; r < 3; ++r) {
      seq.push_back({Kind::kRestart, 0});
      seq.push_back({Kind::kWarm, 0});
    }
  }
  return seq;
}

// ---------------------------------------------------------------------------
// Time-to-native modules
// ---------------------------------------------------------------------------

constexpr const char* kTtnSource = R"(
__kernel void ttn(float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = (float)(i % K_MOD) * K_SCALE;
    for (int k = 0; k < K_ITERS; k++) {
      x = x * 0.5f + K_ADD;
    }
    out[i] = x;
  }
}
)";

constexpr int kTtnN = 4096;
constexpr unsigned kTtnBlock = 128;

struct TtnModule {
  kcc::CompileOptions opts;
  int mod = 0, iters = 0;
  float scale = 0, add = 0;
  std::vector<float> expected;       // CPU reference
  vgpu::LaunchStats decoded_stats;   // the decoded run, recorded in setup
};

TtnModule MakeTtnModule(std::uint64_t seed, int index) {
  Rng rng(seed * 0x94d049bb133111ebull + static_cast<std::uint64_t>(index));
  TtnModule m;
  // The index makes every module's key distinct within a run.
  m.mod = 97 + index;
  m.iters = 3 + static_cast<int>(rng.NextInt(0, 3));
  m.scale = 0.125f * static_cast<float>(rng.NextInt(1, 8));
  m.add = 0.25f * static_cast<float>(rng.NextInt(1, 8));
  m.opts.defines = {{"K_MOD", std::to_string(m.mod)},
                    {"K_ITERS", std::to_string(m.iters)},
                    {"K_SCALE", Format("%.3ff", m.scale)},
                    {"K_ADD", Format("%.2ff", m.add)}};
  m.expected.resize(kTtnN);
  for (int i = 0; i < kTtnN; ++i) {
    float x = static_cast<float>(i % m.mod) * m.scale;
    for (int k = 0; k < m.iters; ++k) x = x * 0.5f + m.add;
    m.expected[static_cast<std::size_t>(i)] = x;
  }
  return m;
}

struct TtnOutcome {
  double ms = 0;
  vgpu::LaunchStats stats;
  vcuda::LaunchExecution exec;
  bool ok = true;
  std::string error;
};

// Loads (kcc) and launches the module once on `ctx`, then verifies it.
TtnOutcome RunTtn(vcuda::Context& ctx, const TtnModule& m, bool check_stats, Tracer* tracer) {
  Tracer untraced(false);
  if (!tracer) tracer = &untraced;
  TtnOutcome out;
  const auto t0 = Clock::now();
  try {
    std::vector<float> got;
    {
      auto span = tracer->Open("apps.ttn");
      auto mod = ctx.LoadModule(kTtnSource, m.opts);
      vcuda::TypedBuffer<float> d_out(ctx, kTtnN);
      vcuda::ArgPack args;
      args.Ptr(d_out.get()).Int(kTtnN);
      out.stats = ctx.Launch(*mod, "ttn", vgpu::Dim3(kTtnN / kTtnBlock), vgpu::Dim3(kTtnBlock),
                             args, 0, &out.exec);
      got = d_out.Download();
    }
    auto span = tracer->Open("verify.ttn");
    for (std::size_t i = 0; i < got.size() && out.ok; ++i) {
      const float want = m.expected[i];
      if (!(std::fabs(got[i] - want) <= 1e-5f * (1.0f + std::fabs(want)))) {
        out.ok = false;
        out.error = Format("ttn: value %zu is %g, CPU reference %g", i, got[i], want);
      }
    }
    if (out.ok && check_stats && !vgpu::StatsBitIdentical(out.stats, m.decoded_stats)) {
      out.ok = false;
      out.error = "ttn: LaunchStats differ from the decoded run of the same module";
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = std::string("ttn: ") + e.what();
  }
  out.ms = MsSince(t0);
  return out;
}

// ---------------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------------

vcuda::CacheStats Delta(const vcuda::CacheStats& after, const vcuda::CacheStats& before) {
  vcuda::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.disk_hits = after.disk_hits - before.disk_hits;
  return d;
}

// What one request did, as the run's accounting needs it.
struct Served {
  Kind kind = Kind::kWarm;
  double ms = 0;
  bool ok = true;
  std::string error;
  double sim_ms = 0;
  const JobOutcome* job = nullptr;  // null for a time-to-native request
  std::size_t launches = 0, launches_decoded = 0, launches_native = 0, native_shape = 0,
              fallbacks = 0;
  std::uint64_t warp_instrs = 0;
  vcuda::CacheStats cache;           // delta over the contexts the request used
  native::NativeEngineStats engine;  // delta over the engines the request used
};

Served FromJob(Kind kind, const JobOutcome& o) {
  Served s;
  s.kind = kind;
  s.ms = o.total_ms;
  s.ok = o.ok;
  s.error = o.error;
  s.sim_ms = o.sim_ms;
  s.job = &o;
  s.launches_decoded = o.Launches(ExecutionTier::kDecoded);
  s.launches_native = o.Launches(ExecutionTier::kNative);
  s.launches = s.launches_decoded + s.launches_native + o.Launches(ExecutionTier::kInterp);
  s.native_shape = o.NativeShapeLaunches();
  s.fallbacks = o.NativeFallbacks();
  s.warp_instrs = o.WarpInstrs();
  return s;
}

native::NativeEngineStats EngineDelta(const native::NativeEngineStats& a,
                                      const native::NativeEngineStats& b) {
  native::NativeEngineStats d;
  d.builds_started = a.builds_started - b.builds_started;
  d.shape_builds_started = a.shape_builds_started - b.shape_builds_started;
  d.served_launches = a.served_launches - b.served_launches;
  d.shape_served_launches = a.shape_served_launches - b.shape_served_launches;
  d.fallbacks = a.fallbacks - b.fallbacks;
  d.memory_hits = a.memory_hits - b.memory_hits;
  d.shape_memory_hits = a.shape_memory_hits - b.shape_memory_hits;
  d.disk_hits = a.disk_hits - b.disk_hits;
  d.shape_disk_hits = a.shape_disk_hits - b.shape_disk_hits;
  return d;
}

class Run {
 public:
  explicit Run(const RunOptions& opts) : opts_(opts), tracer_(opts.trace) {}

  Tracer* tracer() { return &tracer_; }
  bool traced() const { return opts_.trace; }

  // A fresh, empty directory under the run's work directory.
  std::string NewDir(const std::string& name) {
    const fs::path dir = fs::path(opts_.work_dir) / Format("%s-%zu", name.c_str(), dirs_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  void AddSetup(double seconds) { setup_s_.Add(seconds); }
  void AddRespec(double ms) { respec_.Add(ms); }

  // The measured loop: issues `seq` in order until --seconds of measured time
  // have passed and the deterministic window is complete, stopping only
  // between cycles of `cycle` requests so that every run holds the classes in
  // the same proportion (a cheap class cut short, or a costly one just
  // begun, would move requests_per_s). `prepare` readies a request's inputs
  // and `serve` runs it; the time of the one and of traced-run probes is
  // excluded from the measured clock.
  template <typename Prepare, typename Serve>
  void Loop(const std::vector<Request>& seq, std::size_t window, std::size_t cycle,
            Prepare&& prepare, Serve&& serve) {
    window_ = std::min(window, seq.size());
    std::cerr << Format("# resident at the first request: %.1f MiB (peak %.1f MiB)\n",
                        ResidentMb(), PeakRssMb());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (i >= window_ && i % cycle == 0 && MsSince(t0) - excluded_ms_ >= opts_.seconds * 1e3) {
        break;
      }
      const auto p0 = Clock::now();
      prepare(seq[i]);
      excluded_ms_ += MsSince(p0);
      tracer_.set_request(i + 1);
      Served s;
      {
        auto span = tracer_.Open(std::string("request.") + KindName(seq[i].kind));
        s = serve(seq[i]);
      }
      Account(s, i < window_);
      // Taken over a fixed amount of work: a faster build completes more
      // requests (and caches more modules) in --seconds.
      if (i + 1 == window_) window_rss_mb_ = PeakRssMb();
      if (traced()) {
        const auto p1 = Clock::now();
        Probe(i < window_, s);
        excluded_ms_ += MsSince(p1);
      }
    }
    measured_ms_ = MsSince(t0) - excluded_ms_;
    if (requests_ == 0) error_ = "no request completed";
  }

  // Traced runs: artifacts to discover after each request.
  void WatchDir(const std::string& dir) { watched_.push_back(dir); }
  // Marks what `dir` already holds as setup artifacts (not replayed).
  void AdoptSetupArtifacts(const std::string& dir) {
    for (CompiledArtifact& a : watcher_.Collect(dir)) setup_arts_.push_back(std::move(a));
  }
  void set_replay_native(bool on) { replay_native_ = on; }
  void set_setup_builds(const native::NativeEngineStats& s) { setup_builds_ = s; }

  RunReport Finish(const std::string& probe_dir);

  void Fail(const std::string& error) {
    if (error_.empty()) error_ = error;
  }

 private:
  void Account(const Served& s, bool in_window);
  void Probe(bool in_window, const Served& s);

  const RunOptions& opts_;
  Tracer tracer_;
  std::size_t dirs_ = 0;
  std::string error_;

  Samples setup_s_, respec_, restart_, warm_;
  Samples app_warm_[kAppCount];
  std::uint64_t attempted_ = 0, failed_ = 0, requests_ = 0;
  double measured_ms_ = 0, excluded_ms_ = 0;
  double window_rss_mb_ = 0;  // peak resident set when the window completed

  // Sums over every measured job request.
  double launch_ms_ = 0, compile_ms_ = 0, transfer_ms_ = 0, driver_ms_ = 0;
  std::uint64_t job_requests_ = 0, warp_instrs_all_ = 0;

  // Deterministic window.
  std::size_t window_ = 0;
  double w_sim_ = 0;
  std::uint64_t w_requests_ = 0, w_launches_ = 0, w_decoded_ = 0, w_native_ = 0,
                w_shape_ = 0, w_fallbacks_ = 0, w_warp_ = 0;
  vcuda::CacheStats w_cache_;
  native::NativeEngineStats w_engine_, setup_builds_;
  std::uint64_t w_compiles_ = 0, w_instrs_ = 0, w_folded_ = 0, w_strength_ = 0;
  double w_tu_kb_ = 0;
  std::uint64_t w_tus_ = 0;

  // Traced-run probes.
  ArtifactWatcher watcher_;
  std::vector<std::string> watched_;
  std::vector<CompiledArtifact> setup_arts_, measured_arts_;
  PhaseMs phases_;
  std::uint64_t replayed_ = 0;
  bool replay_native_ = false;
  NativeBuildMs native_ms_;
  std::uint64_t native_replays_ = 0;
};

void Run::Account(const Served& s, bool in_window) {
  ++attempted_;
  if (s.ok) {
    // Per request class, for the shares Finish reports.
    const std::string kind = KindName(s.kind);
    tracer_.Count("requests." + kind, 1);
    tracer_.Count("request_ms." + kind, s.ms);
    if (s.job) tracer_.Count("launch_ms." + kind, s.job->LaunchMs());
  }
  if (!s.ok) {
    ++failed_;
    std::cerr << "FAILED request " << attempted_ << " (" << KindName(s.kind) << "): " << s.error
              << "\n";
  } else {
    ++requests_;
    Samples& cls = s.kind == Kind::kRespec ? respec_ : s.kind == Kind::kWarm ? warm_ : restart_;
    cls.Add(s.ms);
    if (s.job) {
      const JobOutcome& o = *s.job;
      ++job_requests_;
      launch_ms_ += o.LaunchMs();
      compile_ms_ += o.CompileMs();
      transfer_ms_ += o.TransferMs();
      // The kcc time spent inside the calls is taken off again when the
      // traced run replays this request's compiles (Probe).
      double calls = 0;
      for (const AppOutcome& a : o.apps) calls += a.call_ms;
      driver_ms_ += calls - o.LaunchMs();
      if (s.kind == Kind::kWarm) {
        for (int app = 0; app < kAppCount; ++app) {
          app_warm_[app].Add(o.apps[app].call_ms + o.apps[app].verify_ms);
        }
      }
    }
    warp_instrs_all_ += s.warp_instrs;
  }
  if (!in_window) return;
  ++w_requests_;
  w_sim_ += s.sim_ms;
  w_launches_ += s.launches;
  w_decoded_ += s.launches_decoded;
  w_native_ += s.launches_native;
  w_shape_ += s.native_shape;
  w_fallbacks_ += s.fallbacks;
  w_warp_ += s.warp_instrs;
  w_cache_.hits += s.cache.hits;
  w_cache_.misses += s.cache.misses;
  w_cache_.disk_hits += s.cache.disk_hits;
  native::NativeEngineStats& e = w_engine_;
  e.builds_started += s.engine.builds_started;
  e.shape_builds_started += s.engine.shape_builds_started;
  e.served_launches += s.engine.served_launches;
  e.shape_served_launches += s.engine.shape_served_launches;
  e.fallbacks += s.engine.fallbacks;
  e.memory_hits += s.engine.memory_hits + s.engine.shape_memory_hits;
  e.disk_hits += s.engine.disk_hits + s.engine.shape_disk_hits;
}

void Run::Probe(bool in_window, const Served& s) {
  auto span = tracer_.Open("probe");
  const std::string kind = KindName(s.kind);
  for (const std::string& dir : watched_) {
    for (CompiledArtifact& art : watcher_.Collect(dir)) {
      std::string error;
      const double kcc_before = phases_.Total();
      if (!ReplayCompile(art, &tracer_, &phases_, &error)) Fail(error);
      const double kcc_ms = phases_.Total() - kcc_before;
      if (s.job) driver_ms_ -= kcc_ms;
      tracer_.Count("kcc_ms." + kind, kcc_ms);
      ++replayed_;
      if (in_window) {
        ++w_compiles_;
        for (const vgpu::CompiledKernel& k : art.module->kernels) {
          w_instrs_ += static_cast<std::uint64_t>(k.stats.static_instrs);
          w_folded_ += static_cast<std::uint64_t>(k.stats.folded_consts);
          w_strength_ += static_cast<std::uint64_t>(k.stats.strength_reduced);
        }
      }
      if (replay_native_) {
        NativeBuildMs one;
        if (!ReplayNativeBuild(art, &tracer_, &one, &error)) Fail("native replay: " + error);
        tracer_.Count("native_cc_ms." + kind, one.cc_ms);
        native_ms_.emit_ms += one.emit_ms;
        native_ms_.cc_ms += one.cc_ms;
        native_ms_.so_kb += one.so_kb;
        native_ms_.tu_kb += one.tu_kb;
        ++native_replays_;
        if (in_window) {
          w_tu_kb_ += one.tu_kb;
          ++w_tus_;
        }
      }
      measured_arts_.push_back(std::move(art));
    }
  }
}

RunReport Run::Finish(const std::string& probe_dir) {
  RunReport rep;
  rep.attempted = attempted_;
  rep.failed = failed_;
  Result& r = rep.result;
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double reqs = static_cast<double>(requests_);

  if (!opts_.trace) {
    r.Set("respec_ms_p50", respec_.Median(), "ms");
    r.Set("restart_ms_p50", restart_.Median(), "ms");
    r.Set("warm_ms_p50", warm_.Median(), "ms");
    r.Set("requests_per_s", per(reqs, measured_ms_ / 1e3), "1/s");
    r.Set("sim_ms_mean", per(w_sim_, static_cast<double>(w_requests_)), "ms");
    r.Set("setup_s", setup_s_.Median(), "s");
    r.Set("peak_rss_mb", window_rss_mb_, "MiB");
    std::cerr << Format(
        "# samples: respec %zu, restart %zu, warm %zu; measured %.2f s over %llu requests\n",
        respec_.size(), restart_.size(), warm_.size(), measured_ms_ / 1e3,
        static_cast<unsigned long long>(requests_));
  } else {
    std::vector<CompiledArtifact> all = setup_arts_;
    all.insert(all.end(), measured_arts_.begin(), measured_arts_.end());
    const double n = static_cast<double>(replayed_);
    r.Set("kcc.preprocess_ms", per(phases_.preprocess, n), "ms");
    r.Set("kcc.parse_ms", per(phases_.parse, n), "ms");
    r.Set("kcc.sema_ms", per(phases_.sema, n), "ms");
    r.Set("kcc.unroll_ms", per(phases_.unroll, n), "ms");
    r.Set("kcc.lower_ms", per(phases_.lower, n), "ms");
    r.Set("kcc.optimize_ms", per(phases_.optimize, n), "ms");
    r.Set("kcc.regalloc_ms", per(phases_.regalloc, n), "ms");
    r.Set("kcc.listing_ms", per(phases_.listing, n), "ms");
    r.Set("kcc.ms_per_request", per(phases_.Total(), reqs), "ms");
    r.Set("kcc.compiles", static_cast<double>(w_compiles_), "count");
    r.Set("kcc.miniptx_instrs", static_cast<double>(w_instrs_), "count");
    r.Set("kcc.folded_consts", static_cast<double>(w_folded_), "count");
    r.Set("kcc.strength_reduced", static_cast<double>(w_strength_), "count");

    const double lookups =
        static_cast<double>(w_cache_.hits + w_cache_.misses + w_cache_.disk_hits);
    r.Set("vcuda.cache_hits", static_cast<double>(w_cache_.hits), "count");
    r.Set("vcuda.cache_misses", static_cast<double>(w_cache_.misses), "count");
    r.Set("vcuda.disk_hits", static_cast<double>(w_cache_.disk_hits), "count");
    r.Set("vcuda.hit_ratio", per(static_cast<double>(w_cache_.hits), lookups), "ratio");
    const LoadProbeMs loads = ProbeModuleLoads(all, probe_dir, Device(), &tracer_);
    r.Set("vcuda.load_hit_ms", loads.hit_ms, "ms");
    r.Set("vcuda.disk_load_ms", loads.disk_ms, "ms");

    r.Set("vgpu.decode_ms", MeanDecodeMs(all, Device(), &tracer_), "ms");
    r.Set("vgpu.launches", static_cast<double>(w_launches_), "count");
    r.Set("vgpu.warp_instrs", static_cast<double>(w_warp_), "count");
    r.Set("vgpu.ns_per_warp_instr",
          per(launch_ms_ * 1e6, static_cast<double>(warp_instrs_all_)), "ns");

    const double jobs = static_cast<double>(job_requests_);
    r.Set("launch.launch_ms", per(launch_ms_, jobs), "ms");
    r.Set("launch.compile_ms", per(compile_ms_, jobs), "ms");
    r.Set("launch.transfer_ms", per(transfer_ms_, jobs), "ms");
    r.Set("launch.driver_ms", per(driver_ms_, jobs), "ms");
    r.Set("launch.tier_decoded", static_cast<double>(w_decoded_), "count");
    r.Set("launch.tier_native", static_cast<double>(w_native_), "count");
    r.Set("launch.tier_native_shape", static_cast<double>(w_shape_), "count");
    r.Set("launch.native_fallbacks", static_cast<double>(w_fallbacks_), "count");

    const double nr = static_cast<double>(native_replays_);
    r.Set("native.emit_ms", per(native_ms_.emit_ms, nr), "ms");
    r.Set("native.tu_kb", per(w_tu_kb_, static_cast<double>(w_tus_)), "KiB");
    r.Set("native.cc_ms", per(native_ms_.cc_ms, nr), "ms");
    r.Set("native.so_kb", per(native_ms_.so_kb, nr), "KiB");
    r.Set("native.builds",
          static_cast<double>(setup_builds_.builds_started + w_engine_.builds_started),
          "count");
    r.Set("native.shape_builds",
          static_cast<double>(setup_builds_.shape_builds_started +
                              w_engine_.shape_builds_started),
          "count");
    r.Set("native.load_ms", MeanNativeLoadMs(all, probe_dir, &tracer_), "ms");
    r.Set("native.disk_hits", static_cast<double>(w_engine_.disk_hits), "count");
    r.Set("native.memory_hits", static_cast<double>(w_engine_.memory_hits), "count");
    r.Set("native.shape_served", static_cast<double>(w_engine_.shape_served_launches),
          "count");
    r.Set("native.fallbacks", static_cast<double>(w_engine_.fallbacks), "count");

    for (int app = 0; app < kAppCount; ++app) {
      r.Set(std::string("apps.") + AppName(app) + ".warm_ms_p50", app_warm_[app].Median(), "ms");
    }
    r.Set("trace.requests_per_s", per(reqs, measured_ms_ / 1e3), "1/s");

    // The split each workload was chosen for: the part of each request
    // class's time spent in kcc (replayed), in Launch, and in the host
    // compiler (replayed).
    const auto& c = tracer_.counters();
    auto share = [&](const std::string& part, const std::string& kind) {
      auto p = c.find(part + "." + kind);
      auto t = c.find("request_ms." + kind);
      return p == c.end() || t == c.end() || t->second <= 0 ? 0.0 : p->second / t->second;
    };
    for (const char* kind : {"respec", "warm", "restart"}) {
      std::cerr << Format("# share of %s time: kcc %.1f%%, launch %.1f%%, host cc %.1f%%\n",
                          kind, 100 * share("kcc_ms", kind), 100 * share("launch_ms", kind),
                          100 * share("native_cc_ms", kind));
    }
    for (const auto& [layer, ms] : tracer_.LayerSelfMs()) {
      std::cerr << Format("# self time %-8s %10.1f ms\n", layer.c_str(), ms);
    }
    if (!tracer_.WriteJson(opts_.trace_path, opts_.host_json)) {
      Fail("cannot write trace file " + opts_.trace_path);
    }
  }
  rep.error = error_;
  return rep;
}

bool PlanDecoded(const Served& s, std::string* error) {
  if (s.launches_decoded != s.launches || s.fallbacks != 0) {
    *error = Format("plan: %zu of %zu launches served decoded, %zu fallbacks",
                    s.launches_decoded, s.launches, s.fallbacks);
    return false;
  }
  return true;
}

bool PlanNative(const Served& s, std::string* error) {
  if (s.launches_native != s.launches || s.fallbacks != 0 || s.engine.fallbacks != 0) {
    *error = Format("plan: %zu of %zu launches served native, %zu fallbacks",
                    s.launches_native, s.launches, s.fallbacks);
    return false;
  }
  return true;
}

void CheckPlan(Served& s, bool (*plan)(const Served&, std::string*)) {
  std::string error;
  if (s.ok && !plan(s, &error)) {
    s.ok = false;
    s.error = error;
  }
}

int CpuThreads() { return static_cast<int>(std::min(4u, HostWorkers())); }

// ---------------------------------------------------------------------------
// respecialize
// ---------------------------------------------------------------------------

RunReport Respecialize(const RunOptions& opts) {
  Run run(opts);
  // The whole catalogue is issued if the run lasts long enough (a much faster
  // host exhausts it and ends early). Each setup pass prepares the inputs and
  // CPU references of the jobs the deterministic window issues; later jobs
  // are prepared when first issued, outside the measured clock, and every job
  // is dropped after its restart, the last request that re-issues it. When
  // the window completes and peak_rss_mb is read, 24 jobs are resident, so
  // the figure is mostly the program's, not the harness's inputs.
  std::vector<JobSpec> specs;
  std::vector<std::shared_ptr<PreparedJob>> jobs;
  for (int pass = 0; pass < kRespecializeSetups; ++pass) {
    const auto t0 = Clock::now();
    specs = RespecializeJobs(opts.seed, SIZE_MAX);
    jobs.assign(specs.size(), nullptr);
    for (std::size_t j = 0; j < kRespecializeWindow / 2; ++j) {
      jobs[j] = Prepare(specs[j], CpuThreads());
    }
    run.AddSetup(MsSince(t0) / 1e3);
  }

  // Traced runs give every context a cache directory so the compiles it ran
  // can be discovered and replayed; untraced runs use none.
  vcuda::Context client(Device());
  Configure(client, ExecutionTier::kDecoded);
  const std::string client_dir = opts.trace ? run.NewDir("client") : "";
  if (opts.trace) {
    client.set_cache_dir(client_dir);
    run.WatchDir(client_dir);
  }

  JobOutcome outcome;
  auto prepare = [&](const Request& req) {
    std::shared_ptr<PreparedJob>& job = jobs[static_cast<std::size_t>(req.target)];
    if (!job) job = Prepare(specs[static_cast<std::size_t>(req.target)], CpuThreads());
  };
  auto serve = [&](const Request& req) {
    std::shared_ptr<PreparedJob>& job = jobs[static_cast<std::size_t>(req.target)];
    Served s;
    if (req.kind == Kind::kRestart) {
      vcuda::Context fresh(Device());
      Configure(fresh, ExecutionTier::kDecoded);
      if (opts.trace) {
        const std::string dir = run.NewDir("restart");
        fresh.set_cache_dir(dir);
        run.WatchDir(dir);
      }
      outcome = RunJob(fresh, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = fresh.cache_stats();
      job.reset();
    } else {
      const vcuda::CacheStats before = client.cache_stats();
      outcome = RunJob(client, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = Delta(client.cache_stats(), before);
    }
    // A respec request and a restart's fresh context must compile every
    // module, a warm request none.
    if (s.ok && req.kind == Kind::kWarm && s.cache.misses != 0) {
      s.ok = false;
      s.error = "warm request compiled";
    }
    if (s.ok && req.kind != Kind::kWarm && (s.cache.hits != 0 || s.cache.disk_hits != 0)) {
      s.ok = false;
      s.error = Format("%s request hit a cache: a specialization key repeated",
                       KindName(req.kind));
    }
    CheckPlan(s, PlanDecoded);
    return s;
  };
  run.Loop(RespecializeSequence(specs.size()), kRespecializeWindow, kRespecializeCycle, prepare,
           serve);
  return run.Finish(client_dir);
}

// ---------------------------------------------------------------------------
// steady
// ---------------------------------------------------------------------------

RunReport Steady(const RunOptions& opts) {
  Run run(opts);
  std::shared_ptr<PreparedJob> job;
  std::unique_ptr<vcuda::Context> client;
  std::string dir;
  // Each setup pass is a fresh context that compiles every specialization
  // (its first request is a respec sample) into a fresh .kmod directory; the
  // last pass's context and directory serve the measured phase.
  for (int pass = 0; pass < kSteadySetups; ++pass) {
    const auto t0 = Clock::now();
    job = Prepare(SteadyJob(opts.seed), CpuThreads());
    client = std::make_unique<vcuda::Context>(Device());
    Configure(*client, ExecutionTier::kDecoded);
    dir = run.NewDir("steady");
    client->set_cache_dir(dir);
    const JobOutcome first = RunJob(*client, *job, nullptr);
    if (!first.ok) {
      run.Fail("setup: " + first.error);
      return run.Finish(dir);
    }
    run.AddRespec(first.total_ms);
    run.AddSetup(MsSince(t0) / 1e3);
  }
  if (opts.trace) {
    run.AdoptSetupArtifacts(dir);
    run.WatchDir(dir);
  }

  const std::size_t length = static_cast<std::size_t>(opts.seconds * 400) + kSteadyCycle;
  JobOutcome outcome;
  auto serve = [&](const Request& req) {
    Served s;
    if (req.kind == Kind::kRestart) {
      vcuda::Context fresh(Device());
      Configure(fresh, ExecutionTier::kDecoded);
      fresh.set_cache_dir(dir);
      outcome = RunJob(fresh, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = fresh.cache_stats();
      if (s.ok && s.cache.misses != 0) {
        s.ok = false;
        s.error = "restart compiled instead of loading from the cache directory";
      }
    } else {
      const vcuda::CacheStats before = client->cache_stats();
      outcome = RunJob(*client, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = Delta(client->cache_stats(), before);
      if (s.ok && s.cache.misses != 0) {
        s.ok = false;
        s.error = "warm request compiled";
      }
    }
    CheckPlan(s, PlanDecoded);
    return s;
  };
  run.Loop(SteadySequence(length), kSteadyCycle, kSteadyCycle, [](const Request&) {}, serve);
  return run.Finish(dir);
}

// ---------------------------------------------------------------------------
// native
// ---------------------------------------------------------------------------

native::NativeEngine::Options EngineOptions(const std::string& dir, vgpu::ShapeMode shape) {
  native::NativeEngine::Options o;
  o.cache_dir = dir;
  o.shape_mode = shape;
  o.max_shape_variants = 8;  // the apps launch several stage shapes per module
  return o;
}

RunReport Native(const RunOptions& opts) {
  Run run(opts);
  if (!native::ToolchainAvailable()) {
    RunReport rep;
    rep.error = "no host C++ toolchain: the native tier is unavailable";
    return rep;
  }
  // A cycle takes at least the ~1.6 s host compile of its fresh module on a
  // 4-core host; about twice that pace is provided for.
  const std::size_t modules =
      static_cast<std::size_t>(opts.seconds * 1.2) + kNativeWindow / kNativeCycle;

  // Setup: inputs and CPU references, the decoded reference run of every
  // request, then the native builds — generic TU and shape variants, eagerly
  // — into an empty cache directory.
  const auto t0 = Clock::now();
  const std::string dir = run.NewDir("native");
  std::shared_ptr<PreparedJob> job = Prepare(NativeJob(opts.seed), CpuThreads());
  std::vector<TtnModule> ttn;
  {
    vcuda::Context reference(Device());
    Configure(reference, ExecutionTier::kDecoded);
    const JobOutcome ref = RunJob(reference, *job, nullptr);
    if (!ref.ok) {
      run.Fail("setup (decoded reference): " + ref.error);
      return run.Finish(dir);
    }
    RecordDecodedStats(*job, ref);
    std::cerr << Format("# setup: inputs, CPU references and decoded run %.2f s\n",
                        MsSince(t0) / 1e3);
    for (std::size_t m = 0; m < modules; ++m) {
      ttn.push_back(MakeTtnModule(opts.seed, static_cast<int>(m)));
      const TtnOutcome o = RunTtn(reference, ttn.back(), false, nullptr);
      if (!o.ok) {
        run.Fail("setup (decoded reference): " + o.error);
        return run.Finish(dir);
      }
      ttn.back().decoded_stats = o.stats;
    }
  }
  native::NativeEngine engine(EngineOptions(dir, vgpu::ShapeMode::kEager));
  vcuda::Context client(Device());
  Configure(client, ExecutionTier::kNative);
  client.set_cache_dir(dir);
  client.set_native_service(&engine);
  {
    const JobOutcome first = RunJob(client, *job, nullptr);
    if (!first.ok) {
      run.Fail("setup (native build): " + first.error);
      return run.Finish(dir);
    }
  }
  run.set_setup_builds(engine.stats());
  run.AddSetup(MsSince(t0) / 1e3);
  std::cerr << Format("# setup: %.2f s with %llu generic and %llu shape-variant builds\n",
                      MsSince(t0) / 1e3,
                      static_cast<unsigned long long>(engine.stats().builds_started),
                      static_cast<unsigned long long>(engine.stats().shape_builds_started));

  // Time-to-native modules build through their own engine (generic TU only:
  // one host compile each) over the same directory the restarts read.
  native::NativeEngine ttn_engine(EngineOptions(dir, vgpu::ShapeMode::kOff));
  if (opts.trace) {
    run.AdoptSetupArtifacts(dir);
    run.WatchDir(dir);
    run.set_replay_native(true);
  }

  JobOutcome outcome;
  auto serve = [&](const Request& req) {
    Served s;
    if (req.kind == Kind::kRespec) {
      const auto before = ttn_engine.stats();
      vcuda::Context fresh(Device());
      Configure(fresh, ExecutionTier::kNative);
      fresh.set_cache_dir(dir);
      fresh.set_native_service(&ttn_engine);
      const TtnOutcome o =
          RunTtn(fresh, ttn[static_cast<std::size_t>(req.target)], true, run.tracer());
      s.kind = req.kind;
      s.ms = o.ms;
      s.ok = o.ok;
      s.error = o.error;
      s.sim_ms = o.stats.sim_millis;
      s.launches = 1;
      s.launches_native = o.exec.served == ExecutionTier::kNative ? 1 : 0;
      s.launches_decoded = 1 - s.launches_native;
      s.native_shape = o.exec.native_shape ? 1 : 0;
      s.fallbacks = o.exec.native_fallback ? 1 : 0;
      s.warp_instrs = o.stats.warp_instrs;
      s.cache = fresh.cache_stats();
      s.engine = EngineDelta(ttn_engine.stats(), before);
      if (s.ok && s.engine.builds_started != 1) {
        s.ok = false;
        s.error = "time-to-native module was not built exactly once";
      }
    } else if (req.kind == Kind::kRestart) {
      native::NativeEngine fresh_engine(EngineOptions(dir, vgpu::ShapeMode::kEager));
      vcuda::Context fresh(Device());
      Configure(fresh, ExecutionTier::kNative);
      fresh.set_cache_dir(dir);
      fresh.set_native_service(&fresh_engine);
      outcome = RunJob(fresh, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = fresh.cache_stats();
      s.engine = fresh_engine.stats();
      if (s.ok && (s.cache.misses != 0 || s.engine.builds_started != 0 ||
                   s.engine.shape_builds_started != 0)) {
        s.ok = false;
        s.error = "restart compiled or built instead of loading the warm cache directory";
      }
    } else {
      const auto cache_before = client.cache_stats();
      const auto before = engine.stats();
      outcome = RunJob(client, *job, run.tracer());
      s = FromJob(req.kind, outcome);
      s.cache = Delta(client.cache_stats(), cache_before);
      s.engine = EngineDelta(engine.stats(), before);
      if (s.ok && (s.cache.misses != 0 || s.engine.builds_started != 0 ||
                   s.engine.shape_builds_started != 0)) {
        s.ok = false;
        s.error = "warm request compiled or started a native build";
      }
    }
    CheckPlan(s, PlanNative);
    return s;
  };
  run.Loop(NativeSequence(modules), kNativeWindow, kNativeCycle, [](const Request&) {}, serve);
  return run.Finish(dir);
}

void PrintSequence(const std::vector<Request>& seq) {
  for (const Request& r : seq) std::cout << KindName(r.kind) << " " << r.target << "\n";
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "respecialize" || name == "steady" || name == "native";
}

RunReport RunWorkload(const RunOptions& opts) {
  if (opts.list_only) {
    // The request sequence and job parameters a run with this seed issues.
    if (opts.workload == "respecialize") {
      const auto jobs = RespecializeJobs(opts.seed, kRespecializeWindow * 2);
      PrintSequence(RespecializeSequence(jobs.size()));
      for (const JobSpec& j : jobs) std::cout << "job " << j.Describe() << "\n";
    } else if (opts.workload == "steady") {
      PrintSequence(SteadySequence(kSteadyCycle));
      std::cout << "job " << SteadyJob(opts.seed).Describe() << "\n";
    } else {
      PrintSequence(NativeSequence(2));
      std::cout << "job " << NativeJob(opts.seed).Describe() << "\n";
      for (int m = 0; m < 2; ++m) {
        std::cout << "ttn " << kcc::DefinesToString(MakeTtnModule(opts.seed, m).opts.defines)
                  << "\n";
      }
    }
    return {};
  }
  if (opts.workload == "respecialize") return Respecialize(opts);
  if (opts.workload == "steady") return Steady(opts);
  return Native(opts);
}

}  // namespace kbench
