// Shared helpers for the per-table benchmark binaries.
//
// Every bench prints an ASCII table shaped like the corresponding table (or
// figure) in the dissertation's Chapter 6 and, where relevant, the expected
// qualitative shape being reproduced. Absolute numbers are simulated-device
// milliseconds (the vgpu cost model) and are deterministic across runs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/piv/gpu.hpp"
#include "support/csv.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/device.hpp"

namespace kspec::bench {

// The dissertation's Appendix B kernel (examples/kernels/mathtest.kc),
// specializable on its loop count, stride arguments and block size.
inline constexpr const char* kMathTest = R"(
#ifndef CT_LOOP_COUNT
#define LOOP_COUNT loopCount
#endif
#ifndef CT_ARGS
#define STRIDE (argA * argB)
#else
#define STRIDE (ARG_A * ARG_B)
#endif
#ifndef CT_BLOCK_DIM
#define BLOCK_DIM_X blockDim.x
#endif

__kernel void mathTest(float* in, float* out, int argA, int argB, int loopCount) {
  float acc = 0.0f;
  const unsigned int stride = STRIDE;
  const unsigned int offset = blockIdx.x * BLOCK_DIM_X + threadIdx.x;
  for (int i = 0; i < LOOP_COUNT; i++) {
    acc += *(in + offset + i * stride);
  }
  *(out + offset) = acc;
  return;
}
)";

// One measurement row of a bench session's machine-readable output.
struct BenchRecord {
  std::string name;
  double wall_ms = 0;   // host wall-clock time
  double sim_ms = 0;    // simulated-device milliseconds (0 when n/a)
  double speedup = 0;   // vs the bench's own baseline (0 when n/a)
  unsigned threads = 0; // host worker threads used (0 when n/a)
  std::string tier;     // execution tier that served ("" when n/a)
};

// Session: common command-line handling for every bench binary.
//
//   --json <path>   write the recorded measurements as JSON on exit
//   --reps N        timed repetitions for TimeMs (default 3)
//   --warmup N      untimed warmup runs for TimeMs (default 1)
//
// Records accumulate via Record(); the destructor writes the JSON file (if
// asked), with the host's core count beside the records. Only explicitly
// recorded rows are emitted — the session's own wall time is process
// overhead (compiles, warmups, table printing), not a measurement, and would
// read as a bogus datapoint next to real rows.
// The ASCII tables benches print are unaffected — the JSON is an additional,
// machine-readable channel for tools/bench_report.
class Session {
 public:
  Session(std::string bench_name, int argc, char** argv) : bench_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
      if (a == "--json" && v) {
        json_path_ = v;
        ++i;
      } else if (a == "--reps" && v) {
        reps_ = std::max(1, std::atoi(v));
        ++i;
      } else if (a == "--warmup" && v) {
        warmup_ = std::max(0, std::atoi(v));
        ++i;
      }
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    if (json_path_.empty()) return;
    std::ofstream out(json_path_);
    if (!out) {
      std::cerr << "bench: cannot write " << json_path_ << "\n";
      return;
    }
    out << "{\n  \"bench\": \"" << Escape(bench_) << "\",\n  \"host\": {\"cores\": "
        << std::thread::hardware_concurrency() << "},\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      out << "    {\"name\": \"" << Escape(r.name) << "\", \"wall_ms\": " << r.wall_ms
          << ", \"sim_ms\": " << r.sim_ms << ", \"speedup\": " << r.speedup
          << ", \"threads\": " << r.threads;
      if (!r.tier.empty()) out << ", \"tier\": \"" << Escape(r.tier) << "\"";
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  int reps() const { return reps_; }
  int warmup() const { return warmup_; }

  // Runs fn `warmup` times untimed, then `reps` times timed; returns the
  // minimum wall-clock milliseconds (the standard noise-resistant estimator).
  double TimeMs(const std::function<void()>& fn) const {
    for (int i = 0; i < warmup_; ++i) fn();
    double best = 1e300;
    for (int i = 0; i < reps_; ++i) {
      WallTimer t;
      fn();
      best = std::min(best, t.ElapsedMillis());
    }
    return best;
  }

  void Record(std::string name, double wall_ms, double sim_ms = 0, double speedup = 0,
              unsigned threads = 0, std::string tier = "") {
    records_.push_back({std::move(name), wall_ms, sim_ms, speedup, threads, std::move(tier)});
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::string json_path_;
  int reps_ = 3;
  int warmup_ = 1;
  std::vector<BenchRecord> records_;
};

inline void Banner(const std::string& id, const std::string& caption) {
  std::cout << "\n============================================================\n"
            << id << " — " << caption << "\n"
            << "============================================================\n";
}

inline void Note(const std::string& text) { std::cout << "  " << text << "\n"; }

inline std::vector<vgpu::DeviceProfile> Devices() {
  return {vgpu::TeslaC1060(), vgpu::TeslaC2070()};
}

// Result of a PIV implementation-parameter sweep: the best (threads, rb)
// configuration by simulated time.
struct PivBest {
  apps::piv::PivGpuResult result;
  int threads = 0;
  int rb = 0;
};

// Sweeps thread counts (and register blocking for the regblock variant) and
// returns the fastest configuration — the "optimal configuration" columns of
// Tables 6.15-6.18.
inline PivBest SweepPiv(vcuda::Context& ctx, const apps::piv::Problem& p,
                        apps::piv::Variant variant, bool specialize,
                        const std::vector<int>& thread_options = {32, 64, 128, 256},
                        const std::vector<int>& rb_options = {0, 1, 2, 4, 8}) {
  using apps::piv::PivConfig;
  PivBest best;
  double best_ms = 1e300;
  for (int threads : thread_options) {
    std::vector<int> rbs =
        variant == apps::piv::Variant::kRegBlock ? rb_options : std::vector<int>{0};
    for (int rb : rbs) {
      if (rb > 0 && rb * threads < p.mask_area()) continue;  // cannot cover the mask
      PivConfig cfg;
      cfg.variant = variant;
      cfg.threads = threads;
      cfg.specialize = specialize;
      cfg.rb = rb;
      try {
        apps::piv::PivGpuResult r = GpuPiv(ctx, p, cfg);
        if (r.stats.sim_millis < best_ms) {
          best_ms = r.stats.sim_millis;
          best.result = std::move(r);
          best.threads = threads;
          best.rb = rb == 0 ? static_cast<int>((p.mask_area() + threads - 1) / threads) : rb;
        }
      } catch (const Error&) {
        // Configuration not launchable on this device (occupancy/limits);
        // real sweeps skip those too.
      }
    }
  }
  return best;
}

}  // namespace kspec::bench
