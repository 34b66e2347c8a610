// A job is what one benchmark request runs: one specialization of each of the
// four application pipelines (template matching, PIV, cone-beam
// backprojection, row filter), driven through their public entry points and
// checked against independent CPU references.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/backproj/gpu.hpp"
#include "apps/matching/cpu_ref.hpp"
#include "apps/matching/gpu.hpp"
#include "apps/piv/gpu.hpp"
#include "apps/rowfilter/rowfilter.hpp"
#include "launch/stage_runner.hpp"
#include "vcuda/vcuda.hpp"

namespace kbench {

class Tracer;

enum AppId { kMatching = 0, kPiv, kBackproj, kRowFilter, kAppCount };
const char* AppName(int app);

struct MatchingCase {
  int tpl_h = 16, tpl_w = 16, shift_h = 8, shift_w = 8;
  kspec::apps::matching::MatcherConfig cfg;
};

struct PivCase {
  int img = 40, mask = 8, range = 2, stride = 8;
  kspec::apps::piv::PivConfig cfg;
};

struct BackprojCase {
  kspec::apps::backproj::Geometry geo;
  int blobs = 2;
  kspec::apps::backproj::BackprojConfig cfg;
};

struct RowFilterCase {
  int w = 128, h = 32, ksize = 9;
  int anchor = -1;  // -1 = centered
  kspec::apps::rowfilter::Border border = kspec::apps::rowfilter::Border::kClamp;
  kspec::apps::rowfilter::ElemType elem = kspec::apps::rowfilter::ElemType::kFloat;
  kspec::apps::rowfilter::RowFilterConfig cfg;
};

// The parameters of one job. `data_seed` seeds the synthetic inputs; every
// other field is a problem size or a specialization parameter.
struct JobSpec {
  MatchingCase matching;
  PivCase piv;
  BackprojCase backproj;
  RowFilterCase rowfilter;
  std::uint64_t data_seed = 1;

  std::string Describe() const;
};

// A job with its inputs generated and its CPU reference outputs computed.
struct PreparedJob {
  JobSpec spec;
  kspec::apps::matching::Problem matching;
  kspec::apps::matching::CpuResult matching_ref;
  kspec::apps::piv::Problem piv;
  kspec::apps::piv::VectorField piv_ref;
  kspec::apps::backproj::Problem backproj;
  std::vector<float> backproj_ref;
  kspec::apps::rowfilter::Image image;
  kspec::apps::rowfilter::FilterSpec filter;
  std::vector<float> rowfilter_ref;
  // Per-app, per-stage LaunchStats of a decoded run, when recorded; runs on
  // another tier must reproduce them bit for bit.
  std::array<std::vector<kspec::vgpu::LaunchStats>, kAppCount> decoded_stats;
  bool has_decoded_stats = false;
};

// Generates the inputs and the CPU references (the expensive part of setup).
std::shared_ptr<PreparedJob> Prepare(const JobSpec& spec, int cpu_threads);

struct AppOutcome {
  double call_ms = 0;    // the app driver call
  double verify_ms = 0;  // the comparison against the CPU reference
  kspec::launch::LaunchBreakdown breakdown;
  std::uint64_t warp_instrs = 0;
};

struct JobOutcome {
  std::array<AppOutcome, kAppCount> apps;
  double total_ms = 0;  // issue -> every output verified
  double sim_ms = 0;    // modelled device time of every launch
  bool ok = true;
  std::string error;  // first failed check

  std::size_t Launches(kspec::vgpu::ExecutionTier tier) const;
  std::size_t NativeShapeLaunches() const;
  std::size_t NativeFallbacks() const;
  double LaunchMs() const;
  double CompileMs() const;
  double TransferMs() const;
  std::uint64_t WarpInstrs() const;
};

// Runs every app of `job` on `ctx` (tier and execution policy as the context
// is configured), verifies each output, and, when the job carries decoded
// LaunchStats, checks that this run reproduced them bit for bit. A thrown
// error counts as a failed check, never escapes. With a tracer, each app call
// and each verification is a span.
JobOutcome RunJob(kspec::vcuda::Context& ctx, const PreparedJob& job, Tracer* tracer);

// Records the decoded-tier LaunchStats of `outcome` into `job`.
void RecordDecodedStats(PreparedJob& job, const JobOutcome& outcome);

}  // namespace kbench
