#include "jobs.hpp"

#include <cmath>
#include <cstring>
#include <exception>

#include "apps/backproj/cpu_ref.hpp"
#include "apps/matching/cpu_ref.hpp"
#include "support/str.hpp"
#include "trace.hpp"

namespace kbench {

using namespace kspec;

const char* AppName(int app) {
  static const char* const kNames[kAppCount] = {"matching", "piv", "backproj", "rowfilter"};
  return kNames[app];
}

std::string JobSpec::Describe() const {
  return Format(
      "matching tpl%dx%d shift%dx%d tile%dx%d t%d %s | piv img%d mask%d r%d s%d t%d v%s %s | "
      "backproj n%d z%d a%d t%d zpt%d%s %s | rowfilter %dx%d k%d a%d b%d t%d | data %llu",
      matching.tpl_h, matching.tpl_w, matching.shift_h, matching.shift_w, matching.cfg.tile_h,
      matching.cfg.tile_w, matching.cfg.threads, matching.cfg.specialize ? "SK" : "RE", piv.img,
      piv.mask, piv.range, piv.stride, piv.cfg.threads, apps::piv::VariantName(piv.cfg.variant),
      piv.cfg.specialize ? "SK" : "RE", backproj.geo.vol_n, backproj.geo.vol_z,
      backproj.geo.n_angles, backproj.cfg.threads, backproj.cfg.zpt,
      backproj.cfg.use_texture ? " tex" : "", backproj.cfg.specialize ? "SK" : "RE",
      rowfilter.w, rowfilter.h, rowfilter.ksize, rowfilter.anchor,
      static_cast<int>(rowfilter.border), rowfilter.cfg.threads,
      static_cast<unsigned long long>(data_seed));
}

std::shared_ptr<PreparedJob> Prepare(const JobSpec& spec, int cpu_threads) {
  auto job = std::make_shared<PreparedJob>();
  job->spec = spec;
  const std::uint64_t s = spec.data_seed;

  const MatchingCase& m = spec.matching;
  job->matching = apps::matching::Generate("bench", m.tpl_h, m.tpl_w, m.shift_h, m.shift_w, s);
  job->matching_ref = apps::matching::CpuMatch(job->matching, cpu_threads);

  const PivCase& p = spec.piv;
  job->piv = apps::piv::Generate("bench", p.img, p.mask, p.range, p.stride, s + 1);
  job->piv_ref = apps::piv::CpuPiv(job->piv, cpu_threads);

  const BackprojCase& b = spec.backproj;
  job->backproj = apps::backproj::Generate("bench", b.geo, b.blobs, s + 2);
  job->backproj_ref = apps::backproj::CpuBackproject(job->backproj, cpu_threads).volume;

  const RowFilterCase& r = spec.rowfilter;
  job->image = apps::rowfilter::MakeTestImage(r.w, r.h, s + 3);
  job->filter = apps::rowfilter::BoxFilter(r.ksize, r.border);
  job->filter.anchor = r.anchor;
  job->filter.elem = r.elem;
  job->rowfilter_ref = apps::rowfilter::CpuRowFilter(job->image, job->filter);
  return job;
}

namespace {

// Relative closeness at the tolerance the app's own tests use.
bool CloseRel(const std::vector<float>& got, const std::vector<float>& want, float tol,
              std::string* error, const char* what) {
  if (got.size() != want.size()) {
    *error = Format("%s: %zu values, reference has %zu", what, got.size(), want.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= tol * (1.0f + std::fabs(want[i])))) {
      *error = Format("%s: value %zu is %g, reference %g", what, i, got[i], want[i]);
      return false;
    }
  }
  return true;
}

bool VerifyMatching(const PreparedJob& job, const apps::matching::MatchResult& r,
                    std::string* error) {
  const auto& p = job.matching;
  const auto& ref = job.matching_ref;
  if (r.scores.size() != ref.scores.size()) {
    *error = "matching: score count differs from the CPU reference";
    return false;
  }
  for (std::size_t i = 0; i < r.scores.size(); ++i) {
    if (!(std::fabs(r.scores[i] - ref.scores[i]) <= 2e-3f)) {
      *error = Format("matching: score %zu is %g, CPU reference %g", i, r.scores[i],
                      ref.scores[i]);
      return false;
    }
  }
  const int planted = p.true_sy * p.shift_w + p.true_sx;
  if (r.best_idx != ref.best_idx || r.best_idx != planted) {
    *error = Format("matching: best shift %d, CPU reference %d, planted %d", r.best_idx,
                    ref.best_idx, planted);
    return false;
  }
  return true;
}

bool VerifyPiv(const PreparedJob& job, const apps::piv::PivGpuResult& r, std::string* error) {
  const auto& ref = job.piv_ref;
  if (r.field.best_offset != ref.best_offset) {
    *error = "piv: best offsets differ from the CPU reference";
    return false;
  }
  for (std::size_t m = 0; m < ref.best_score.size(); ++m) {
    if (!(std::fabs(r.field.best_score[m] - ref.best_score[m]) <=
          1e-3f * (1.0f + ref.best_score[m]))) {
      *error = Format("piv: mask %zu score %g, CPU reference %g", m, r.field.best_score[m],
                      ref.best_score[m]);
      return false;
    }
  }
  // The planted displacement must be recovered by the overwhelming majority
  // of masks (border effects may perturb a few), as in the PIV tests.
  const int planted = job.piv.true_offset_index();
  std::size_t hits = 0;
  for (int v : r.field.best_offset) hits += v == planted ? 1 : 0;
  if (hits * 10 < r.field.best_offset.size() * 9) {
    *error = Format("piv: %zu of %zu masks recover the planted displacement", hits,
                    r.field.best_offset.size());
    return false;
  }
  return true;
}

// Per-stage LaunchStats of one app call, in stage order.
std::vector<vgpu::LaunchStats> StageStats(const launch::LaunchBreakdown& b) {
  std::vector<vgpu::LaunchStats> out;
  for (const launch::StageRecord& s : b.stages) out.push_back(s.launch);
  return out;
}

bool SameStats(const std::vector<vgpu::LaunchStats>& got,
               const std::vector<vgpu::LaunchStats>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!vgpu::StatsBitIdentical(got[i], want[i])) return false;
  }
  return true;
}

// Runs one app: the driver call and the verification are separate spans.
template <typename Call, typename Verify>
void RunApp(int app, const PreparedJob& job, Tracer* tracer, JobOutcome* out, Call&& call,
            Verify&& verify) {
  AppOutcome& a = out->apps[app];
  const std::string name = AppName(app);
  auto t0 = Clock::now();
  try {
    std::string error;
    auto result = [&] {
      auto span = tracer->Open("apps." + name);
      return call();
    }();
    a.call_ms = MsSince(t0);
    auto t1 = Clock::now();
    bool ok;
    {
      auto span = tracer->Open("verify." + name);
      a.breakdown = result.breakdown;
      ok = verify(result, &error);
      if (ok && job.has_decoded_stats &&
          !SameStats(StageStats(a.breakdown), job.decoded_stats[app])) {
        ok = false;
        error = name + ": LaunchStats differ from the decoded run of the same request";
      }
      // Each stage must be exactly one launch, so the stage records are the
      // launches and their counters add up to the request's.
      const std::size_t launches = a.breakdown.launches_interp +
                                   a.breakdown.launches_decoded + a.breakdown.launches_native;
      if (ok && launches != a.breakdown.stages.size()) {
        ok = false;
        error = Format("%s: %zu launches over %zu stages", name.c_str(), launches,
                       a.breakdown.stages.size());
      }
    }
    a.verify_ms = MsSince(t1);
    for (const launch::StageRecord& s : a.breakdown.stages) a.warp_instrs += s.launch.warp_instrs;
    out->sim_ms += a.breakdown.sim_millis;
    if (!ok && out->ok) {
      out->ok = false;
      out->error = error;
    }
  } catch (const std::exception& e) {
    a.call_ms = MsSince(t0);
    if (out->ok) {
      out->ok = false;
      out->error = name + ": " + e.what();
    }
  }
}

}  // namespace

JobOutcome RunJob(vcuda::Context& ctx, const PreparedJob& job, Tracer* tracer) {
  Tracer untraced(false);
  if (!tracer) tracer = &untraced;
  JobOutcome out;
  const auto t0 = Clock::now();
  RunApp(
      kMatching, job, tracer, &out,
      [&] { return apps::matching::GpuMatch(ctx, job.matching, job.spec.matching.cfg); },
      [&](const apps::matching::MatchResult& r, std::string* e) {
        return VerifyMatching(job, r, e);
      });
  RunApp(
      kPiv, job, tracer, &out, [&] { return apps::piv::GpuPiv(ctx, job.piv, job.spec.piv.cfg); },
      [&](const apps::piv::PivGpuResult& r, std::string* e) { return VerifyPiv(job, r, e); });
  RunApp(
      kBackproj, job, tracer, &out,
      [&] {
        return apps::backproj::GpuBackproject(ctx, job.backproj, job.spec.backproj.cfg);
      },
      [&](const apps::backproj::BackprojGpuResult& r, std::string* e) {
        // The texture path clamps float coordinates rather than texel
        // indices, so border voxels differ slightly (its test allows 2%).
        const float tol = job.spec.backproj.cfg.use_texture ? 0.02f : 1e-4f;
        return CloseRel(r.volume, job.backproj_ref, tol, e, "backproj");
      });
  RunApp(
      kRowFilter, job, tracer, &out,
      [&] {
        return apps::rowfilter::GpuRowFilter(ctx, job.image, job.filter,
                                             job.spec.rowfilter.cfg);
      },
      [&](const apps::rowfilter::RowFilterResult& r, std::string* e) {
        return CloseRel(r.out, job.rowfilter_ref, 1e-4f, e, "rowfilter");
      });
  out.total_ms = MsSince(t0);
  return out;
}

void RecordDecodedStats(PreparedJob& job, const JobOutcome& outcome) {
  for (int app = 0; app < kAppCount; ++app) {
    job.decoded_stats[app] = StageStats(outcome.apps[app].breakdown);
  }
  job.has_decoded_stats = true;
}

std::size_t JobOutcome::Launches(vgpu::ExecutionTier tier) const {
  std::size_t n = 0;
  for (const AppOutcome& a : apps) {
    switch (tier) {
      case vgpu::ExecutionTier::kInterp: n += a.breakdown.launches_interp; break;
      case vgpu::ExecutionTier::kDecoded: n += a.breakdown.launches_decoded; break;
      case vgpu::ExecutionTier::kNative: n += a.breakdown.launches_native; break;
      case vgpu::ExecutionTier::kAuto: break;
    }
  }
  return n;
}

std::size_t JobOutcome::NativeShapeLaunches() const {
  std::size_t n = 0;
  for (const AppOutcome& a : apps) n += a.breakdown.launches_native_shape;
  return n;
}

std::size_t JobOutcome::NativeFallbacks() const {
  std::size_t n = 0;
  for (const AppOutcome& a : apps) n += a.breakdown.native_fallbacks;
  return n;
}

double JobOutcome::LaunchMs() const {
  double ms = 0;
  for (const AppOutcome& a : apps) ms += a.breakdown.wall_millis;
  return ms;
}

double JobOutcome::CompileMs() const {
  double ms = 0;
  for (const AppOutcome& a : apps) ms += a.breakdown.compile_millis;
  return ms;
}

double JobOutcome::TransferMs() const {
  double ms = 0;
  for (const AppOutcome& a : apps) ms += a.breakdown.transfer_millis;
  return ms;
}

std::uint64_t JobOutcome::WarpInstrs() const {
  std::uint64_t n = 0;
  for (const AppOutcome& a : apps) n += a.warp_instrs;
  return n;
}

}  // namespace kbench
