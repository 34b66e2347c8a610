#include "sched/device_shard.hpp"

#include <algorithm>
#include <utility>

namespace kspec::sched {

namespace {

launch::RunnerOptions ShardRunnerOptions(int hot_threshold) {
  launch::RunnerOptions opts;
  // Tiered: the shard works with or without an executor attached, and
  // promotion turns non-blocking automatically when one is.
  opts.policy = launch::LoadPolicy::kTiered;
  opts.hot_threshold = hot_threshold;
  return opts;
}

}  // namespace

DeviceShard::DeviceShard(int id, const vgpu::DeviceProfile& profile, int hot_threshold,
                         vcuda::AsyncCompileService* executor, tune::TuningCache* tuning_cache)
    : id_(id),
      ctx_(profile),
      runner_(ctx_, ShardRunnerOptions(hot_threshold)),
      tuning_cache_(tuning_cache) {
  if (executor != nullptr) ctx_.set_async_service(executor);
}

tune::Config DeviceShard::TunedConfig(const std::string& kernel,
                                      const std::string& problem_signature,
                                      const std::function<tune::Config()>& search) {
  if (tuning_cache_ == nullptr) return search();
  const std::string key =
      tune::TuningCache::MakeKey(kernel, device_name(), problem_signature);
  return tuning_cache_->LookupOrCompute(key, search);
}

void DeviceShard::Enqueue(PendingLaunch item) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(item));
  stats_.queue_high_water = std::max(stats_.queue_high_water, queue_.size());
}

std::size_t DeviceShard::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

DeviceShard::DrainOutcome DeviceShard::DrainQueue() {
  DrainOutcome out;
  for (;;) {
    PendingLaunch item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return out;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (RunOne(item)) {
      ++out.completed;
    } else {
      ++out.failed;
    }
  }
}

bool DeviceShard::StealOne(PendingLaunch* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    if (it->pinned) continue;
    *out = std::move(*it);
    queue_.erase(std::next(it).base());
    return true;
  }
  return false;
}

bool DeviceShard::RunOne(PendingLaunch& item) {
  const LaunchRequest& req = item.req;
  try {
    std::shared_ptr<vcuda::Module> mod = runner_.LoadStage(req.stage, req.source, req.opts);
    const bool specialized = runner_.IsSpecialized(req.source, req.opts);

    // Scratch buffers free after finish() — launch inputs and outputs live
    // exactly as long as the request needs them on this shard.
    std::vector<vcuda::DeviceBuffer> scratch;
    vcuda::ArgPack args;
    if (req.prepare) args = req.prepare(ctx_, scratch);

    LaunchResult result;
    result.stats =
        runner_.Launch(req.stage, *mod, req.kernel, req.grid, req.block, args,
                       req.dynamic_smem_bytes);
    if (req.finish) req.finish(ctx_);

    const auto now = std::chrono::steady_clock::now();
    result.shard = id_;
    result.affinity_hit = item.affinity_hit;
    result.specialized = specialized;
    result.queue_millis =
        std::chrono::duration<double, std::milli>(item.dispatched - item.submitted).count();
    result.total_millis =
        std::chrono::duration<double, std::milli>(now - item.submitted).count();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.launches;
      if (specialized) ++stats_.specialized_served;
      stats_.sim_millis += result.stats.sim_millis;
    }
    item.promise.set_value(std::move(result));
    return true;
  } catch (...) {
    // Shard failure isolation: this request's waiter gets the exception; the
    // shard and its queue stay healthy.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failures;
    }
    item.promise.set_exception(std::current_exception());
    return false;
  }
}

ShardStats DeviceShard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kspec::sched
