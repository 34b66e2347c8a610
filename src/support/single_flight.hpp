// SingleFlight: one blocking, per-key call latch.
//
// Do(key, fn) runs fn for the first caller of a key; callers of the same key
// that arrive while that call is running block and share its outcome — the
// same value, or a rethrow of the same exception. fn runs with no lock held,
// so calls for different keys proceed concurrently. The key is forgotten as
// soon as the call finishes: nothing is cached, and a failure is not latched
// (the next Do of that key runs fn again). Owners that want the result kept
// store it themselves inside fn, where no later caller can miss it.
//
// This is the blocking half of promotion: TieredLoader's no-service
// specialization and TuningCache::LookupOrCompute's search both use it.
// Background promotion rides serve::CompileExecutor instead.
#pragma once

#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace kspec {

template <typename V>
class SingleFlight {
 public:
  template <typename Fn>
  V Do(const std::string& key, Fn&& fn) {
    std::promise<V> promise;
    std::shared_future<V> call;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = calls_.try_emplace(key);
      if (inserted) it->second = promise.get_future().share();
      call = it->second;
      leader = inserted;
    }
    if (leader) {
      std::optional<V> value;
      std::exception_ptr error;
      try {
        value.emplace(fn());
      } catch (...) {
        error = std::current_exception();
      }
      // Forget the key before publishing the outcome: a caller arriving from
      // here on starts a fresh call instead of joining a finished one.
      {
        std::lock_guard<std::mutex> lock(mu_);
        calls_.erase(key);
      }
      if (error) {
        promise.set_exception(error);
      } else {
        promise.set_value(std::move(*value));
      }
    }
    return call.get();  // rethrows the call's exception
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::shared_future<V>> calls_;  // calls in progress
};

}  // namespace kspec
