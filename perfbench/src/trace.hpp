// In-memory span and counter recorder for the traced run.
//
// Spans are opened around the benchmark's own calls into each layer's public
// entry points (no tracing lives inside the library). Each span records its
// name, start, end, parent span and request id; the layer is the name's
// prefix up to the first '.'. Everything stays in memory until WriteJson at
// exit. A disabled tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start_ms = 0;  // since the tracer was created
    double end_ms = 0;
    int parent = -1;  // index of the parent span, -1 for a root
    std::uint64_t request = 0;
  };

  // Closes its span on destruction.
  class Span {
   public:
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_) tracer_->Close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span whose parent is the innermost open span.
  Span Open(const std::string& name);

  // Request id stamped on spans opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }

  // Adds `value` to a named counter (no-op when disabled).
  void Count(const std::string& name, double value);

  const std::map<std::string, double>& counters() const { return counters_; }

  // Per-layer self time in ms: each span's duration minus the part of it its
  // child spans cover, summed by layer.
  std::map<std::string, double> LayerSelfMs() const;

  // Writes {"host": <host_json>, "spans": [...], "counters": {...},
  // "self_ms": {...}}. Returns false if the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& host_json) const;

 private:
  void Close(int index);
  double Now() const { return MsSince(origin_); }

  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::map<std::string, double> counters_;
};

}  // namespace kbench
