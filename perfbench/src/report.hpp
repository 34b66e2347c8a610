// Samples and the JSON the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace kbench {

std::string JsonString(const std::string& s);
// All 17 significant digits; a non-finite value prints as 0.
std::string JsonNumber(double v);

// A class of timed samples (ms).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// The metrics of one run and the final result line. BENCHMARK.json declares
// every metric; run.py checks the line against it.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }

  // {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
  std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Peak resident set of this process so far, and its resident set now, MiB.
double PeakRssMb();
double ResidentMb();

}  // namespace kbench
