// The three benchmark workloads. Each is a closed loop driven by one client
// thread: the next request is issued only after the previous one's outputs
// are verified.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace kbench {

struct RunOptions {
  std::string workload;  // respecialize | steady | native
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for cache directories (emptied at exit)
  std::string trace_path;  // traced runs write their spans here
  std::string host_json;   // host record embedded in the trace
  bool list_only = false;  // print the request sequence and exit
};

struct RunReport {
  Result result;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // set when the run itself could not be carried out
};

bool KnownWorkload(const std::string& name);

// Runs the workload. Outcomes of individual requests are counted in the
// report; a run-level failure (bad setup, plan violated) sets `error`.
RunReport RunWorkload(const RunOptions& opts);

}  // namespace kbench
