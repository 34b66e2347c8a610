// kbench: the repository benchmark program.
//
//   kbench --workload respecialize|steady|native --seed N --seconds S --trace 0|1
//          --out-dir DIR [--list]
//
// Prints progress and diagnostics on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones (and
// write their spans to DIR/traces/). Exits nonzero when any request failed
// its checks or the run could not be carried out. See ../README.md.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "native/build.hpp"
#include "report.hpp"
#include "support/str.hpp"
#include "workloads.hpp"

namespace {

int Usage(const std::string& why) {
  std::cerr << "kbench: " << why
            << "\nusage: kbench --workload respecialize|steady|native --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--list]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace kbench;

  RunOptions opts;
  std::string out_dir;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      opts.list_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!KnownWorkload(opts.workload)) return Usage("unknown workload '" + opts.workload + "'");
  if (opts.list_only) {
    RunWorkload(opts);
    return 0;
  }
  if (trace < 0) return Usage("--trace must be 0 or 1");
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");
  if (out_dir.empty()) return Usage("--out-dir is required");
  opts.trace = trace == 1;

  // What is measured is pinned through the public API; the environment
  // overrides would silently change it.
  for (const char* var : {"VGPU_TIER", "VGPU_WORKERS", "KSPEC_NATIVE_SHAPE"}) {
    if (std::getenv(var)) {
      std::cerr << "kbench: refusing to run with " << var << " set\n";
      return 2;
    }
  }

  const std::string tag =
      kspec::Format("%s-seed%llu-trace%d", opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed), trace);
  opts.work_dir = (fs::path(out_dir) / "work" / tag).string();
  fs::create_directories(fs::path(out_dir) / "traces");
  fs::remove_all(opts.work_dir);
  fs::create_directories(opts.work_dir);
  opts.trace_path = (fs::path(out_dir) / "traces" / (tag + ".json")).string();
  opts.host_json = kspec::Format(
      "{\"cores\": %u, \"compiler\": %s, \"build_type\": %s, \"native_cxx\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s}",
      std::thread::hardware_concurrency(), JsonString(KBENCH_CXX).c_str(),
      JsonString(KBENCH_BUILD_TYPE).c_str(), JsonString(kspec::native::HostCompiler()).c_str(),
      JsonString(opts.workload).c_str(), static_cast<unsigned long long>(opts.seed),
      JsonNumber(opts.seconds).c_str());
  std::cerr << "# host " << opts.host_json << "\n";

  RunReport rep;
  try {
    rep = RunWorkload(opts);
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  std::error_code ec;
  fs::remove_all(opts.work_dir, ec);

  if (!rep.error.empty()) {
    std::cerr << "kbench: " << rep.error << "\n";
    return 1;
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::cout << rep.result.Json(correct, rep.attempted, rep.failed) << std::endl;
  return correct ? 0 : 1;
}
