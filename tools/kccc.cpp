// kccc — the Kernel-C compiler, as a command-line tool.
//
// Mirrors the nvcc-at-run-time workflow from the shell:
//
//   kccc kernel.kc -D TILE_W=16 -D CT_SHIFT=1 --device VC2070 --dump-miniptx
//
// Prints per-kernel statistics (instructions, registers, shared memory,
// unrolled loops, occupancy for a chosen block size) and optionally the
// MiniPTX listing — the artifacts the dissertation's Appendices C/D show.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>

#include "kcc/compiler.hpp"
#include "kcc/preprocess.hpp"
#include "kcc/artifact_dir.hpp"
#include "native/build.hpp"
#include "native/engine.hpp"
#include "netd/artifact_store.hpp"
#include "netd/daemon.hpp"
#include "netd/protocol.hpp"
#include "netd/remote_service.hpp"
#include "serve/compile_executor.hpp"
#include "support/status.hpp"
#include "support/str.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/device.hpp"

namespace {

void Usage() {
  std::cout <<
      "usage: kccc <source.kc> [options]\n"
      "  -D NAME=VALUE     define a specialization constant (repeatable)\n"
      "  --device NAME     occupancy target: VC1060 (default) or VC2070\n"
      "  --block N         threads per block for the occupancy report (default 128)\n"
      "  --max-unroll N    full-unroll budget per loop (default 512)\n"
      "  --no-opt          disable the optimizer (-O0)\n"
      "  --no-unroll       disable loop unrolling only\n"
      "  --cache-dir DIR   persistent specialization cache: reuse a previously\n"
      "                    compiled artifact for this exact (source, -D, options,\n"
      "                    device) key, and store fresh compiles there\n"
      "  --jobs N          batch mode: compile through the async specialization\n"
      "                    service with N worker threads (duplicate -D sets\n"
      "                    coalesce into one compile)\n"
      "  --batch FILE      one -D set per line (\"TILE_W=16 CT_SHIFT=1\"), layered\n"
      "                    on the common -D flags; '#' starts a comment. Implies\n"
      "                    batch mode. With --cache-dir this precompiles every\n"
      "                    set's artifact for later processes.\n"
      "  --tier NAME       execution tier to prepare artifacts for: auto (default),\n"
      "                    interp, decoded, or native. With native, compiles also\n"
      "                    build the specialized shared object (.nso beside .kmod in\n"
      "                    --cache-dir / --store) so later launches start native;\n"
      "                    a 'native:' counter line is appended to the report\n"
      "  --dump-miniptx    print each kernel's MiniPTX listing\n"
      "  --dump-preprocessed  print the post-preprocessor source and exit\n"
      "\n"
      "specialization service (kspecd):\n"
      "  --daemon          run the specialization daemon (no source file needed);\n"
      "                    requires --socket and --store. Stops on --stop.\n"
      "  --socket PATH     daemon listening socket (AF_UNIX)\n"
      "  --store DIR       shared artifact store directory\n"
      "  --connect PATH    batch mode compiles through the daemon at PATH instead\n"
      "                    of locally; pair with --store for the no-RPC fast path\n"
      "  --tenant NAME     admission-control identity sent with --connect requests\n"
      "  --stats           print the daemon's stats JSON (with --connect) and exit\n"
      "  --stop            ask the daemon (via --connect) to shut down and exit\n";
}

void AddDefine(kspec::kcc::CompileOptions& opts, const std::string& def) {
  std::size_t eq = def.find('=');
  if (eq == std::string::npos) {
    opts.defines[def] = "1";
  } else {
    opts.defines[def.substr(0, eq)] = def.substr(eq + 1);
  }
}

// Connection settings for the specialization service modes.
struct NetOptions {
  std::string connect;  // daemon socket for client modes; empty = local
  std::string socket;   // daemon listening socket (--daemon)
  std::string store;    // shared artifact store directory
  std::string tenant;
};

// The native-tier counter line, shaped like the netd: line so batch reports
// stay one-glance parsable across service kinds.
void PrintNativeReport(const kspec::native::NativeEngine& engine) {
  const kspec::native::NativeEngineStats ns = engine.stats();
  // served= counts every native-tier launch; generic= vs shape= splits them
  // by which artifact ran (the shape-generic TU or a shape-specialized
  // variant). shape-builds= covers eager and background variant compiles.
  std::cout << kspec::Format(
      "native: builds-started=%llu completed=%llu failures=%llu served=%llu "
      "generic=%llu shape=%llu shape-builds=%llu "
      "fallbacks=%llu disk-hits=%llu store-hits=%llu\n",
      static_cast<unsigned long long>(ns.builds_started),
      static_cast<unsigned long long>(ns.builds_completed),
      static_cast<unsigned long long>(ns.build_failures),
      static_cast<unsigned long long>(ns.served_launches),
      static_cast<unsigned long long>(ns.served_launches - ns.shape_served_launches),
      static_cast<unsigned long long>(ns.shape_served_launches),
      static_cast<unsigned long long>(ns.shape_builds_completed),
      static_cast<unsigned long long>(ns.fallbacks),
      static_cast<unsigned long long>(ns.disk_hits),
      static_cast<unsigned long long>(ns.store_hits));
}

// Batch mode: precompile every -D set through the async service — the local
// CompileExecutor, or (with --connect/--store) the RemoteCompileService
// fetching from the daemon and the shared store — sharing one Context (so
// its in-memory and disk cache tiers dedupe across sets). With --tier native
// each compiled set also queues a build task on that service making its
// specialized shared object ready, so this is the fleet's native warm-up
// tool.
int RunBatch(const std::string& source, const std::vector<kspec::kcc::CompileOptions>& sets,
             const kspec::vgpu::DeviceProfile& dev, const std::string& cache_dir, int jobs,
             const NetOptions& net, kspec::vgpu::ExecutionTier tier) {
  using namespace kspec;
  vcuda::Context ctx(dev);
  if (!cache_dir.empty()) ctx.set_cache_dir(cache_dir);

  std::unique_ptr<netd::ArtifactStore> native_store;
  std::unique_ptr<native::NativeEngine> engine;
  if (tier == vgpu::ExecutionTier::kNative) {
    if (!native::ToolchainAvailable()) {
      std::cerr << "kccc: --tier native: no usable host C++ compiler; "
                   "building decoded artifacts only\n";
    } else {
      native::NativeEngine::Options nopts;
      nopts.cache_dir = cache_dir;
      if (!net.store.empty()) {
        native_store = std::make_unique<netd::ArtifactStore>(net.store);
        nopts.store = native_store.get();
      }
      engine = std::make_unique<native::NativeEngine>(nopts);
      ctx.set_native_service(engine.get());
    }
  }

  std::unique_ptr<serve::CompileExecutor> executor;
  netd::RemoteCompileService* remote = nullptr;
  if (!net.connect.empty() || !net.store.empty()) {
    netd::RemoteServiceOptions ro;
    ro.socket_path = net.connect;
    ro.store_dir = net.store;
    ro.tenant = net.tenant;
    ro.workers = jobs;
    ro.max_queue = sets.size() + 16;
    auto svc = std::make_unique<netd::RemoteCompileService>(ro);
    remote = svc.get();
    executor = std::move(svc);
  } else {
    serve::ExecutorOptions ex_opts;
    ex_opts.workers = jobs;
    ex_opts.max_queue = sets.size() + 16;
    executor = std::make_unique<serve::CompileExecutor>(ex_opts);
  }
  ctx.set_async_service(executor.get());

  std::vector<vcuda::SubmitResult> results;
  results.reserve(sets.size());
  for (const auto& set : sets) {
    results.push_back(ctx.LoadModuleAsync(source, set));
  }

  int failures = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::string defines = kcc::DefinesToString(sets[i].defines);
    if (defines.empty()) defines = "(no defines)";
    if (!results[i].ok()) {
      std::cout << Format("set %-3zu REJECTED  %s\n", i, defines.c_str());
      ++failures;
      continue;
    }
    try {
      auto mod = results[i].future.get();
      std::cout << Format("set %-3zu ok        %-48s kernels=%zu\n", i, defines.c_str(),
                          mod->compiled().kernels.size());
      // With --tier native, the set's shared object builds on the same
      // workers while later sets are still resolving. Best-effort: a failed
      // or unavailable native build leaves the set ok — the decoded tier
      // serves it.
      if (engine && mod->cache_key()) {
        executor->SubmitTask(mod->cache_key()->CanonicalText(), [&engine, mod] {
          engine->EnsureReady(*mod->cache_key(), mod->compiled());
        });
      }
    } catch (const std::exception& e) {
      std::cout << Format("set %-3zu FAILED    %s: %s\n", i, defines.c_str(), e.what());
      ++failures;
    }
  }
  executor->Drain();
  std::cout << serve::RenderServiceReport(executor->stats(), ctx.cache_stats());
  if (remote != nullptr) {
    const netd::RemoteStats rs = remote->remote_stats();
    std::cout << Format("netd: store-hits=%llu rpc-fetches=%llu throttled=%llu errors=%llu "
                        "local-fallbacks=%llu\n",
                        static_cast<unsigned long long>(rs.store_hits),
                        static_cast<unsigned long long>(rs.rpc_fetches),
                        static_cast<unsigned long long>(rs.remote_throttled),
                        static_cast<unsigned long long>(rs.rpc_errors),
                        static_cast<unsigned long long>(rs.local_fallbacks));
  }
  if (engine) PrintNativeReport(*engine);
  ctx.set_async_service(nullptr);
  ctx.set_native_service(nullptr);
  return failures ? 1 : 0;
}

// --daemon: serve until a kShutdownReq (kccc --stop) arrives.
int RunDaemon(const NetOptions& net, int jobs) {
  using namespace kspec;
  if (net.socket.empty() || net.store.empty()) {
    std::cerr << "kccc: --daemon requires --socket and --store\n";
    return 2;
  }
  netd::DaemonOptions dopts;
  dopts.socket_path = net.socket;
  dopts.store_dir = net.store;
  if (jobs > 0) dopts.workers = jobs;
  netd::SpecDaemon daemon(dopts);
  daemon.Start();
  // Parsable readiness line: integration tests poll for it before connecting.
  std::cout << "kspecd: ready on " << net.socket << "\n" << std::flush;
  daemon.Wait();
  daemon.Stop();
  std::cout << daemon.StatsJson() << "\n";
  return 0;
}

// --stats / --stop against a running daemon.
int RunControl(const NetOptions& net, bool stop) {
  using namespace kspec;
  if (net.connect.empty()) {
    std::cerr << "kccc: " << (stop ? "--stop" : "--stats") << " requires --connect\n";
    return 2;
  }
  const int fd = netd::ConnectUnix(net.connect);
  if (fd < 0) {
    std::cerr << "kccc: cannot connect to " << net.connect << "\n";
    return 1;
  }
  netd::SetRecvTimeout(fd, std::chrono::milliseconds(10000));
  const netd::FrameType req = stop ? netd::FrameType::kShutdownReq : netd::FrameType::kStatsReq;
  netd::Frame resp;
  bool ok = netd::SendFrame(fd, req, std::span<const std::uint8_t>{}) &&
            netd::RecvFrame(fd, &resp) == netd::RecvStatus::kOk;
  if (ok && !stop && resp.type == netd::FrameType::kStatsResp) {
    std::cout << std::string(resp.payload.begin(), resp.payload.end()) << "\n";
  } else if (ok && stop && resp.type == netd::FrameType::kOkResp) {
    std::cout << "kspecd: shutdown acknowledged\n";
  } else if (ok) {
    std::cerr << "kccc: unexpected response frame\n";
    ok = false;
  } else {
    std::cerr << "kccc: daemon did not answer\n";
  }
  ::close(fd);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kspec;
  if (argc < 2) {
    Usage();
    return 2;
  }

  std::string path;
  kcc::CompileOptions opts;
  std::string cache_dir;
  std::string device = "VC1060";
  unsigned block = 128;
  int jobs = 0;
  std::string batch_path;
  bool dump_miniptx = false;
  bool dump_preprocessed = false;
  NetOptions net;
  vgpu::ExecutionTier tier = vgpu::ExecutionTier::kAuto;
  bool daemon_mode = false;
  bool stats_mode = false;
  bool stop_mode = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--daemon") {
      daemon_mode = true;
    } else if (arg == "--stats") {
      stats_mode = true;
    } else if (arg == "--stop") {
      stop_mode = true;
    } else if (arg == "--socket" && i + 1 < argc) {
      net.socket = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      net.connect = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      net.store = argv[++i];
    } else if (arg == "--tenant" && i + 1 < argc) {
      net.tenant = argv[++i];
    } else if (arg == "-D" && i + 1 < argc) {
      AddDefine(opts, argv[++i]);
    } else if (arg.rfind("-D", 0) == 0 && arg.size() > 2) {
      AddDefine(opts, arg.substr(2));
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::stoi(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (arg == "--device" && i + 1 < argc) {
      device = argv[++i];
    } else if (arg == "--block" && i + 1 < argc) {
      block = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--tier" && i + 1 < argc) {
      if (!vgpu::ParseTier(argv[++i], &tier)) {
        std::cerr << "kccc: unknown tier " << argv[i]
                  << " (expected auto, interp, decoded, or native)\n";
        return 2;
      }
    } else if (arg == "--max-unroll" && i + 1 < argc) {
      opts.max_unroll = std::stoi(argv[++i]);
    } else if (arg == "--no-opt") {
      opts.optimize = false;
    } else if (arg == "--no-unroll") {
      opts.enable_unroll = false;
    } else if (arg == "--dump-miniptx") {
      dump_miniptx = true;
    } else if (arg == "--dump-preprocessed") {
      dump_preprocessed = true;
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "kccc: unknown option " << arg << "\n";
      return 2;
    }
  }
  try {
    if (daemon_mode) return RunDaemon(net, jobs);
    if (stats_mode || stop_mode) return RunControl(net, stop_mode);
  } catch (const Error& e) {
    std::cerr << "kccc: " << e.what() << "\n";
    return 1;
  }

  if (path.empty()) {
    Usage();
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "kccc: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string source = buf.str();

  try {
    if (dump_preprocessed) {
      std::cout << kcc::Preprocess(source, opts.defines);
      return 0;
    }
    vgpu::DeviceProfile dev = vgpu::ProfileByName(device);

    // --connect (or --store) routes compiles through the specialization
    // service, which lives behind the batch path.
    if (jobs > 0 || !batch_path.empty() || !net.connect.empty() || !net.store.empty()) {
      if (jobs <= 0) jobs = 2;
      std::vector<kcc::CompileOptions> sets;
      if (batch_path.empty()) {
        sets.push_back(opts);
      } else {
        std::ifstream bf(batch_path);
        if (!bf) {
          std::cerr << "kccc: cannot open batch file " << batch_path << "\n";
          return 1;
        }
        std::string line;
        while (std::getline(bf, line)) {
          if (std::size_t hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
          }
          kcc::CompileOptions set = opts;
          std::istringstream tokens(line);
          std::string tok;
          bool any = false;
          while (tokens >> tok) {
            AddDefine(set, tok);
            any = true;
          }
          if (any) sets.push_back(std::move(set));
        }
        if (sets.empty()) {
          std::cerr << "kccc: batch file " << batch_path << " contains no -D sets\n";
          return 1;
        }
      }
      std::cout << "kccc: " << path << " — batch of " << sets.size() << " set(s), " << jobs
                << " worker(s)" << (cache_dir.empty() ? "" : ", cache-dir " + cache_dir)
                << (net.connect.empty() ? "" : ", via " + net.connect) << "\n";
      return RunBatch(source, sets, dev, cache_dir, jobs, net, tier);
    }

    // One load through a Context, whose cache_dir is the same artifact
    // directory a long-lived process uses: a corrupt artifact is quarantined
    // and a colliding one left in place, and both recompile.
    vcuda::Context ctx(dev);
    if (!cache_dir.empty()) ctx.set_cache_dir(cache_dir);
    const std::shared_ptr<vcuda::Module> module = ctx.LoadModule(source, opts);
    const kcc::CompiledModule& mod = module->compiled();

    std::cout << "kccc: " << path << "  (" << kcc::DefinesToString(opts.defines) << ")\n";
    if (!cache_dir.empty()) {
      const std::string artifact =
          kcc::ArtifactDir(cache_dir).PathFor(module->cache_key()->FileName());
      if (ctx.cache_stats().disk_hits > 0) {
        std::cout << "cache: disk hit (" << artifact << ")\n";
      } else {
        std::cout << "cache: miss — compiled in " << Format("%.3f", mod.compile_millis) << " ms"
                  << (std::filesystem::exists(artifact) ? ", stored " + artifact : std::string())
                  << "\n";
      }
    }
    if (mod.const_bytes) {
      std::cout << "constant segment: " << mod.const_bytes << " bytes in "
                << mod.constants.size() << " array(s)\n";
    }
    for (const auto& k : mod.kernels) {
      vgpu::Occupancy occ = vgpu::ComputeOccupancy(
          dev, vgpu::Dim3(block), static_cast<unsigned>(k.stats.reg_count),
          k.static_smem_bytes);
      std::cout << Format(
          "kernel %-24s instrs=%-5d regs=%-3d smem=%-5uB unrolled=%d folded=%d "
          "strength-reduced=%d\n",
          k.name.c_str(), k.stats.static_instrs, k.stats.reg_count, k.static_smem_bytes,
          k.stats.unrolled_loops, k.stats.folded_consts, k.stats.strength_reduced);
      std::cout << Format(
          "  occupancy on %s @ %u threads/block: %.0f%% (%u warps, %u blocks/SM, "
          "limited by %s)\n",
          dev.name.c_str(), block, occ.occupancy * 100.0, occ.active_warps, occ.blocks_per_sm,
          occ.limiter);
      if (dump_miniptx) std::cout << k.listing << "\n";
    }
    // --tier native: also make this specialization's shared object ready, so
    // a later process pointed at the same --cache-dir launches native from
    // the first call. A warm .nso reports as a disk hit with zero builds.
    if (tier == vgpu::ExecutionTier::kNative) {
      if (!native::ToolchainAvailable()) {
        std::cerr << "kccc: --tier native: no usable host C++ compiler; "
                     "decoded artifact only\n";
      } else {
        native::NativeEngine::Options nopts;
        nopts.cache_dir = cache_dir;
        native::NativeEngine engine(nopts);
        if (!engine.EnsureReady(*module->cache_key(), mod)) {
          std::cerr << "kccc: native artifact build failed\n";
        }
        PrintNativeReport(engine);
      }
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "kccc: " << e.what() << "\n";
    return 1;
  }
}
