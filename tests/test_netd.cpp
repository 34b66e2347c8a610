// The specialization service (netd): wire-protocol framing and malformed-input
// handling, the content-addressed artifact store's crash/corruption matrix
// (torn write, checksum flip, format-version bump, hash collision, concurrent
// publishers), the RemoteCompileService's inherited executor semantics
// (single-flight coalescing, bounded-queue backpressure, deadlines) and its
// store/RPC/fallback fetch ladder, TieredLoader promotion through the remote
// service, and the in-process SpecDaemon end to end: cross-process
// single-flight, per-tenant throttling, malformed requests, stats/shutdown
// control frames, restart with a warm store (zero recompiles), and hot-key
// prewarm after a restart with a cold store.
//
// Determinism: daemon tests never sleep-and-hope. The daemon object lives
// in-process, so tests pin its state by polling its stats gauges (e.g. "the
// blocker flight is submitted") before issuing the racing request, exactly
// like test_serve's OccupyWorker pattern.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "kcc/cache_key.hpp"
#include "kcc/serialize.hpp"
#include "netd/artifact_store.hpp"
#include "netd/daemon.hpp"
#include "netd/protocol.hpp"
#include "netd/remote_service.hpp"
#include "serve/compile_executor.hpp"
#include "support/serialize.hpp"
#include "support/status.hpp"
#include "support/temp_dir.hpp"
#include "vcuda/tiered.hpp"
#include "vcuda/vcuda.hpp"
#include "vgpu/device.hpp"

namespace kspec {
namespace {

namespace fs = std::filesystem;
using netd::ArtifactStore;
using netd::CompileReq;
using netd::DaemonOptions;
using netd::ErrorBody;
using netd::ErrorCode;
using netd::Frame;
using netd::FrameType;
using netd::RecvStatus;
using netd::RemoteCompileService;
using netd::RemoteServiceOptions;
using netd::SpecDaemon;

constexpr const char* kKernel = R"(
#ifndef N
#define N n
#endif
__kernel void f(float* out, int n) {
  float acc = 0.0f;
  for (int i = 0; i < N; i++) { acc += 1.0f; }
  out[threadIdx.x] = acc;
}
)";

kcc::CompileOptions OptsFor(int n) {
  kcc::CompileOptions opts;
  opts.defines["N"] = std::to_string(n);
  return opts;
}

// A deliberately slow-to-compile specialization (fully unrolled many-iteration
// loop): the window it holds a worker or daemon flight open dwarfs the
// microseconds of protocol work raced against it.
kcc::CompileOptions BlockerOpts(int n = 20000) {
  kcc::CompileOptions opts = OptsFor(n);
  opts.max_unroll = n + 1;
  return opts;
}

kcc::ModuleCacheKey KeyFor(const kcc::CompileOptions& opts,
                           const std::string& device = "VC1060") {
  return kcc::ModuleCacheKey::Make(kKernel, opts, device);
}

vcuda::CompileRequest RequestFor(const kcc::CompileOptions& opts) {
  vcuda::CompileRequest req;
  req.source = kKernel;
  req.opts = opts;
  return req;
}

float RunOnce(vcuda::Context& ctx, vcuda::Module& mod, int n) {
  auto d_out = ctx.Malloc(32 * 4);
  vcuda::ArgPack args;
  args.Ptr(d_out).Int(n);
  ctx.Launch(mod, "f", vgpu::Dim3(1), vgpu::Dim3(32), args);
  float v = vcuda::Download<float>(ctx, d_out, 1)[0];
  ctx.Free(d_out);
  return v;
}

// A unique scratch directory (store dirs, daemon sockets), removed on scope
// exit. ScopedTempDir roots under /tmp (or TMPDIR) so the AF_UNIX socket path
// stays well inside sockaddr_un's ~108-byte limit regardless of the build
// tree's depth.
struct ScratchDir : ScopedTempDir {
  ScratchDir() : ScopedTempDir("kspec_netd_") { EXPECT_TRUE(valid()); }
};

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Deliberately non-atomic overwrite: tests forge the on-disk states a crashed
// or buggy publisher would leave behind.
void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

std::size_t CountEntriesMatching(const std::string& dir, const std::string& needle) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) ++n;
  }
  return n;
}

// A raw wire-protocol client against a daemon socket, with a retry loop on
// connect (the accept thread may still be coming up) and a generous receive
// timeout so a daemon bug fails the test instead of hanging it.
struct RawClient {
  int fd = -1;
  explicit RawClient(const std::string& socket_path) {
    for (int i = 0; i < 500 && fd < 0; ++i) {
      fd = netd::ConnectUnix(socket_path);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(fd, 0) << "could not connect to " << socket_path;
    if (fd >= 0) netd::SetRecvTimeout(fd, std::chrono::milliseconds(60000));
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool SendCompile(const std::string& tenant, const kcc::ModuleCacheKey& key,
                   std::uint32_t deadline_ms = 0) {
    CompileReq req;
    req.tenant = tenant;
    req.key_text = key.CanonicalText();
    req.deadline_ms = deadline_ms;
    return netd::SendFrame(fd, FrameType::kCompileReq, netd::EncodeCompileReq(req));
  }
};

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(NetdProtocol, CompileReqAndErrorBodiesRoundTrip) {
  CompileReq req;
  req.tenant = "tenant-7";
  req.key_text = KeyFor(OptsFor(9)).CanonicalText();  // binary-safe payload
  req.deadline_ms = 1234;
  std::vector<std::uint8_t> enc = netd::EncodeCompileReq(req);
  CompileReq back = netd::DecodeCompileReq(enc);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.key_text, req.key_text);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);

  // Trailing garbage is malformed, not silently ignored.
  enc.push_back(0x00);
  EXPECT_THROW(netd::DecodeCompileReq(enc), SerializeError);
  EXPECT_THROW(netd::DecodeCompileReq(std::vector<std::uint8_t>{0xFF}), SerializeError);

  ErrorBody err;
  err.code = ErrorCode::kThrottled;
  err.message = "quota";
  ErrorBody eback = netd::DecodeError(netd::EncodeError(err));
  EXPECT_EQ(eback.code, ErrorCode::kThrottled);
  EXPECT_EQ(eback.message, "quota");
}

TEST(NetdProtocol, FramesRoundTripAndRejectMalformedHeaders) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Empty-payload and binary-payload frames round trip.
  ASSERT_TRUE(netd::SendFrame(sv[0], FrameType::kPing, std::string()));
  std::vector<std::uint8_t> body = {0x00, 0x01, 0xFE, 0xFF};
  ASSERT_TRUE(netd::SendFrame(sv[0], FrameType::kArtifactResp,
                              std::span<const std::uint8_t>(body)));
  Frame f;
  ASSERT_EQ(netd::RecvFrame(sv[1], &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kPing);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_EQ(netd::RecvFrame(sv[1], &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kArtifactResp);
  EXPECT_EQ(f.payload, body);

  // Bad magic: malformed, not a crash.
  std::uint8_t junk[netd::kFrameHeaderBytes] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_EQ(::write(sv[0], junk, sizeof(junk)), static_cast<ssize_t>(sizeof(junk)));
  EXPECT_EQ(netd::RecvFrame(sv[1], &f), RecvStatus::kMalformed);
  ::close(sv[0]);
  ::close(sv[1]);

  // An over-large declared payload is rejected from the header alone.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::uint8_t huge[netd::kFrameHeaderBytes] = {};
  const std::uint32_t magic = netd::kFrameMagic;
  std::memcpy(huge, &magic, 4);
  huge[4] = netd::kProtocolVersion;
  huge[5] = static_cast<std::uint8_t>(FrameType::kCompileReq);
  const std::uint64_t too_big = netd::kMaxFramePayload + 1;
  std::memcpy(huge + 8, &too_big, 8);
  ASSERT_EQ(::write(sv[0], huge, sizeof(huge)), static_cast<ssize_t>(sizeof(huge)));
  EXPECT_EQ(netd::RecvFrame(sv[1], &f), RecvStatus::kTooLarge);

  // Clean EOF before any byte is kClosed (how an idle peer hangs up).
  ::close(sv[0]);
  EXPECT_EQ(netd::RecvFrame(sv[1], &f), RecvStatus::kClosed);
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// Artifact store: the crash/corruption matrix
// ---------------------------------------------------------------------------

TEST(NetdArtifactStore, PublishThenLoadRoundTrips) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(7));
  const kcc::ModuleCacheKey key = KeyFor(OptsFor(7));

  EXPECT_FALSE(store.Contains(key));
  EXPECT_EQ(store.Load(key), nullptr);  // miss, counted
  ASSERT_TRUE(store.Publish(key, mod->compiled()));
  EXPECT_TRUE(store.Contains(key));

  auto loaded = store.Load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->kernels.size(), mod->compiled().kernels.size());

  netd::StoreStats s = store.stats();
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt_quarantined, 0u);
  EXPECT_EQ(s.collisions, 0u);
}

// The store directory is a plain cache_dir: a Context pointed at it reads a
// store-published module as a disk hit, with no glue and no compile.
TEST(NetdArtifactStore, ContextCacheDirReadsTheStore) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  {
    vcuda::Context publisher(vgpu::TeslaC1060());
    auto mod = publisher.LoadModule(kKernel, OptsFor(7));
    ASSERT_TRUE(store.Publish(KeyFor(OptsFor(7)), mod->compiled()));
  }
  vcuda::Context reader(vgpu::TeslaC1060());
  reader.set_cache_dir(store.dir());
  auto mod = reader.LoadModule(kKernel, OptsFor(7));
  ASSERT_NE(mod, nullptr);
  const vcuda::CacheStats cs = reader.cache_stats();
  EXPECT_EQ(cs.disk_hits, 1u);
  EXPECT_EQ(cs.misses, 0u);
}

TEST(NetdArtifactStore, TornWriteIsQuarantinedAndRepublishable) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(8));
  const kcc::ModuleCacheKey key = KeyFor(OptsFor(8));
  ASSERT_TRUE(store.Publish(key, mod->compiled()));

  // A crashed publisher's torn write: the file ends mid-payload.
  const std::string path = store.PathFor(key);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() / 2);
  WriteAll(path, bytes);

  EXPECT_EQ(store.Load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
  EXPECT_FALSE(store.Contains(key)) << "a quarantined entry must not be re-read";
  EXPECT_EQ(CountEntriesMatching(store.dir(), ".bad."), 1u)
      << "the bad entry is renamed aside, not served";

  // The next publish lands cleanly on the vacated name.
  ASSERT_TRUE(store.Publish(key, mod->compiled()));
  EXPECT_NE(store.Load(key), nullptr);
}

TEST(NetdArtifactStore, ChecksumMismatchIsQuarantined) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(9));
  const kcc::ModuleCacheKey key = KeyFor(OptsFor(9));
  ASSERT_TRUE(store.Publish(key, mod->compiled()));

  const std::string path = store.PathFor(key);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes.back() ^= 0x5A;  // flip payload bits; header still parses
  WriteAll(path, bytes);

  EXPECT_EQ(store.Load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
  EXPECT_FALSE(store.Contains(key));
}

TEST(NetdArtifactStore, FormatVersionBumpIsTreatedAsMiss) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(10));
  const kcc::ModuleCacheKey key = KeyFor(OptsFor(10));
  ASSERT_TRUE(store.Publish(key, mod->compiled()));

  // An artifact from a future format version must never be half-parsed.
  const std::string path = store.PathFor(key);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  const std::uint32_t future_version = kcc::kModuleFormatVersion + 1;
  std::memcpy(bytes.data() + kcc::kFormatVersionOffset, &future_version, 4);
  WriteAll(path, bytes);

  EXPECT_EQ(store.Load(key), nullptr);
  EXPECT_EQ(store.stats().corrupt_quarantined, 1u);
  EXPECT_FALSE(store.Contains(key));
}

TEST(NetdArtifactStore, HashCollisionIsAMissButNotQuarantined) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(11));
  const kcc::ModuleCacheKey owner = KeyFor(OptsFor(11));
  const kcc::ModuleCacheKey other = KeyFor(OptsFor(12));
  ASSERT_TRUE(store.Publish(owner, mod->compiled()));

  // Forge a hash collision: a perfectly valid artifact for `owner` sitting at
  // `other`'s path. It belongs to its embedded key, so it is a miss for
  // `other` — but NOT corruption, and it must be left in place.
  fs::copy_file(store.PathFor(owner), store.PathFor(other));
  EXPECT_EQ(store.Load(other), nullptr);
  netd::StoreStats s = store.stats();
  EXPECT_EQ(s.collisions, 1u);
  EXPECT_EQ(s.corrupt_quarantined, 0u);
  EXPECT_TRUE(fs::exists(store.PathFor(other))) << "colliding entries are not destroyed";
}

TEST(NetdArtifactStore, PublishBytesRejectsAnArtifactForADifferentKey) {
  ScratchDir scratch;
  ArtifactStore store(scratch.File("store"));
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(13));
  const kcc::ModuleCacheKey real = KeyFor(OptsFor(13));
  const kcc::ModuleCacheKey victim = KeyFor(OptsFor(14));

  const std::vector<std::uint8_t> bytes =
      kcc::Serialize(mod->compiled(), real.CanonicalText());
  EXPECT_FALSE(store.PublishBytes(victim, bytes))
      << "a response for one key must not be publishable under another";
  EXPECT_FALSE(store.Contains(victim));
  EXPECT_TRUE(store.PublishBytes(real, bytes));
  EXPECT_NE(store.Load(real), nullptr);
}

TEST(NetdArtifactStore, ConcurrentPublishersOneFileAndReadersNeverSeePartialData) {
  constexpr int kPublishers = 6;
  constexpr int kReaders = 4;
  constexpr int kRounds = 25;

  ScratchDir scratch;
  const std::string dir = scratch.File("store");
  ArtifactStore writer_store(dir);
  ArtifactStore reader_store(dir);  // a second process's view of the same dir
  vcuda::Context ctx(vgpu::TeslaC1060());
  auto mod = ctx.LoadModule(kKernel, OptsFor(15));
  const kcc::ModuleCacheKey key = KeyFor(OptsFor(15));
  const std::size_t kernel_count = mod->compiled().kernels.size();

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_read{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto loaded = reader_store.Load(key);
        // Every read is all-or-nothing: a miss before the first publish, or a
        // complete validated artifact — never a torn one.
        if (loaded && loaded->kernels.size() != kernel_count) bad_read.store(true);
      }
    });
  }
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (!writer_store.Publish(key, mod->compiled())) bad_read.store(true);
      }
    });
  }
  for (auto& t : publishers) t.join();
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(bad_read.load());
  // Atomic renames mean readers can never hit a torn file, so the reader
  // store must have quarantined nothing.
  EXPECT_EQ(reader_store.stats().corrupt_quarantined, 0u);
  EXPECT_EQ(writer_store.stats().publishes,
            static_cast<std::uint64_t>(kPublishers * kRounds));

  // Exactly one artifact remains; every temp file was renamed or cleaned up.
  EXPECT_EQ(CountEntriesMatching(dir, ".kmod"), 1u);
  EXPECT_EQ(CountEntriesMatching(dir, ".tmp"), 0u);
  auto final_mod = reader_store.Load(key);
  ASSERT_NE(final_mod, nullptr);
  EXPECT_EQ(final_mod->kernels.size(), kernel_count);
}

// ---------------------------------------------------------------------------
// RemoteCompileService: the executor contract survives the subclassing
// ---------------------------------------------------------------------------

// With no daemon and no store, fallback_local compiles in-process — so the
// service must behave exactly like the local executor it subclasses.
RemoteServiceOptions LocalOnlyOptions(const std::string& store_dir = {}) {
  RemoteServiceOptions ro;
  ro.store_dir = store_dir;
  ro.workers = 1;
  ro.max_queue = 64;
  return ro;
}

vcuda::ModuleFuture OccupyWorker(serve::CompileExecutor& ex, vcuda::Context& ctx) {
  vcuda::SubmitResult r = ex.SubmitLoad(ctx, RequestFor(BlockerOpts()));
  EXPECT_EQ(r.status, vcuda::SubmitStatus::kScheduled);
  while (ex.queue_depth() != 0) std::this_thread::yield();
  return r.future;
}

TEST(RemoteService, SingleFlightCoalescingAndStorePublishOnFallback) {
  ScratchDir scratch;
  vcuda::Context ctx(vgpu::TeslaC1060());
  RemoteCompileService svc(LocalOnlyOptions(scratch.File("store")));
  auto blocker = OccupyWorker(svc, ctx);

  std::vector<vcuda::ModuleFuture> futures;
  for (int i = 0; i < 16; ++i) {
    vcuda::SubmitResult r = svc.SubmitLoad(ctx, RequestFor(OptsFor(7)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.status, i == 0 ? vcuda::SubmitStatus::kScheduled
                               : vcuda::SubmitStatus::kCoalesced);
    futures.push_back(r.future);
  }
  svc.Drain();

  std::shared_ptr<vcuda::Module> first = futures[0].get();
  ASSERT_NE(first, nullptr);
  for (auto& f : futures) EXPECT_EQ(f.get(), first);
  EXPECT_FLOAT_EQ(RunOnce(ctx, *first, 7), 7.0f);

  serve::ServeStats s = svc.stats();
  EXPECT_EQ(s.submitted, 17u);
  EXPECT_EQ(s.coalesced, 15u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.submitted, s.coalesced + s.completed + s.rejected);
  EXPECT_EQ(ctx.cache_stats().misses, 2u);  // exactly one compile per key

  // Both fallback compiles were published for the rest of the fleet.
  netd::RemoteStats rs = svc.remote_stats();
  EXPECT_EQ(rs.local_fallbacks, 2u);
  EXPECT_EQ(rs.store_hits, 0u);
  ArtifactStore probe(scratch.File("store"));
  EXPECT_TRUE(probe.Contains(KeyFor(OptsFor(7))));
  EXPECT_TRUE(probe.Contains(KeyFor(BlockerOpts())));
}

TEST(RemoteService, SecondProcessAdoptsFromTheStoreWithoutCompiling) {
  ScratchDir scratch;
  const std::string store_dir = scratch.File("store");
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    RemoteCompileService svc(LocalOnlyOptions(store_dir));
    vcuda::SubmitResult r = svc.SubmitLoad(ctx, RequestFor(OptsFor(21)));
    ASSERT_TRUE(r.ok());
    ASSERT_NE(r.future.get(), nullptr);
  }

  // "Another process": fresh context, fresh service, same store directory.
  vcuda::Context ctx2(vgpu::TeslaC1060());
  RemoteCompileService svc2(LocalOnlyOptions(store_dir));
  vcuda::SubmitResult r = svc2.SubmitLoad(ctx2, RequestFor(OptsFor(21)));
  ASSERT_TRUE(r.ok());
  auto mod = r.future.get();
  ASSERT_NE(mod, nullptr);
  EXPECT_FLOAT_EQ(RunOnce(ctx2, *mod, 21), 21.0f);

  EXPECT_EQ(ctx2.cache_stats().misses, 0u) << "the compile must come from the store";
  EXPECT_EQ(ctx2.cache_stats().adopted, 1u);
  netd::RemoteStats rs = svc2.remote_stats();
  EXPECT_EQ(rs.store_hits, 1u);
  EXPECT_EQ(rs.local_fallbacks, 0u);
}

TEST(RemoteService, BoundedQueueAndDeadlinesMatchTheLocalExecutor) {
  ScratchDir scratch;
  vcuda::Context ctx(vgpu::TeslaC1060());
  RemoteServiceOptions ro = LocalOnlyOptions(scratch.File("store"));
  ro.max_queue = 2;
  RemoteCompileService svc(ro);
  auto blocker = OccupyWorker(svc, ctx);

  EXPECT_EQ(svc.SubmitLoad(ctx, RequestFor(OptsFor(31))).status,
            vcuda::SubmitStatus::kScheduled);
  EXPECT_EQ(svc.SubmitLoad(ctx, RequestFor(OptsFor(32))).status,
            vcuda::SubmitStatus::kScheduled);
  vcuda::SubmitResult rejected = svc.SubmitLoad(ctx, RequestFor(OptsFor(33)));
  EXPECT_EQ(rejected.status, vcuda::SubmitStatus::kRejected);
  EXPECT_FALSE(rejected.ok());
  svc.Drain();  // reopen the queue before the deadline check

  // An already-expired deadline resolves null without paying any fetch.
  vcuda::CompileRequest late = RequestFor(OptsFor(34));
  late.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  vcuda::SubmitResult r = svc.SubmitLoad(ctx, late);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.future.get(), nullptr);

  svc.Drain();
  serve::ServeStats s = svc.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.submitted, s.coalesced + s.completed + s.rejected);
}

TEST(RemoteService, NoDaemonNoFallbackFailsTheFlightLoudly) {
  RemoteServiceOptions ro;  // no socket, no store
  ro.workers = 1;
  ro.fallback_local = false;
  RemoteCompileService svc(ro);
  vcuda::Context ctx(vgpu::TeslaC1060());

  vcuda::SubmitResult r = svc.SubmitLoad(ctx, RequestFor(OptsFor(41)));
  ASSERT_TRUE(r.ok());
  EXPECT_THROW(r.future.get(), Error);
  svc.Drain();
  EXPECT_EQ(svc.stats().failed, 1u);
  EXPECT_EQ(ctx.cache_stats().misses, 0u);
}

TEST(RemoteService, TieredLoaderPromotesThroughTheRemoteServiceUnchanged) {
  ScratchDir scratch;
  const std::string store_dir = scratch.File("store");
  {
    vcuda::Context ctx(vgpu::TeslaC1060());
    RemoteCompileService svc(LocalOnlyOptions(store_dir));
    ctx.set_async_service(&svc);
    vcuda::TieredLoader tiered(&ctx, kKernel, /*hot_threshold=*/1);
    auto opts = OptsFor(9);

    auto first = tiered.Get(opts);  // hot at once: schedules, serves RE
    EXPECT_EQ(first->GetKernel("f").stats.unrolled_loops, 0);
    svc.Drain();
    auto promoted = tiered.Get(opts);
    EXPECT_TRUE(tiered.IsSpecialized(opts));
    EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
    EXPECT_FLOAT_EQ(RunOnce(ctx, *promoted, 9), 9.0f);
    ctx.set_async_service(nullptr);
  }

  // A second process's TieredLoader promotes from the store: the promotion is
  // adopted, not recompiled.
  vcuda::Context ctx2(vgpu::TeslaC1060());
  RemoteCompileService svc2(LocalOnlyOptions(store_dir));
  ctx2.set_async_service(&svc2);
  vcuda::TieredLoader tiered2(&ctx2, kKernel, /*hot_threshold=*/1);
  auto first = tiered2.Get(OptsFor(9));
  svc2.Drain();
  auto promoted = tiered2.Get(OptsFor(9));
  EXPECT_TRUE(tiered2.IsSpecialized(OptsFor(9)));
  EXPECT_EQ(promoted->GetKernel("f").stats.unrolled_loops, 1);
  EXPECT_EQ(svc2.remote_stats().store_hits, 1u);
  EXPECT_EQ(ctx2.cache_stats().adopted, 1u);
  ctx2.set_async_service(nullptr);
}

// ---------------------------------------------------------------------------
// SpecDaemon end to end (in-process)
// ---------------------------------------------------------------------------

DaemonOptions BaseDaemonOptions(const ScratchDir& scratch, const std::string& sock) {
  DaemonOptions d;
  d.socket_path = scratch.File(sock);
  d.store_dir = scratch.File("store");
  d.workers = 2;
  return d;
}

// Polls a daemon gauge until `pred` holds; fails the test on timeout.
template <typename Pred>
void AwaitDaemon(Pred pred, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out awaiting " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetdDaemon, CrossProcessSingleFlightCompilesOnceAndPublishesOnce) {
  ScratchDir scratch;
  SpecDaemon daemon(BaseDaemonOptions(scratch, "d.sock"));
  daemon.Start();
  const kcc::ModuleCacheKey key = KeyFor(BlockerOpts());

  // Tenant "a" starts the flight; once the daemon has scheduled it (the
  // compile runs for tens of milliseconds), tenant "b" asks for the same key.
  RawClient a(daemon.socket_path());
  ASSERT_TRUE(a.SendCompile("a", key));
  AwaitDaemon([&] { return daemon.serve_stats().submitted >= 1; }, "flight scheduled");

  RawClient b(daemon.socket_path());
  ASSERT_TRUE(b.SendCompile("b", key));
  AwaitDaemon([&] { return daemon.serve_stats().submitted >= 2; }, "second submit");

  Frame fa, fb;
  ASSERT_EQ(netd::RecvFrame(a.fd, &fa), RecvStatus::kOk);
  ASSERT_EQ(netd::RecvFrame(b.fd, &fb), RecvStatus::kOk);
  ASSERT_EQ(fa.type, FrameType::kArtifactResp);
  ASSERT_EQ(fb.type, FrameType::kArtifactResp);
  EXPECT_EQ(fa.payload, fb.payload) << "both tenants share one artifact";

  // The artifact is a valid envelope for exactly this key.
  std::string embedded;
  kcc::CompiledModule mod = kcc::Deserialize(fa.payload, &embedded);
  EXPECT_EQ(embedded, key.CanonicalText());
  EXPECT_GE(mod.kernels.size(), 1u);

  netd::DaemonStats d = daemon.daemon_stats();
  EXPECT_EQ(d.requests, 2u);
  EXPECT_EQ(d.compiled, 1u) << "one compile fleet-wide";
  EXPECT_EQ(d.cross_process_coalesced, 1u);
  EXPECT_EQ(d.store_hits, 0u);
  // Both coalesced handlers may race the publish (atomic rename makes that
  // safe), but the store converges on exactly one artifact either way.
  EXPECT_GE(daemon.store_stats().publishes, 1u);
  EXPECT_EQ(CountEntriesMatching(scratch.File("store"), ".kmod"), 1u);

  // A third request for the now-published key is a pure store hit.
  RawClient c(daemon.socket_path());
  ASSERT_TRUE(c.SendCompile("c", key));
  Frame fc;
  ASSERT_EQ(netd::RecvFrame(c.fd, &fc), RecvStatus::kOk);
  EXPECT_EQ(fc.type, FrameType::kArtifactResp);
  d = daemon.daemon_stats();
  EXPECT_EQ(d.store_hits, 1u);
  EXPECT_EQ(d.compiled, 1u) << "the store hit must not recompile";

  // Per-tenant accounting reached the merged ServeStats.
  serve::ServeStats s = daemon.serve_stats();
  EXPECT_EQ(s.tenants.at("a").submitted + s.tenants.at("b").submitted, 2u);
  EXPECT_EQ(s.coalesced, 1u);

  daemon.Stop();
  EXPECT_FALSE(daemon.running());
}

TEST(NetdDaemon, RemoteServiceAgainstLiveDaemonFetchesOverRpc) {
  ScratchDir scratch;
  SpecDaemon daemon(BaseDaemonOptions(scratch, "d.sock"));
  daemon.Start();

  // No store_dir on the client: every cold key must travel the RPC path.
  RemoteServiceOptions ro;
  ro.socket_path = daemon.socket_path();
  ro.tenant = "rpc-client";
  ro.workers = 2;
  RemoteCompileService svc(ro);
  vcuda::Context ctx(vgpu::TeslaC1060());

  vcuda::SubmitResult r = svc.SubmitLoad(ctx, RequestFor(OptsFor(51)));
  ASSERT_TRUE(r.ok());
  auto mod = r.future.get();
  ASSERT_NE(mod, nullptr);
  EXPECT_FLOAT_EQ(RunOnce(ctx, *mod, 51), 51.0f);

  EXPECT_EQ(ctx.cache_stats().misses, 0u) << "the daemon compiled, not this process";
  EXPECT_EQ(ctx.cache_stats().adopted, 1u);
  netd::RemoteStats rs = svc.remote_stats();
  EXPECT_EQ(rs.rpc_fetches, 1u);
  EXPECT_EQ(rs.local_fallbacks, 0u);
  EXPECT_EQ(daemon.daemon_stats().compiled, 1u);

  // A compile error comes back typed and rethrows at the client's future.
  vcuda::CompileRequest broken;
  broken.source = "__kernel void broken(";
  vcuda::SubmitResult bad = svc.SubmitLoad(ctx, broken);
  ASSERT_TRUE(bad.ok());
  EXPECT_THROW(bad.future.get(), CompileError);

  daemon.Stop();
}

TEST(NetdDaemon, OverQuotaTenantIsThrottledNotQueuedForever) {
  ScratchDir scratch;
  DaemonOptions opts = BaseDaemonOptions(scratch, "d.sock");
  opts.tenant_max_inflight = 1;
  opts.tenant_wait_cap = std::chrono::milliseconds(0);  // bounce immediately
  SpecDaemon daemon(opts);
  daemon.Start();

  // First request holds tenant "t"'s only slot for the whole blocker compile.
  RawClient first(daemon.socket_path());
  ASSERT_TRUE(first.SendCompile("t", KeyFor(BlockerOpts())));
  AwaitDaemon([&] { return daemon.serve_stats().submitted >= 1; }, "flight in progress");

  // Same tenant, different key: over quota, bounced with kThrottled.
  RawClient second(daemon.socket_path());
  ASSERT_TRUE(second.SendCompile("t", KeyFor(OptsFor(61))));
  Frame f;
  ASSERT_EQ(netd::RecvFrame(second.fd, &f), RecvStatus::kOk);
  ASSERT_EQ(f.type, FrameType::kErrorResp);
  EXPECT_EQ(netd::DecodeError(f.payload).code, ErrorCode::kThrottled);

  // A different tenant is not collateral damage of "t"'s quota.
  RawClient other(daemon.socket_path());
  ASSERT_TRUE(other.SendCompile("u", KeyFor(OptsFor(62))));
  Frame fo;
  ASSERT_EQ(netd::RecvFrame(other.fd, &fo), RecvStatus::kOk);
  EXPECT_EQ(fo.type, FrameType::kArtifactResp);

  // The throttled tenant's original request still completes.
  ASSERT_EQ(netd::RecvFrame(first.fd, &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kArtifactResp);

  netd::DaemonStats d = daemon.daemon_stats();
  EXPECT_EQ(d.throttled, 1u);
  serve::ServeStats s = daemon.serve_stats();
  EXPECT_EQ(s.throttled, 1u);
  EXPECT_EQ(s.tenants.at("t").throttled, 1u);
  daemon.Stop();
}

TEST(NetdDaemon, MalformedRequestsAnswerBadRequestAndKeepTheConnection) {
  ScratchDir scratch;
  SpecDaemon daemon(BaseDaemonOptions(scratch, "d.sock"));
  daemon.Start();

  RawClient client(daemon.socket_path());
  // Garbage CompileReq payload: typed kBadRequest, connection survives.
  std::vector<std::uint8_t> junk = {0xFF, 0xFE, 0xFD};
  ASSERT_TRUE(netd::SendFrame(client.fd, FrameType::kCompileReq,
                              std::span<const std::uint8_t>(junk)));
  Frame f;
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  ASSERT_EQ(f.type, FrameType::kErrorResp);
  EXPECT_EQ(netd::DecodeError(f.payload).code, ErrorCode::kBadRequest);

  // A well-formed key naming a device this daemon cannot create.
  kcc::ModuleCacheKey key = KeyFor(OptsFor(71), "NoSuchGPU");
  ASSERT_TRUE(client.SendCompile("t", key));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  ASSERT_EQ(f.type, FrameType::kErrorResp);
  EXPECT_EQ(netd::DecodeError(f.payload).code, ErrorCode::kBadRequest);

  // The connection is still serviceable after both errors.
  ASSERT_TRUE(netd::SendFrame(client.fd, FrameType::kPing, std::string()));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kOkResp);
  EXPECT_EQ(daemon.daemon_stats().errors, 2u);

  // A corrupted frame header, by contrast, is unrecoverable: the daemon
  // reports it once, then hangs up rather than resynchronize a byte stream
  // it cannot trust.
  std::uint8_t garbage[netd::kFrameHeaderBytes] = {0x00, 0x11, 0x22};
  ASSERT_EQ(::write(client.fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  ASSERT_EQ(f.type, FrameType::kErrorResp);
  EXPECT_EQ(netd::DecodeError(f.payload).code, ErrorCode::kBadRequest);
  EXPECT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kClosed);
  daemon.Stop();
}

TEST(NetdDaemon, PingStatsAndShutdownControlFrames) {
  ScratchDir scratch;
  SpecDaemon daemon(BaseDaemonOptions(scratch, "d.sock"));
  daemon.Start();
  EXPECT_TRUE(daemon.running());

  RawClient client(daemon.socket_path());
  Frame f;
  ASSERT_TRUE(netd::SendFrame(client.fd, FrameType::kPing, std::string()));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kOkResp);

  ASSERT_TRUE(netd::SendFrame(client.fd, FrameType::kStatsReq, std::string()));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  ASSERT_EQ(f.type, FrameType::kStatsResp);
  const std::string json(f.payload.begin(), f.payload.end());
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"store\""), std::string::npos);
  EXPECT_NE(json.find("\"daemon\""), std::string::npos);

  ASSERT_TRUE(netd::SendFrame(client.fd, FrameType::kShutdownReq, std::string()));
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kOkResp);

  daemon.Wait();  // returns because of the shutdown request
  daemon.Stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(fs::exists(daemon.socket_path())) << "Stop unlinks the socket";
}

TEST(NetdDaemon, RestartWithWarmStoreRecompilesNothing) {
  ScratchDir scratch;
  const std::vector<int> ns = {81, 82, 83};

  {
    SpecDaemon daemon(BaseDaemonOptions(scratch, "d1.sock"));
    daemon.Start();
    RawClient client(daemon.socket_path());
    for (int n : ns) {
      ASSERT_TRUE(client.SendCompile("warmup", KeyFor(OptsFor(n))));
      Frame f;
      ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
      ASSERT_EQ(f.type, FrameType::kArtifactResp) << "N=" << n;
    }
    EXPECT_EQ(daemon.daemon_stats().compiled, ns.size());
    daemon.Stop();
  }

  // Same store, new daemon: every key is served from disk, zero recompiles.
  SpecDaemon daemon(BaseDaemonOptions(scratch, "d2.sock"));
  daemon.Start();
  RawClient client(daemon.socket_path());
  for (int n : ns) {
    ASSERT_TRUE(client.SendCompile("after-restart", KeyFor(OptsFor(n))));
    Frame f;
    ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
    ASSERT_EQ(f.type, FrameType::kArtifactResp) << "N=" << n;
  }
  netd::DaemonStats d = daemon.daemon_stats();
  EXPECT_EQ(d.compiled, 0u) << "a warm store means zero recompiles";
  EXPECT_EQ(d.store_hits, ns.size());
  // The persisted hot keys were already on disk, so the startup prewarm had
  // nothing to do either.
  EXPECT_EQ(d.prewarm_submitted, 0u);
  daemon.Stop();
}

TEST(NetdDaemon, PersistedHotKeysArePrewarmedAfterRestart) {
  ScratchDir scratch;
  const kcc::ModuleCacheKey hot = KeyFor(OptsFor(91));

  {
    SpecDaemon daemon(BaseDaemonOptions(scratch, "d1.sock"));
    daemon.Start();
    RawClient client(daemon.socket_path());
    for (int i = 0; i < 3; ++i) {  // make the key unambiguously hot
      ASSERT_TRUE(client.SendCompile("traffic", hot));
      Frame f;
      ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
      ASSERT_EQ(f.type, FrameType::kArtifactResp);
    }
    daemon.Stop();  // persists the per-key counts next to the store
  }

  // Simulate an artifact-store wipe (e.g. a format bump) that left the
  // telemetry intact: the new daemon must re-specialize the hot key *before*
  // traffic asks for it.
  const std::string artifact = scratch.File("store") + "/" + hot.FileName();
  ASSERT_TRUE(fs::remove(artifact));

  SpecDaemon daemon(BaseDaemonOptions(scratch, "d2.sock"));
  daemon.Start();
  AwaitDaemon([&] { return fs::exists(artifact); }, "prewarm to publish the hot key");
  EXPECT_GE(daemon.daemon_stats().prewarm_submitted, 1u);

  // The first real request after the restart is already a store hit.
  RawClient client(daemon.socket_path());
  ASSERT_TRUE(client.SendCompile("traffic", hot));
  Frame f;
  ASSERT_EQ(netd::RecvFrame(client.fd, &f), RecvStatus::kOk);
  EXPECT_EQ(f.type, FrameType::kArtifactResp);
  EXPECT_EQ(daemon.daemon_stats().store_hits, 1u);
  daemon.Stop();
}

}  // namespace
}  // namespace kspec
