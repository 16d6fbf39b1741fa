/**
 * @file
 * Tests for the observability layer (src/obs) and the tools built on
 * top of it:
 *
 *  1. MetricsRegistry unit behaviour (stability tags, eviction).
 *  2. Cross-layer counter wiring: sim/driver counters match the
 *     simulator's native statistics for a real workload.
 *  3. Exact-only metrics snapshots are bit-identical across all four
 *     engine configurations ({serial, parallel} x {decode, predecode}).
 *  4. Channel protocol stress test with host-memory hooks and
 *     concurrent producers (ordering, drop accounting, reuse across
 *     flushes).
 *  5. Chrome trace-event output is well-formed JSON with the expected
 *     track metadata and event schema.
 *  6. mem_trace over the channel transport produces identical trace
 *     content and drop accounting to the managed-buffer transport.
 *  7. BBV profiler per-interval totals match the uninstrumented
 *     simulator oracle, and the SimPoint `.bb` output is well-formed.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "obs/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/gpu.hpp"
#include "tools/bbv_profiler.hpp"
#include "tools/mem_trace.hpp"

namespace nvbit {
namespace {

using namespace cudrv;

// ---------------------------------------------------------------------
// Shared workload
// ---------------------------------------------------------------------

/** Strided-load kernel with a divergent guard. */
const char *kStrideKernel = R"(
.visible .entry stride_read(.param .u64 in, .param .u64 out,
                            .param .u32 stride, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    ld.param.u32 %r5, [stride];
    mul.lo.u32 %r6, %r3, %r5;
    ld.param.u64 %rd1, [in];
    mul.wide.u32 %rd2, %r6, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    ld.param.u64 %rd4, [out];
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd6, %rd4, %rd5;
    st.global.f32 [%rd6], %f1;
DONE:
    exit;
}
)";

/** Launch stride_read once per entry of @p ns, recording the native
 *  per-launch stats of each launch. */
struct StrideApp {
    std::vector<uint32_t> ns{300};
    uint32_t stride = 2;
    std::vector<sim::LaunchStats> per_launch;

    void
    operator()()
    {
        per_launch.clear();
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kStrideKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "stride_read"), "get");
        uint32_t max_n = 0;
        for (uint32_t n : ns)
            max_n = std::max(max_n, n);
        CUdeviceptr in, out;
        checkCu(cuMemAlloc(&in,
                           static_cast<size_t>(max_n) * stride * 4 + 4),
                "alloc");
        checkCu(cuMemAlloc(&out, max_n * 4), "alloc");
        for (uint32_t n : ns) {
            void *params[] = {&in, &out, &stride, &n};
            checkCu(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1,
                                   0, nullptr, params, nullptr),
                    "launch");
            per_launch.push_back(lastLaunchStats());
        }
    }
};

class PassiveTool : public NvbitTool
{};

class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("NVBIT_SIM_EXEC");
        unsetenv("NVBIT_SIM_PREDECODE");
        obs::MetricsRegistry::instance().reset();
        resetDriver();
    }
    void
    TearDown() override
    {
        obs::MetricsRegistry::instance().reset();
        resetDriver();
    }
};

// ---------------------------------------------------------------------
// 1. MetricsRegistry unit behaviour
// ---------------------------------------------------------------------

TEST_F(ObsTest, ExactOnlyJsonOmitsVolatileCounters)
{
    auto &mr = obs::MetricsRegistry::instance();
    mr.add("alpha", 3);
    mr.add("beta", 7, obs::Stability::Volatile);
    std::string full = mr.toJson(false);
    std::string exact = mr.toJson(true);
    EXPECT_NE(full.find("\"alpha\": 3"), std::string::npos);
    EXPECT_NE(full.find("\"beta\": 7"), std::string::npos);
    EXPECT_NE(exact.find("\"alpha\": 3"), std::string::npos);
    EXPECT_EQ(exact.find("beta"), std::string::npos);
    EXPECT_EQ(mr.value("alpha"), 3u);
    EXPECT_EQ(mr.value("never_touched"), 0u);
}

TEST_F(ObsTest, LaunchRecordHistoryIsBoundedWithEvictionCount)
{
    auto &mr = obs::MetricsRegistry::instance();
    constexpr size_t kCap = 4096;
    for (size_t i = 0; i < kCap + 100; ++i) {
        obs::LaunchRecord rec;
        rec.thread_instrs = i;
        mr.recordLaunch(std::move(rec));
    }
    mr.labelLastLaunch("tail_kernel");
    EXPECT_EQ(mr.launchCount(), kCap + 100);
    auto kept = mr.launches();
    ASSERT_EQ(kept.size(), kCap);
    // Newest records survive, indices stay global.
    EXPECT_EQ(kept.front().index, 100u);
    EXPECT_EQ(kept.back().index, kCap + 99);
    EXPECT_EQ(kept.back().kernel, "tail_kernel");
    EXPECT_NE(mr.toJson().find("\"dropped_launch_records\": 100"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// 2. Cross-layer wiring against the simulator oracle
// ---------------------------------------------------------------------

TEST_F(ObsTest, CountersMatchSimulatorStatsForRealWorkload)
{
    StrideApp app;
    app.ns = {300, 256};
    PassiveTool tool;
    sim::LaunchStats totals;
    runApp(tool, [&] {
        app();
        totals = deviceTotalStats();
    });

    auto &mr = obs::MetricsRegistry::instance();
    EXPECT_EQ(mr.value("sim.launches"), 2u);
    EXPECT_EQ(mr.value("driver.launches"), 2u);
    EXPECT_EQ(mr.value("sim.thread_instrs"), totals.thread_instrs);
    EXPECT_EQ(mr.value("sim.warp_instrs"), totals.warp_instrs);
    EXPECT_EQ(mr.value("sim.ctas"), totals.ctas);
    EXPECT_EQ(mr.value("sim.global_mem_warp_instrs"),
              totals.global_mem_warp_instrs);
    EXPECT_GE(mr.value("driver.module_loads"), 1u);

    // Per-launch records: labelled, in order, shards sum to the total.
    auto launches = mr.launches();
    ASSERT_EQ(launches.size(), 2u);
    uint64_t threads = 0;
    for (size_t i = 0; i < launches.size(); ++i) {
        EXPECT_EQ(launches[i].index, i);
        EXPECT_EQ(launches[i].kernel, "stride_read");
        EXPECT_EQ(launches[i].thread_instrs,
                  app.per_launch[i].thread_instrs);
        EXPECT_EQ(launches[i].cycles, app.per_launch[i].cycles);
        uint64_t shard_threads = 0, shard_ctas = 0;
        for (const auto &s : launches[i].sms) {
            shard_threads += s.thread_instrs;
            shard_ctas += s.ctas;
        }
        EXPECT_EQ(shard_threads, launches[i].thread_instrs);
        EXPECT_EQ(shard_ctas, launches[i].ctas);
        threads += launches[i].thread_instrs;
    }
    EXPECT_EQ(threads, totals.thread_instrs);
}

// ---------------------------------------------------------------------
// 3. Snapshot determinism across engine configurations
// ---------------------------------------------------------------------

TEST_F(ObsTest, ExactSnapshotIdenticalAcrossEngineConfigs)
{
    auto runOnce = [&](sim::ExecMode mode, bool predecode) {
        obs::MetricsRegistry::instance().reset();
        resetDriver();
        sim::GpuConfig cfg;
        cfg.exec_mode = mode;
        cfg.use_predecode = predecode;
        setDeviceConfig(cfg);
        StrideApp app;
        app.ns = {300, 256};
        PassiveTool tool;
        runApp(tool, [&] { app(); });
        return obs::MetricsRegistry::instance().toJson(true);
    };

    std::string base = runOnce(sim::ExecMode::Serial, false);
    EXPECT_NE(base.find("sim.launches"), std::string::npos);
    EXPECT_EQ(base, runOnce(sim::ExecMode::Serial, true));
    EXPECT_EQ(base, runOnce(sim::ExecMode::Parallel, false));
    EXPECT_EQ(base, runOnce(sim::ExecMode::Parallel, true));
}

// ---------------------------------------------------------------------
// 4. Channel protocol stress test (host-memory hooks)
// ---------------------------------------------------------------------

/** Host-memory implementation of the device side of the channel. */
struct HostRing {
    explicit HostRing(uint64_t capacity)
        : cap(capacity), ring(capacity, 0)
    {}

    /** Same claim/drop protocol as the generated `<p>_push` PTX. */
    void
    push(uint64_t value)
    {
        uint64_t slot = head.fetch_add(1, std::memory_order_relaxed);
        if (slot < cap)
            ring[slot] = value;
    }

    obs::ChannelHooks
    hooks()
    {
        obs::ChannelHooks h;
        h.read_global = [this](const std::string &name) -> uint64_t {
            if (name == "tst_head")
                return head.load(std::memory_order_relaxed);
            if (name == "tst_cap")
                return cap;
            ADD_FAILURE() << "unexpected global read: " << name;
            return 0;
        };
        h.write_global = [this](const std::string &name, uint64_t v) {
            ASSERT_EQ(name, "tst_head");
            head.store(v, std::memory_order_relaxed);
        };
        h.read_records = [this](uint64_t n, uint64_t *out) {
            std::copy(ring.begin(), ring.begin() + n, out);
        };
        return h;
    }

    uint64_t cap;
    std::atomic<uint64_t> head{0};
    std::vector<uint64_t> ring;
};

TEST_F(ObsTest, ChannelStressKeepsPerProducerOrderAcrossFlushes)
{
    constexpr int kProducers = 4;
    constexpr uint64_t kPerRound = 1000;
    constexpr int kRounds = 3;

    HostRing ring(kProducers * kPerRound + 64);
    std::vector<uint64_t> delivered;
    obs::ChannelHost host;
    host.start(obs::ChannelConfig{"tst", ring.cap}, ring.hooks(),
               [&](const uint64_t *records, uint64_t count) {
                   delivered.insert(delivered.end(), records,
                                    records + count);
               });

    uint64_t expected_total = 0;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p, round] {
                for (uint64_t i = 0; i < kPerRound; ++i) {
                    // producer id in the high bits, sequence below.
                    uint64_t seq = round * kPerRound + i;
                    ring.push((static_cast<uint64_t>(p) << 48) | seq);
                }
            });
        }
        for (auto &t : producers)
            t.join();
        // Quiescent point (the launch-exit analogue): drain.
        host.flush();
        expected_total += kProducers * kPerRound;
        EXPECT_EQ(host.received(), expected_total);
        EXPECT_EQ(host.dropped(), 0u);
        EXPECT_EQ(ring.head.load(), 0u) << "head reset after drain";
    }
    host.stop();

    ASSERT_EQ(delivered.size(), expected_total);
    // Slot order preserves each producer's program order: sequence
    // numbers must be strictly increasing per producer.
    std::vector<int64_t> last_seq(kProducers, -1);
    for (uint64_t rec : delivered) {
        int p = static_cast<int>(rec >> 48);
        int64_t seq = static_cast<int64_t>(rec & 0xffffffffffffULL);
        ASSERT_LT(p, kProducers);
        EXPECT_GT(seq, last_seq[p]);
        last_seq[p] = seq;
    }
    for (int p = 0; p < kProducers; ++p)
        EXPECT_EQ(last_seq[p], kRounds * kPerRound - 1);
}

TEST_F(ObsTest, ChannelCountsDropsWhenRingOverflows)
{
    HostRing ring(64);
    std::vector<uint64_t> delivered;
    obs::ChannelHost host;
    host.start(obs::ChannelConfig{"tst", ring.cap}, ring.hooks(),
               [&](const uint64_t *records, uint64_t count) {
                   delivered.insert(delivered.end(), records,
                                    records + count);
               });
    for (uint64_t i = 0; i < 100; ++i)
        ring.push(i);
    host.flush();
    EXPECT_EQ(host.received(), 64u);
    EXPECT_EQ(host.dropped(), 36u);
    ASSERT_EQ(delivered.size(), 64u);
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(delivered[i], i);

    // The ring is reusable after an overflow.
    ring.push(777);
    host.flush();
    EXPECT_EQ(host.received(), 65u);
    EXPECT_EQ(host.dropped(), 36u);
    EXPECT_EQ(delivered.back(), 777u);
    host.stop();
}

// ---------------------------------------------------------------------
// 5. Trace-event JSON schema
// ---------------------------------------------------------------------

/**
 * Minimal JSON reader for the trace checks: splits the traceEvents
 * array into per-event raw object strings and extracts scalar fields.
 * (Deliberately not a general parser; the tracer's encoder emits one
 * object per line.)
 */
struct TraceFile {
    std::vector<std::string> events;

    static TraceFile
    load(const std::string &path)
    {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        TraceFile tf;
        EXPECT_EQ(text.rfind("{\"traceEvents\": [", 0), 0u) << text;
        std::istringstream lines(text);
        std::string line;
        std::getline(lines, line); // header
        while (std::getline(lines, line)) {
            if (line.empty() || line[0] == ']')
                break;
            if (line.back() == ',')
                line.pop_back();
            EXPECT_EQ(line.front(), '{');
            EXPECT_EQ(line.back(), '}');
            tf.events.push_back(line);
        }
        return tf;
    }

    /** Value of a string field, or "" if absent. */
    static std::string
    strField(const std::string &ev, const std::string &key)
    {
        std::string pat = "\"" + key + "\": \"";
        size_t p = ev.find(pat);
        if (p == std::string::npos)
            return "";
        p += pat.size();
        return ev.substr(p, ev.find('"', p) - p);
    }

    static bool
    hasNumField(const std::string &ev, const std::string &key)
    {
        std::string pat = "\"" + key + "\": ";
        size_t p = ev.find(pat);
        if (p == std::string::npos)
            return false;
        char c = ev[p + pat.size()];
        return c == '-' || (c >= '0' && c <= '9');
    }

    size_t
    count(const std::string &key, const std::string &value) const
    {
        size_t n = 0;
        for (const auto &ev : events)
            if (strField(ev, key) == value)
                ++n;
        return n;
    }
};

TEST_F(ObsTest, TraceOutputHasExpectedTracksAndSchema)
{
    std::string path = "test_obs_trace.json";
    obs::Tracer::instance().enableToFile(path);
    {
        StrideApp app;
        app.ns = {300};
        PassiveTool tool;
        runApp(tool, [&] { app(); });
    }
    EXPECT_EQ(obs::Tracer::instance().disableAndFlush(), path);
    EXPECT_FALSE(obs::Tracer::instance().enabled());

    TraceFile tf = TraceFile::load(path);
    ASSERT_FALSE(tf.events.empty());

    size_t metadata = 0, completes = 0;
    for (const auto &ev : tf.events) {
        std::string ph = TraceFile::strField(ev, "ph");
        ASSERT_TRUE(ph == "X" || ph == "M" || ph == "i") << ev;
        EXPECT_TRUE(TraceFile::hasNumField(ev, "pid")) << ev;
        EXPECT_TRUE(TraceFile::hasNumField(ev, "tid")) << ev;
        EXPECT_TRUE(TraceFile::hasNumField(ev, "ts")) << ev;
        EXPECT_FALSE(TraceFile::strField(ev, "name").empty()) << ev;
        if (ph == "X") {
            ++completes;
            EXPECT_TRUE(TraceFile::hasNumField(ev, "dur")) << ev;
        }
        if (ph == "M")
            ++metadata;
        if (ph == "i")
            EXPECT_EQ(TraceFile::strField(ev, "s"), "g") << ev;
    }
    EXPECT_GE(metadata, 4u); // process names + host thread names
    EXPECT_GT(completes, 0u);

    // Track metadata and the per-layer categories.
    EXPECT_EQ(tf.count("name", "process_name"), 2u);
    EXPECT_GE(tf.count("name", "thread_name"), 3u); // api, jit, >=1 sm
    EXPECT_GE(tf.count("cat", "driver.launch"), 1u);
    EXPECT_GE(tf.count("cat", "driver.memcpy"), 0u);
    EXPECT_GE(tf.count("cat", "sim.cta"), 3u); // 300 threads = 3 CTAs
    EXPECT_GE(tf.count("name", "stride_read"), 1u);
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceMetadataPrecedesEventsWhateverThePushOrder)
{
    // A track named after an event was already pushed (as the stream
    // worker names its own track when it starts) is still listed with
    // the other metadata, ahead of every event.
    std::string path = "test_obs_trace_order.json";
    obs::Tracer &tr = obs::Tracer::instance();
    tr.enableToFile(path);
    tr.complete(obs::kHostPid, 7, "work", "test", 0, 1);
    tr.nameThread(obs::kHostPid, 7, "late track");
    EXPECT_EQ(tr.disableAndFlush(), path);

    TraceFile tf = TraceFile::load(path);
    ASSERT_FALSE(tf.events.empty());
    EXPECT_EQ(TraceFile::strField(tf.events.back(), "ph"), "X");
    EXPECT_EQ(TraceFile::strField(tf.events.back(), "name"), "work");
    size_t metadata = 0;
    for (const auto &ev : tf.events)
        if (TraceFile::strField(ev, "ph") == "M")
            ++metadata;
    EXPECT_EQ(metadata, tf.events.size() - 1);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// 6. mem_trace: channel transport == managed-buffer transport
// ---------------------------------------------------------------------

TEST_F(ObsTest, MemTraceChannelMatchesManagedBuffer)
{
    auto runTrace = [&](tools::MemTraceTool::Transport transport,
                        size_t capacity, uint64_t *recorded,
                        uint64_t *dropped) {
        resetDriver();
        StrideApp app;
        app.ns = {300, 256};
        tools::MemTraceTool tool(capacity, transport);
        std::vector<uint64_t> trace;
        tool.setConsumer([&](const std::vector<uint64_t> &addrs) {
            trace.insert(trace.end(), addrs.begin(), addrs.end());
        });
        runApp(tool, [&] { app(); });
        *recorded = tool.recorded();
        *dropped = tool.dropped();
        return trace;
    };

    // Large ring: nothing dropped, content identical.
    uint64_t rec_buf = 0, drop_buf = 0, rec_chn = 0, drop_chn = 0;
    auto buf = runTrace(tools::MemTraceTool::Transport::ManagedBuffer,
                        1 << 20, &rec_buf, &drop_buf);
    auto chn = runTrace(tools::MemTraceTool::Transport::Channel,
                        1 << 20, &rec_chn, &drop_chn);
    EXPECT_EQ(drop_buf, 0u);
    EXPECT_EQ(drop_chn, 0u);
    EXPECT_EQ(rec_buf, rec_chn);
    // 300+256 threads x (1 load + 1 store) accesses.
    EXPECT_EQ(rec_buf, 2u * (300 + 256));
    EXPECT_EQ(buf, chn);

    // Tiny ring: identical drop accounting and identical survivors.
    auto buf_s = runTrace(tools::MemTraceTool::Transport::ManagedBuffer,
                          64, &rec_buf, &drop_buf);
    auto chn_s = runTrace(tools::MemTraceTool::Transport::Channel, 64,
                          &rec_chn, &drop_chn);
    EXPECT_EQ(rec_buf, rec_chn);
    EXPECT_EQ(drop_buf, drop_chn);
    EXPECT_GT(drop_buf, 0u);
    EXPECT_EQ(rec_buf + drop_buf, 2u * (300 + 256));
    EXPECT_EQ(buf_s, chn_s);
}

// ---------------------------------------------------------------------
// 7. BBV profiler vs the uninstrumented oracle
// ---------------------------------------------------------------------

TEST_F(ObsTest, BbvIntervalTotalsMatchUninstrumentedOracle)
{
    StrideApp app;
    app.ns = {300, 256, 64}; // divergent, full, single-warp launches

    // Oracle: per-launch native stats from an uninstrumented run.
    std::vector<sim::LaunchStats> native;
    {
        PassiveTool p;
        runApp(p, [&] {
            app();
            native = app.per_launch;
        });
    }

    tools::BbvProfiler::Options opts;
    opts.interval_launches = 1;
    tools::BbvProfiler prof(opts);
    runApp(prof, [&] { app(); });

    EXPECT_EQ(prof.overflowedBlocks(), 0u);
    ASSERT_FALSE(prof.blocks().empty());
    ASSERT_EQ(prof.intervals().size(), native.size());
    for (size_t i = 0; i < native.size(); ++i) {
        EXPECT_EQ(prof.intervalInstrTotal(i), native[i].thread_instrs)
            << "interval " << i;
    }

    // The divergent launch must exercise both probe flavours: the
    // guard split makes at least one block non-uniform.
    bool any_uniform = false, any_predicated = false;
    for (const auto &b : prof.blocks()) {
        (b.uniform ? any_uniform : any_predicated) = true;
        EXPECT_GT(b.ninstrs, 0u);
        EXPECT_EQ(b.function, "stride_read");
    }
    EXPECT_TRUE(any_uniform);
    EXPECT_TRUE(any_predicated);

    // SimPoint line format: "T" then ":id:count" tokens.
    for (size_t i = 0; i < prof.intervals().size(); ++i) {
        std::string line = prof.simpointLine(i);
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line[0], 'T');
        uint64_t sum = 0;
        std::istringstream is(line.substr(1));
        std::string tok;
        while (is >> tok) {
            unsigned id = 0;
            unsigned long long count = 0;
            ASSERT_EQ(std::sscanf(tok.c_str(), ":%u:%llu", &id, &count),
                      2)
                << tok;
            EXPECT_GE(id, 1u);
            sum += count;
        }
        EXPECT_EQ(sum, prof.intervalInstrTotal(i));
    }
}

TEST_F(ObsTest, BbvWritesSimpointCompatibleFiles)
{
    StrideApp app;
    app.ns = {256, 256, 256, 256};

    tools::BbvProfiler::Options opts;
    opts.output_prefix = "test_obs_bbv";
    opts.interval_launches = 2; // 4 launches -> 2 intervals
    tools::BbvProfiler prof(opts);
    runApp(prof, [&] { app(); });

    ASSERT_EQ(prof.intervals().size(), 2u);
    EXPECT_EQ(prof.intervals()[0], prof.intervals()[1]);

    std::ifstream bb("test_obs_bbv.bb");
    ASSERT_TRUE(bb.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(bb, line)) {
        if (line.empty())
            continue;
        EXPECT_EQ(line[0], 'T');
        ++lines;
    }
    EXPECT_EQ(lines, 2u);

    std::ifstream map("test_obs_bbv.bbmap");
    ASSERT_TRUE(map.good());
    std::getline(map, line);
    EXPECT_EQ(line[0], '#');
    size_t rows = 0;
    while (std::getline(map, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, prof.blocks().size());
    std::remove("test_obs_bbv.bb");
    std::remove("test_obs_bbv.bbmap");
}

} // namespace
} // namespace nvbit
