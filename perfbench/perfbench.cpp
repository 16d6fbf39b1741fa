/**
 * @file
 * perfbench — the end-to-end and per-layer benchmark of the NVBit
 * reproduction (see README.md in this directory).
 *
 * Every workload runs in-process through runApp(), the path
 * `nvbit_run --tool T W` takes, on the serial simulator engine, and
 * every output is checked against recorded simulator oracles.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --expect FILE [--size test] [--out FILE]
 *   perfbench --record          print the oracle table (expected.tsv)
 *
 * --trace 0 measures the end-to-end metrics.  --trace 1 also runs
 * every member (on mt-streams, every pass) a second time with its tool
 * wrapped by TracingTool, interleaved with the untraced runs.
 * TracingTool times every driver-API call at the public callback
 * boundary and attributes host time to the driver, ptx, core, sim and
 * tools layers.  The last stdout line is one JSON object.
 */
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/timer.hpp"
#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "driver/module_image.hpp"
#include "obs/metrics.hpp"
#include "tools/instr_count.hpp"
#include "tools/mem_divergence.hpp"
#include "workloads/workloads.hpp"

#include "../bench/mt_loadgen.hpp"

extern char **environ;

using namespace nvbit;
using namespace nvbit::cudrv;
using workloads::ProblemSize;

namespace {

double
msSince(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

// --- Statistics ----------------------------------------------------------

/** Quantile with linear interpolation between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

size_t
countAbove(const std::vector<double> &v, double x)
{
    return static_cast<size_t>(
        std::count_if(v.begin(), v.end(), [&](double s) { return s > x; }));
}

/**
 * The per-launch tail percentile reported for @p workload: the highest
 * of p99/p90/p75 with at least ten launches beyond it in one traced
 * pass.  It is fixed per workload, so it does not depend on how many
 * passes fit in a run.
 */
double
launchTailPct(const std::string &workload)
{
    if (workload == "spec-icount")
        return 75.0; // 81 launches per pass
    if (workload == "ml-mdiv")
        return 90.0; // 152
    return 99.0;     // spec-passive 1378, mt-streams 6400
}

// --- Host fingerprint and environment hygiene ----------------------------

/** Drop every inherited NVBIT_SIM_* setting, then select the serial
 *  engine.  @return the names dropped. */
std::vector<std::string>
scrubSimEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        std::string_view kv(*e);
        if (kv.starts_with("NVBIT_SIM_"))
            names.emplace_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("NVBIT_SIM_EXEC", "serial", 1);
    return names;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

// --- Oracles -------------------------------------------------------------

/** Passive simulator statistics of one workload at one size. */
struct Expect {
    uint64_t thread_instrs = 0;
    uint64_t warp_instrs = 0;
    uint64_t cycles = 0;
    uint64_t unique_sectors = 0;
    uint64_t gmem_instrs = 0;
};

using ExpectTable = std::map<std::string, Expect>; // "member/size"

const char *
sizeName(ProblemSize s)
{
    switch (s) {
      case ProblemSize::Test: return "test";
      case ProblemSize::Medium: return "medium";
      case ProblemSize::Large: return "large";
    }
    return "?";
}

bool
loadExpect(const std::string &path, ExpectTable &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string member, size;
        Expect e;
        if (!(ls >> member >> size >> e.thread_instrs >> e.warp_instrs >>
              e.cycles >> e.unique_sectors >> e.gmem_instrs))
            return false;
        out[member + "/" + size] = e;
    }
    return !out.empty();
}

// --- Layer trace ---------------------------------------------------------

/** The NVBit JIT components, in JitStats order (the paper's six). */
enum JitPart { kRetrieve, kDisassemble, kLift, kUserCallback, kCodegen,
               kSwap, kJitParts };

using JitParts = std::array<uint64_t, kJitParts>;

/** The components of @p j; user_callback_ns is left 0 (TracingTool
 *  measures the wrapped tool's callbacks itself). */
JitParts
nestedJit(const JitStats &j)
{
    return {j.retrieve_ns, j.disassemble_ns, j.lift_ns, 0, j.codegen_ns,
            j.swap_ns};
}

uint64_t
sumNs(const JitParts &p)
{
    uint64_t s = 0;
    for (uint64_t v : p)
        s += v;
    return s;
}

/**
 * Host time and work attributed to layers.  Times exclude the NVBit
 * JIT that ran inside a call, which is charged to jit_ms, so the time
 * fields partition the spans they were measured on.
 */
struct Trace {
    double init_ms = 0;       ///< cuInit + cuCtxCreate (+ tool module load)
    double launch_ms = 0;     ///< cuLaunchKernel, JIT included
    double launch_jit_ms = 0; ///< JIT part of launch_ms
    double other_api_ms = 0;  ///< every other driver call
    double sync_ms = 0;       ///< synchronize calls (part of other_api_ms)
    double ptx_jit_ms = 0;    ///< cuModuleLoadData of PTX text
    double image_load_ms = 0; ///< cuModuleLoadData of binary images
    /// NVBit JIT inside driver calls, by JitPart.  kUserCallback is
    /// the wrapped tool's own driver-call callbacks.
    std::array<double, kJitParts> jit_ms{};
    double tools_ms = 0;      ///< tool construction, init/term, reads
    double teardown_ms = 0;   ///< runApp teardown after nvbit_at_term
    uint64_t calls = 0;
    uint64_t ptx_modules = 0;
    uint64_t backpressure = 0;
    std::vector<double> launch_samples_ms;
    std::vector<double> enqueue_samples_us; ///< launches on explicit streams

    /** Add @p o, with its times (not its counts) scaled by @p s. */
    void
    add(const Trace &o, double s = 1.0)
    {
        init_ms += s * o.init_ms;
        launch_ms += s * o.launch_ms;
        launch_jit_ms += s * o.launch_jit_ms;
        other_api_ms += s * o.other_api_ms;
        sync_ms += s * o.sync_ms;
        ptx_jit_ms += s * o.ptx_jit_ms;
        image_load_ms += s * o.image_load_ms;
        for (size_t k = 0; k < kJitParts; ++k)
            jit_ms[k] += s * o.jit_ms[k];
        tools_ms += s * o.tools_ms;
        teardown_ms += s * o.teardown_ms;
        calls += o.calls;
        ptx_modules += o.ptx_modules;
        backpressure += o.backpressure;
        launch_samples_ms.insert(launch_samples_ms.end(),
                                 o.launch_samples_ms.begin(),
                                 o.launch_samples_ms.end());
        enqueue_samples_us.insert(enqueue_samples_us.end(),
                                  o.enqueue_samples_us.begin(),
                                  o.enqueue_samples_us.end());
    }

    double driverMs() const
    {
        return init_ms + other_api_ms + image_load_ms + teardown_ms;
    }
    double coreJitMs() const
    {
        double v = 0;
        for (double p : jit_ms)
            v += p;
        return v;
    }
    double simMs() const { return launch_ms - launch_jit_ms; }
    double layersMs() const
    {
        return driverMs() + ptx_jit_ms + coreJitMs() + simMs() + tools_ms;
    }
};

/** Per-thread span state.  Only outermost spans are recorded, so a
 *  driver call made from inside another (or from a timed tool read)
 *  is charged to the enclosing span. */
thread_local Trace *tl_sink = nullptr;
thread_local int tl_depth = 0;
thread_local uint64_t tl_t0 = 0;
thread_local JitParts tl_jit0{};
thread_local uint64_t tl_callback_ns = 0; ///< wrapped tool, this span
/** The outermost cuCtxCreate span stays open from its exit callback
 *  to nvbit_at_ctx_init: the core loads the tool module in between. */
thread_local bool tl_ctx_span_open = false;

/** Times a stretch of host-side tool code into the tools layer. */
class ToolSpan
{
  public:
    ToolSpan() : t0_(nowNs()) { ++tl_depth; }
    ~ToolSpan()
    {
        if (--tl_depth == 0 && tl_sink)
            tl_sink->tools_ms += msSince(t0_);
    }
    ToolSpan(const ToolSpan &) = delete;
    ToolSpan &operator=(const ToolSpan &) = delete;

  private:
    uint64_t t0_;
};

/**
 * Wraps the real tool and forwards every callback to it, timing each
 * driver-API call from its entry callback to its exit callback.
 */
class TracingTool final : public NvbitTool
{
  public:
    /** @p read_jit: sample nvbit_get_jit_stats() around calls (only
     *  safe while one thread drives the API). */
    TracingTool(NvbitTool &inner, bool read_jit)
        : inner_(inner), read_jit_(read_jit)
    {
        if (!inner.deviceFunctionSource().empty())
            exportDeviceFunctions(inner.deviceFunctionSource());
    }

    TracingTool(const TracingTool &) = delete;
    TracingTool &operator=(const TracingTool &) = delete;

    uint64_t termEndNs() const { return term_end_ns_; }

    void
    nvbit_at_init() override
    {
        ToolSpan s;
        inner_.nvbit_at_init();
    }

    void
    nvbit_at_term() override
    {
        {
            ToolSpan s;
            inner_.nvbit_at_term();
        }
        term_end_ns_ = nowNs();
    }

    void
    nvbit_at_ctx_init(CUcontext ctx) override
    {
        inner_.nvbit_at_ctx_init(ctx);
        if (tl_ctx_span_open) {
            tl_ctx_span_open = false;
            close(CallbackId::cuCtxCreate, nullptr, CUDA_SUCCESS);
        }
    }

    void
    nvbit_at_ctx_term(CUcontext ctx) override
    {
        inner_.nvbit_at_ctx_term(ctx);
    }

    void
    nvbit_at_exception(CUcontext ctx, const CUexceptionInfo &e) override
    {
        inner_.nvbit_at_exception(ctx, e);
    }

    void
    nvbit_at_cuda_driver_call(CUcontext ctx, bool is_exit,
                              CallbackId cbid, const char *name,
                              void *params, CUresult *status) override
    {
        if (!is_exit) {
            if (tl_depth++ == 0) {
                tl_jit0 = jitNow();
                tl_callback_ns = 0;
                tl_t0 = nowNs();
            }
            forward(ctx, is_exit, cbid, name, params, status);
            return;
        }
        forward(ctx, is_exit, cbid, name, params, status);
        if (cbid == CallbackId::cuCtxCreate && tl_depth == 1 &&
            *status == CUDA_SUCCESS) {
            tl_ctx_span_open = true; // closed in nvbit_at_ctx_init
            return;
        }
        close(cbid, params, *status);
    }

  private:
    JitParts
    jitNow() const
    {
        return read_jit_ ? nestedJit(nvbit_get_jit_stats()) : JitParts{};
    }

    /** Forward a driver-call callback to the wrapped tool, adding its
     *  time, less the JIT it ran, to tl_callback_ns. */
    void
    forward(CUcontext ctx, bool is_exit, CallbackId cbid, const char *name,
            void *params, CUresult *status)
    {
        const uint64_t jit0 = sumNs(jitNow());
        const uint64_t t0 = nowNs();
        inner_.nvbit_at_cuda_driver_call(ctx, is_exit, cbid, name, params,
                                         status);
        const uint64_t elapsed = nowNs() - t0;
        const uint64_t jit = sumNs(jitNow()) - jit0;
        tl_callback_ns += elapsed > jit ? elapsed - jit : 0;
    }

    void
    close(CallbackId cbid, void *params, CUresult status)
    {
        if (--tl_depth != 0 || !tl_sink)
            return;
        const double dur = msSince(tl_t0);
        JitParts d = jitNow();
        for (size_t k = 0; k < kJitParts; ++k)
            d[k] -= tl_jit0[k];
        d[kUserCallback] = tl_callback_ns;
        Trace &t = *tl_sink;
        for (size_t k = 0; k < kJitParts; ++k)
            t.jit_ms[k] += static_cast<double>(d[k]) / 1e6;
        const double jit = static_cast<double>(sumNs(d)) / 1e6;
        const double net = dur - jit;
        ++t.calls;
        switch (cbid) {
          case CallbackId::cuInit:
          case CallbackId::cuCtxCreate:
            t.init_ms += net;
            break;
          case CallbackId::cuLaunchKernel: {
            auto *p = static_cast<cuLaunchKernel_params *>(params);
            t.launch_ms += dur;
            t.launch_jit_ms += jit;
            if (status == CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES) {
                ++t.backpressure;
                break;
            }
            t.launch_samples_ms.push_back(dur);
            if (p->hStream != nullptr)
                t.enqueue_samples_us.push_back(dur * 1e3);
            break;
          }
          case CallbackId::cuModuleLoadData: {
            auto *p = static_cast<cuModuleLoadData_params *>(params);
            if (isBinaryImage(p->image, p->image_size)) {
                t.image_load_ms += net;
            } else {
                t.ptx_jit_ms += net;
                ++t.ptx_modules;
            }
            break;
          }
          case CallbackId::cuCtxSynchronize:
          case CallbackId::cuStreamSynchronize:
          case CallbackId::cuEventSynchronize:
            t.sync_ms += net;
            t.other_api_ms += net;
            break;
          default:
            t.other_api_ms += net;
            break;
        }
    }

    NvbitTool &inner_;
    const bool read_jit_;
    uint64_t term_end_ns_ = 0;
};

// --- Workloads -----------------------------------------------------------

enum class ToolKind { None, Icount, Mdiv };

/** A batch workload: a suite subset run member by member. */
struct BatchSpec {
    std::vector<std::string> members;
    bool ml = false;
    ProblemSize size = ProblemSize::Medium;
    ToolKind tool = ToolKind::None;
};

BatchSpec
batchSpec(const std::string &name, bool test_size)
{
    BatchSpec b;
    if (name == "spec-passive") {
        b.members = workloads::specSuiteNames();
        b.size = ProblemSize::Large;
    } else if (name == "spec-icount") {
        b.members = {"olbm", "ilbdc", "miniGhost", "md", "csp"};
        b.tool = ToolKind::Icount;
    } else if (name == "ml-mdiv") {
        b.members = workloads::mlSuiteNames();
        b.ml = true;
        b.tool = ToolKind::Mdiv;
    }
    if (test_size)
        b.size = ProblemSize::Test;
    return b;
}

/** What one pass (every member once) produced. */
struct PassResult {
    double wall_ms = 0;
    double loop_ms = 0; ///< time the launches were issued in
    std::vector<double> setup_ms;
    std::vector<double> op_ms;                ///< mt-streams bursts
    std::map<std::string, double> member_ms; ///< batch member runs
    uint64_t launches = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    uint64_t passive_cycles = 0, passive_warp_instrs = 0;
    sim::LaunchStats stats; ///< as simulated, instrumentation included
    uint64_t functions_instrumented = 0, trampolines = 0;
    Trace trace;
};

std::string g_engine; ///< engine config, read from the first device

void
noteEngine()
{
    if (!g_engine.empty())
        return;
    const sim::GpuConfig &c = device().config();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "exec=%s predecode=%d traces=%d sms=%u cold_launch=%d",
                  c.exec_mode == sim::ExecMode::Serial ? "serial"
                                                       : "parallel",
                  c.use_predecode ? 1 : 0, c.use_traces ? 1 : 0,
                  c.num_sms, c.cold_launch ? 1 : 0);
    g_engine = buf;
}

std::unique_ptr<workloads::Workload>
makeMember(const BatchSpec &b, const std::string &member)
{
    return b.ml ? workloads::makeMlWorkload(member)
                : workloads::makeSpecWorkload(member);
}

/** Run one suite member under the workload's tool and check it. */
void
runMember(const BatchSpec &b, const std::string &member,
          const Expect &exp, bool traced, PassResult &pr)
{
    Trace local;
    tl_sink = traced ? &local : nullptr;
    const uint64_t t0 = nowNs();

    std::unique_ptr<NvbitTool> tool;
    {
        ToolSpan s;
        switch (b.tool) {
          case ToolKind::None: tool = std::make_unique<NvbitTool>(); break;
          case ToolKind::Icount:
            tool = std::make_unique<tools::InstrCountTool>();
            break;
          case ToolKind::Mdiv:
            tool = std::make_unique<tools::MemDivergenceTool>();
            break;
        }
    }
    std::unique_ptr<TracingTool> tracer;
    if (traced)
        tracer = std::make_unique<TracingTool>(*tool, /*read_jit=*/true);

    bool ok = true;
    runApp(tracer ? static_cast<NvbitTool &>(*tracer) : *tool, [&] {
        checkCu(cuInit(0), "cuInit");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
        pr.setup_ms.push_back(msSince(t0));
        noteEngine();

        auto &reg = obs::MetricsRegistry::instance();
        const uint64_t launches0 = reg.value("driver.launches");
        makeMember(b, member)->run(b.size);
        pr.launches += reg.value("driver.launches") - launches0;

        const sim::LaunchStats st = deviceTotalStats();
        pr.stats.merge(st);
        pr.passive_cycles += exp.cycles;
        pr.passive_warp_instrs += exp.warp_instrs;
        pr.functions_instrumented +=
            nvbit_get_jit_stats().functions_instrumented;
        pr.trampolines += nvbit_get_jit_stats().trampolines_generated;

        ToolSpan s;
        switch (b.tool) {
          case ToolKind::None:
            ok = st.thread_instrs == exp.thread_instrs &&
                 st.warp_instrs == exp.warp_instrs &&
                 st.cycles == exp.cycles;
            break;
          case ToolKind::Icount: {
            auto &ic = static_cast<tools::InstrCountTool &>(*tool);
            ok = ic.threadInstrs() == exp.thread_instrs &&
                 ic.warpInstrs() == exp.warp_instrs;
            break;
          }
          case ToolKind::Mdiv: {
            auto &md = static_cast<tools::MemDivergenceTool &>(*tool);
            ok = md.uniqueSectors() == exp.unique_sectors &&
                 md.memInstrs() == exp.gmem_instrs;
            break;
          }
        }
    });
    const double wall = msSince(t0);
    pr.member_ms[member] = wall;
    ++pr.attempted;
    if (!ok) {
        ++pr.failed;
        pr.failures.push_back(member);
    }
    if (tracer) {
        local.teardown_ms += msSince(tracer->termEndNs());
        pr.trace.add(local);
    }
    tl_sink = nullptr;
}

/**
 * Run every member once, in an order drawn from @p rng, into @p plain.
 * With @p traced, each member also runs traced into *traced, right
 * before or after its untraced run (alternating), so that host speed
 * drifting over time affects both sides alike.
 */
void
runBatchPass(const BatchSpec &b, const ExpectTable &expect,
             std::mt19937_64 &rng, PassResult &plain, PassResult *traced)
{
    std::vector<std::string> order = b.members;
    std::shuffle(order.begin(), order.end(), rng);
    bool traced_first = rng() & 1;
    for (const std::string &m : order) {
        auto it = expect.find(m + "/" + sizeName(b.size));
        if (it == expect.end()) {
            std::fprintf(stderr, "perfbench: no oracle for %s/%s\n",
                         m.c_str(), sizeName(b.size));
            std::exit(2);
        }
        if (traced && traced_first)
            runMember(b, m, it->second, true, *traced);
        runMember(b, m, it->second, false, plain);
        if (traced && !traced_first)
            runMember(b, m, it->second, true, *traced);
        traced_first = !traced_first;
    }
    for (PassResult *pr : {&plain, traced}) {
        if (!pr)
            continue;
        for (const auto &mw : pr->member_ms)
            pr->wall_ms += mw.second;
        pr->loop_ms = pr->wall_ms;
    }
}

// --- mt-streams ----------------------------------------------------------

constexpr uint32_t kBurst = 8; ///< launches per op
/** vecadd elements per launch: 4 CTAs of 128 threads.  With 128
 *  elements the handoff to the stream worker dominated a launch, and
 *  op_ms_p99 moved by 41% between two ten-run sets as the host's load
 *  changed; with 512 the simulator does most of a launch's work. */
constexpr uint32_t kElems = 512;

struct TenantResult {
    std::vector<double> op_ms;
    uint64_t launches = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Trace trace;
};

/**
 * One tenant: own context and explicit stream; after @p go opens it
 * runs a closed loop of @p ops bursts (kBurst launches, then
 * cuStreamSynchronize) and finally checks C == A + B on the host.
 *
 * runApp attaches a tool, and while one is attached the driver makes
 * every launch wait for its completion.  So the launches go through
 * the stream worker but never take the asynchronous enqueue path: the
 * bounded queue never fills, and the final synchronize finds the
 * stream idle.  The loop is written as an asynchronous client
 * (backpressure retry, one synchronize per burst) so that it stays
 * correct if launches under a tool become asynchronous.
 *
 * Set-up holds @p setup_mu: with a tool attached, the NVBit core's
 * per-context initialisation (NvbitCore::initForContext) is not
 * synchronised, and two tenants creating their first contexts at once
 * race on it (seen as a crash, confirmed by ThreadSanitizer).
 */
void
tenantBody(uint32_t ops, uint64_t seed, bool traced, std::mutex &setup_mu,
           std::latch &ready, std::latch &go, TenantResult &out)
{
    tl_sink = traced ? &out.trace : nullptr;
    std::unique_lock<std::mutex> setup(setup_mu);
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
    CUstream stream = nullptr;
    checkCu(cuStreamCreate(&stream, 0), "cuStreamCreate");
    CUmodule mod = nullptr;
    checkCu(cuModuleLoadData(&mod, bench::kVecAddPtx, 0),
            "cuModuleLoadData");
    CUfunction fn = nullptr;
    checkCu(cuModuleGetFunction(&fn, mod, "vecadd"), "cuModuleGetFunction");

    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
    std::vector<float> a(kElems), b(kElems), c(kElems);
    for (uint32_t i = 0; i < kElems; ++i) {
        a[i] = dist(rng);
        b[i] = dist(rng);
    }
    const size_t bytes = kElems * sizeof(float);
    CUdeviceptr da = 0, db = 0, dc = 0;
    checkCu(cuMemAlloc(&da, bytes), "cuMemAlloc");
    checkCu(cuMemAlloc(&db, bytes), "cuMemAlloc");
    checkCu(cuMemAlloc(&dc, bytes), "cuMemAlloc");
    checkCu(cuMemcpyHtoD(da, a.data(), bytes), "cuMemcpyHtoD");
    checkCu(cuMemcpyHtoD(db, b.data(), bytes), "cuMemcpyHtoD");
    checkCu(cuMemsetD8(dc, 0, bytes), "cuMemsetD8");
    setup.unlock();

    ready.count_down();
    go.wait();

    uint32_t n = kElems;
    void *params[] = {&da, &db, &dc, &n};
    out.op_ms.reserve(ops);
    for (uint32_t op = 0; op < ops; ++op) {
        const uint64_t t0 = nowNs();
        bool ok = true;
        for (uint32_t k = 0; k < kBurst; ++k) {
            CUresult r;
            // OUT_OF_RESOURCES is the queue's backpressure signal:
            // drain and retry, never an error for a patient client.
            while ((r = cuLaunchKernel(fn, kElems / 128, 1, 1, 128, 1, 1,
                                       0, stream, params, nullptr)) ==
                   CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES)
                ok &= cuStreamSynchronize(stream) == CUDA_SUCCESS;
            ok &= r == CUDA_SUCCESS;
            out.launches += r == CUDA_SUCCESS;
        }
        ok &= cuStreamSynchronize(stream) == CUDA_SUCCESS;
        out.op_ms.push_back(msSince(t0));
        ++out.attempted;
        out.failed += !ok;
    }

    bool ok = cuMemcpyDtoH(c.data(), dc, bytes) == CUDA_SUCCESS;
    for (uint32_t i = 0; ok && i < kElems; ++i)
        ok = c[i] == a[i] + b[i];
    ++out.attempted;
    out.failed += !ok;

    checkCu(cuMemFree(da), "cuMemFree");
    checkCu(cuMemFree(db), "cuMemFree");
    checkCu(cuMemFree(dc), "cuMemFree");
    checkCu(cuModuleUnload(mod), "cuModuleUnload");
    checkCu(cuStreamDestroy(stream), "cuStreamDestroy");
    checkCu(cuCtxDestroy(ctx), "cuCtxDestroy");
    tl_sink = nullptr;
}

PassResult
runStreamsPass(uint32_t tenants, uint32_t ops, bool traced,
               std::mt19937_64 &rng)
{
    PassResult pr;
    Trace local;
    tl_sink = traced ? &local : nullptr;
    const uint64_t t0 = nowNs();
    std::unique_ptr<NvbitTool> tool;
    {
        ToolSpan s;
        tool = std::make_unique<NvbitTool>();
    }
    std::unique_ptr<TracingTool> tracer;
    if (traced)
        tracer = std::make_unique<TracingTool>(*tool, /*read_jit=*/false);

    std::vector<TenantResult> res(tenants);
    runApp(tracer ? static_cast<NvbitTool &>(*tracer) : *tool, [&] {
        checkCu(cuInit(0), "cuInit");
        std::mutex setup_mu;
        std::latch ready(tenants), go(1);
        std::vector<std::thread> threads;
        for (uint32_t t = 0; t < tenants; ++t)
            threads.emplace_back(tenantBody, ops, rng(), traced,
                                 std::ref(setup_mu), std::ref(ready),
                                 std::ref(go), std::ref(res[t]));
        ready.wait();
        pr.setup_ms.push_back(msSince(t0));
        const uint64_t loop0 = nowNs();
        go.count_down();
        for (std::thread &th : threads)
            th.join();
        pr.loop_ms = msSince(loop0);
        noteEngine();
        pr.stats = deviceTotalStats();
    });
    pr.wall_ms = msSince(t0);
    if (tracer)
        local.teardown_ms += msSince(tracer->termEndNs());
    tl_sink = nullptr;

    // Tenant threads overlap in time; their spans enter the layer
    // breakdown as a per-tenant average so layers still sum to wall.
    for (const TenantResult &r : res) {
        pr.op_ms.insert(pr.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
        pr.launches += r.launches;
        pr.attempted += r.attempted;
        pr.failed += r.failed;
        local.add(r.trace, 1.0 / tenants);
    }
    if (pr.failed)
        pr.failures.push_back("mt-streams");
    pr.passive_cycles = pr.stats.cycles; // no tool: passive by definition
    pr.passive_warp_instrs = pr.stats.warp_instrs;
    pr.trace = std::move(local);
    return pr;
}

// --- Reporting -----------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::vector<double> samples; ///< per-pass (or per-op) values
    std::string note;
};

void
printTable(const std::vector<Metric> &ms)
{
    std::printf("%-34s %14s %-6s %12s %12s %12s %7s\n", "metric", "value",
                "unit", "median", "q1", "q3", "n");
    for (const Metric &m : ms) {
        if (m.samples.empty()) {
            std::printf("%-34s %14.6g %-6s %12s %12s %12s %7s  %s\n",
                        m.name.c_str(), m.value, m.unit.c_str(), "-", "-",
                        "-", "1", m.note.c_str());
        } else {
            std::printf("%-34s %14.6g %-6s %12.6g %12.6g %12.6g %7zu  %s\n",
                        m.name.c_str(), m.value, m.unit.c_str(),
                        median(m.samples), quantile(m.samples, 0.25),
                        quantile(m.samples, 0.75), m.samples.size(),
                        m.note.c_str());
        }
    }
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string o = "{";
    char buf[96];
    for (size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.12g", ms[i].value);
        o += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return o + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload spec-passive|spec-icount|"
                 "ml-mdiv|mt-streams --seed N --seconds S --trace 0|1 "
                 "--expect FILE [--size test] [--out FILE]\n"
                 "       perfbench --record\n");
    return 2;
}

/** Print the oracle table: passive statistics of every member and
 *  size the workloads check against. */
int
record()
{
    struct Row {
        std::string member;
        bool ml;
        ProblemSize size;
    };
    std::vector<Row> rows;
    for (bool test : {false, true})
        for (const char *w : {"spec-passive", "spec-icount", "ml-mdiv"}) {
            BatchSpec b = batchSpec(w, test);
            for (const std::string &m : b.members)
                rows.push_back({m, b.ml, b.size});
        }
    std::set<std::string> done;
    std::printf("# member size thread_instrs warp_instrs cycles "
                "unique_sectors_sum global_mem_warp_instrs\n");
    for (const Row &r : rows) {
        if (!done.insert(r.member + "/" + sizeName(r.size)).second)
            continue;
        NvbitTool none;
        sim::LaunchStats st;
        runApp(none, [&] {
            checkCu(cuInit(0), "cuInit");
            CUcontext ctx = nullptr;
            checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
            BatchSpec b;
            b.ml = r.ml;
            makeMember(b, r.member)->run(r.size);
            st = deviceTotalStats();
        });
        std::printf("%s %s %llu %llu %llu %llu %llu\n", r.member.c_str(),
                    sizeName(r.size),
                    static_cast<unsigned long long>(st.thread_instrs),
                    static_cast<unsigned long long>(st.warp_instrs),
                    static_cast<unsigned long long>(st.cycles),
                    static_cast<unsigned long long>(st.unique_sectors_sum),
                    static_cast<unsigned long long>(
                        st.global_mem_warp_instrs));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> dropped = scrubSimEnv();

    std::string workload, expect_path, out_path;
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false, test_size = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--record")
            return record();
        if (a == "--workload")
            workload = next();
        else if (a == "--seed")
            seed = std::strtoull(next().c_str(), nullptr, 0);
        else if (a == "--seconds")
            seconds = std::strtod(next().c_str(), nullptr);
        else if (a == "--trace")
            traced = next() != "0";
        else if (a == "--expect")
            expect_path = next();
        else if (a == "--out")
            out_path = next();
        else if (a == "--size") {
            std::string s = next();
            if (s != "test")
                return usage();
            test_size = true;
        } else
            return usage();
    }
    const bool streams = workload == "mt-streams";
    const BatchSpec batch = batchSpec(workload, test_size);
    if (!streams && batch.members.empty())
        return usage();
    ExpectTable expect;
    if (!streams && !loadExpect(expect_path, expect)) {
        std::fprintf(stderr, "perfbench: cannot read oracle table '%s'\n",
                     expect_path.c_str());
        return 2;
    }

    // At most nproc busy threads: the tenants plus the driver's single
    // stream worker (the serial engine adds none).
    const unsigned nproc = onlineCpus();
    const uint32_t tenants = std::clamp(nproc - 1, 1u, 2u);
    const uint32_t ops = test_size ? 20 : 400;

    std::mt19937_64 rng(seed);

    // Measure whole passes while the next step is projected to end
    // within the budget (at least one step).  With --trace 1 a step
    // also makes a traced pass, interleaved with the untraced one.
    std::vector<PassResult> plain, tracedp;
    const uint64_t t_start = nowNs();
    const double budget_ms = seconds * 1e3;
    for (size_t i = 0;; ++i) {
        PassResult p, t;
        if (!streams) {
            runBatchPass(batch, expect, rng, p, traced ? &t : nullptr);
        } else if (traced && i % 2) {
            t = runStreamsPass(tenants, ops, true, rng);
            p = runStreamsPass(tenants, ops, false, rng);
        } else {
            p = runStreamsPass(tenants, ops, false, rng);
            if (traced)
                t = runStreamsPass(tenants, ops, true, rng);
        }
        plain.push_back(std::move(p));
        if (traced)
            tracedp.push_back(std::move(t));
        const double spent = msSince(t_start);
        if (spent + spent / static_cast<double>(i + 1) > budget_ms)
            break;
    }

    // --- end-to-end metrics (untraced passes) ---
    uint64_t attempted = 0, failed = 0;
    std::vector<double> walls, setups, ops_ms, rates, okf, slow;
    std::vector<std::string> failures;
    std::map<std::string, std::vector<double>> member_ms;
    for (const PassResult &p : plain) {
        walls.push_back(p.wall_ms / 1e3);
        for (double s : p.setup_ms)
            setups.push_back(s / 1e3);
        ops_ms.insert(ops_ms.end(), p.op_ms.begin(), p.op_ms.end());
        for (const auto &[m, w] : p.member_ms)
            member_ms[m].push_back(w);
        rates.push_back(static_cast<double>(p.launches) / (p.loop_ms / 1e3));
        okf.push_back(1.0 - static_cast<double>(p.failed) /
                                static_cast<double>(p.attempted));
        slow.push_back(static_cast<double>(p.stats.cycles) /
                       static_cast<double>(p.passive_cycles));
        attempted += p.attempted;
        failed += p.failed;
        failures.insert(failures.end(), p.failures.begin(),
                        p.failures.end());
    }
    for (const PassResult &p : tracedp) {
        attempted += p.attempted;
        failed += p.failed;
        failures.insert(failures.end(), p.failures.begin(),
                        p.failures.end());
    }
    // Simulated statistics are deterministic, traced or not.  Cycles
    // are compared on batch workloads only: tenants share the warm
    // caches in whatever order their launches interleave.
    for (const auto *set : {&plain, &tracedp})
        for (const PassResult &p : *set)
            if (p.stats.thread_instrs != plain.front().stats.thread_instrs ||
                (!streams && p.stats.cycles != plain.front().stats.cycles)) {
                ++failed;
                failures.push_back("simulated statistics differ between "
                                   "passes");
            }

    // A batch op is one pass.  Its members are different programs, so a
    // percentile over member runs jumps between members as noise
    // reorders those of similar length.
    std::string member_note;
    for (const auto &[m, v] : member_ms) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%.1f", m.c_str(), median(v));
        member_note += buf;
    }
    if (!streams)
        for (double w : walls)
            ops_ms.push_back(w * 1e3);
    const double p99 = quantile(ops_ms, 0.99);
    const size_t beyond = countAbove(ops_ms, p99);
    char beyond_note[96];
    std::snprintf(beyond_note, sizeof(beyond_note),
                  "%zu of %zu samples beyond%s", beyond, ops_ms.size(),
                  beyond < 10 ? " (fewer than 10)" : "");
    const char *op_what =
        streams ? "op = one burst + sync" : "op = one pass";
    std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s", setups,
         "tool init + cuInit + cuCtxCreate, per set-up"},
        {"wall_s", median(walls), "s", walls, "one pass"},
        {"peak_rss_mb", peakRssMb(), "MB", {}, ""},
        {"ops_ok_frac", 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted),
         "ratio", okf, "1 - ops_failed_frac"},
        {"sim_slowdown_x", median(slow), "x", slow,
         "instrumented / passive simulated cycles"},
        {"launches_per_s", median(rates), "1/s", rates, ""},
        {"op_ms_p50", median(ops_ms), "ms", {}, op_what},
        {"op_ms_p99", p99, "ms", {}, beyond_note},
    };

    // --- per-layer metrics (traced passes) ---
    std::vector<Metric> layers;
    if (traced) {
        const double n = static_cast<double>(tracedp.size());
        Trace tr;
        uint64_t functions = 0, trampolines = 0;
        sim::LaunchStats st;
        double twall = 0, uwall = 0, pw = 0;
        for (const PassResult &p : tracedp) {
            tr.add(p.trace);
            functions += p.functions_instrumented;
            trampolines += p.trampolines;
            st.merge(p.stats);
            twall += p.wall_ms;
            pw += static_cast<double>(p.passive_warp_instrs);
        }
        for (const PassResult &p : plain)
            uwall += p.wall_ms;
        const double tail_pct = launchTailPct(workload);
        auto per = [&](double v) { return v / n; };
        auto rate = [](uint64_t a, uint64_t b) {
            return a + b ? static_cast<double>(a) / static_cast<double>(a + b)
                         : 0.0;
        };
        const double wall_ms = twall / n;
        const double unattributed_ms = wall_ms - per(tr.layersMs());
        if (unattributed_ms < 0) {
            ++failed;
            failures.push_back("layer spans overlap: unattributed < 0");
        }
        layers = {
            {"traced_wall_ms", wall_ms, "ms", {}, "per pass"},
            {"layer.driver_ms", per(tr.driverMs()), "ms", {}, ""},
            {"unattributed_ms", unattributed_ms, "ms", {}, ""},
            {"trace_overhead_x",
             (twall / n) / (uwall / static_cast<double>(plain.size())), "x",
             {}, "traced / untraced pass wall"},
            {"driver.init_ms", per(tr.init_ms), "ms", {}, ""},
            {"driver.teardown_ms", per(tr.teardown_ms), "ms", {}, ""},
            {"driver.launch_ms", per(tr.launch_ms), "ms", {}, ""},
            {"driver.launch_ms_p50", median(tr.launch_samples_ms), "ms", {},
             ""},
            {"driver.launch_ms_tail",
             quantile(tr.launch_samples_ms, tail_pct / 100.0), "ms", {}, ""},
            {"driver.launch_tail_pct", tail_pct, "%", {}, ""},
            {"driver.launch_samples",
             per(static_cast<double>(tr.launch_samples_ms.size())), "count",
             {}, ""},
            {"driver.other_api_ms", per(tr.other_api_ms), "ms", {}, ""},
            {"driver.calls", per(static_cast<double>(tr.calls)), "count", {},
             ""},
            {"stream.enqueue_us_p50", median(tr.enqueue_samples_us), "us",
             {}, ""},
            {"stream.sync_ms", per(tr.sync_ms), "ms", {}, ""},
            {"stream.backpressure_retries",
             per(static_cast<double>(tr.backpressure)), "count", {}, ""},
            {"ptx.jit_ms", per(tr.ptx_jit_ms), "ms", {}, ""},
            {"ptx.modules", per(static_cast<double>(tr.ptx_modules)),
             "count", {}, ""},
            {"module.image_load_ms", per(tr.image_load_ms), "ms", {}, ""},
            {"core.jit_ms", per(tr.coreJitMs()), "ms", {},
             "sum of the six core.jit.* parts"},
            {"core.jit.retrieve_ms", per(tr.jit_ms[kRetrieve]), "ms", {}, ""},
            {"core.jit.disassemble_ms", per(tr.jit_ms[kDisassemble]), "ms",
             {}, ""},
            {"core.jit.lift_ms", per(tr.jit_ms[kLift]), "ms", {}, ""},
            {"core.jit.user_callback_ms", per(tr.jit_ms[kUserCallback]),
             "ms", {}, "wrapped tool's callbacks"},
            {"core.jit.codegen_ms", per(tr.jit_ms[kCodegen]), "ms", {}, ""},
            {"core.jit.swap_ms", per(tr.jit_ms[kSwap]), "ms", {}, ""},
            {"core.functions_instrumented",
             per(static_cast<double>(functions)), "count", {}, ""},
            {"core.trampolines", per(static_cast<double>(trampolines)),
             "count", {}, ""},
            {"sim.exec_ms", per(tr.simMs()), "ms", {}, ""},
            {"sim.warp_instrs", per(static_cast<double>(st.warp_instrs)),
             "count", {}, ""},
            {"sim.thread_instrs", per(static_cast<double>(st.thread_instrs)),
             "count", {}, ""},
            {"sim.cycles", per(static_cast<double>(st.cycles)), "count", {},
             ""},
            {"sim.ns_per_warp_instr",
             tr.simMs() * 1e6 / static_cast<double>(st.warp_instrs), "ns",
             {}, ""},
            {"sim.decode_cache_miss_rate",
             rate(st.decode_cache_misses, st.decode_cache_hits), "ratio", {},
             ""},
            {"sim.l1_hit_rate", rate(st.l1_hits, st.l1_misses), "ratio", {},
             ""},
            {"sim.l2_hit_rate", rate(st.l2_hits, st.l2_misses), "ratio", {},
             ""},
            {"tools.instr_overhead_x",
             static_cast<double>(st.warp_instrs) / pw, "x", {},
             "instrumented / passive warp instrs"},
            {"tools.host_ms", per(tr.tools_ms), "ms", {}, ""},
        };
    }

    const std::string host =
        "nproc=" + std::to_string(nproc) + " cpu=\"" + cpuModel() +
        "\" build=" + PERFBENCH_BUILD_TYPE;
    std::string dropped_s;
    for (const std::string &d : dropped)
        dropped_s += (dropped_s.empty() ? "" : ",") + d;
    std::printf("perfbench: workload=%s size=%s seed=%llu seconds=%g "
                "trace=%d passes=%zu+%zu tenants=%u\n",
                workload.c_str(), test_size ? "test" : "default",
                static_cast<unsigned long long>(seed), seconds,
                traced ? 1 : 0, plain.size(), tracedp.size(),
                streams ? tenants : 0);
    std::printf("host: %s\nengine: %s (dropped env: %s)\n", host.c_str(),
                g_engine.c_str(),
                dropped_s.empty() ? "none" : dropped_s.c_str());
    if (!member_note.empty())
        std::printf("member medians (ms):%s\n", member_note.c_str());
    std::printf("untraced pass walls (s):");
    for (double w : walls)
        std::printf(" %.4g", w);
    std::printf("\n");
    printTable(e2e);
    if (traced)
        printTable(layers);
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    const bool correct = failed == 0;
    const std::vector<Metric> &out = traced ? layers : e2e;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    const std::string result =
        std::string(head) + ", \"metrics\": " + metricsJson(out) + "}";
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
          << ", \"trace\": " << (traced ? 1 : 0) << ", \"host\": \""
          << jsonEscape(host) << "\", \"engine\": \"" << g_engine
          << "\", \"dropped_env\": \"" << dropped_s
          << "\", \"result\": " << result << ", \"end_to_end\": "
          << metricsJson(e2e) << "}\n";
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
