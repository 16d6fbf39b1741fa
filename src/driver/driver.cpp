#include "driver/internal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "driver/callback.hpp"
#include "driver/event_groups.hpp"
#include "isa/abi.hpp"
#include "obs/lifecycle.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/publisher.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "ptx/compiler.hpp"

namespace nvbit::cudrv {

namespace {

/** One live cuMemAlloc allocation. */
struct UserAlloc {
    size_t bytes = 0;
    /** Context current at allocation time (nullptr if none); scopes
     *  cuDevicePrimaryCtxReset's zero-fill to the faulted tenant. */
    CUctx_st *owner = nullptr;
};

/**
 * Global driver state (the "libcuda" process singleton).  `mu` is the
 * driver state mutex (lock "S"): it guards every field below and is
 * ordered *before* the per-GPU slot mutexes (lock "G", see
 * detail::GpuSlot) — S may be taken, then G, never the reverse.  The
 * stream-service mutex and the observability singletons are leaf locks
 * acquired with neither S nor G held, except that the service mutex
 * may be taken under S during cuInit (no workers exist yet).
 */
struct DriverState {
    std::mutex mu;
    bool initialized = false;
    sim::GpuConfig pending_cfg;
    /** The simulated GPU pool (NVBIT_SIM_GPU_POOL, default 1). */
    std::vector<std::unique_ptr<detail::GpuSlot>> gpus;
    std::vector<std::unique_ptr<CUctx_st>> contexts;
    /** Deterministic tenant ordinals (creation order since cuInit). */
    uint32_t next_tenant_id = 0;
    sim::LaunchStats last_launch;
    sim::LaunchStats totals;
    std::map<const CUmod_st *, sim::LaunchStats> module_stats;
    /** The NVBit tool module, visible to launches from any context
     *  (device memory and constant bank 2 are device-wide). */
    CUmod_st *tool_module = nullptr;
    /** Live cuMemAlloc allocations, keyed by (GPU slot, base address):
     *  pool GPUs are independent address spaces, so the base alone can
     *  name unrelated allocations on different GPUs.  Zero-filled per
     *  owner by cuDevicePrimaryCtxReset. */
    std::map<std::pair<unsigned, mem::DevPtr>, UserAlloc> user_allocs;
};

DriverState &
state()
{
    // Leaked on purpose (same policy as the obs singletons): the
    // process-exit handler stops the stream service, whose workers use
    // this state, after static destructors may already have run.
    static DriverState *s = new DriverState();
    return *s;
}

/**
 * The current context is per-thread (each tenant thread binds its own),
 * validated against a driver epoch: resetDriver bumps the epoch, which
 * atomically invalidates every thread's stale binding without having
 * to visit their TLS slots.
 */
std::atomic<uint64_t> g_epoch{1};

struct TlsCurrent {
    CUcontext ctx = nullptr;
    uint64_t epoch = 0;
};

thread_local TlsCurrent tls_current;

CUcontext
curCtx()
{
    return tls_current.epoch == g_epoch.load(std::memory_order_acquire)
               ? tls_current.ctx
               : nullptr;
}

void
setCurCtx(CUcontext ctx)
{
    tls_current.ctx = ctx;
    tls_current.epoch = g_epoch.load(std::memory_order_acquire);
}

/**
 * PC -> function-name map for the PC-sampling profiler.  A dedicated
 * leaf lock (never S): the resolver runs inside Profiler::ingest,
 * which executes under a GPU slot mutex during launches — routing it
 * through S would close an S-after-G cycle against module loads.
 */
struct PcNames {
    std::mutex mu;
    /** base -> (end, name), non-overlapping code ranges. */
    std::map<uint64_t, std::pair<uint64_t, std::string>> ranges;
};

PcNames &
pcNames()
{
    static PcNames *m = new PcNames();
    return *m;
}

void
registerPcName(uint64_t base, size_t size, const std::string &name)
{
    if (size == 0)
        return;
    PcNames &m = pcNames();
    std::lock_guard<std::mutex> lk(m.mu);
    m.ranges[base] = {base + size, name};
}

void
unregisterPcName(uint64_t base)
{
    PcNames &m = pcNames();
    std::lock_guard<std::mutex> lk(m.mu);
    m.ranges.erase(base);
}

void
unregisterModulePcNames(const CUmod_st *mod)
{
    for (const auto &f : mod->funcs)
        unregisterPcName(f->code_addr);
}

void
clearPcNames()
{
    PcNames &m = pcNames();
    std::lock_guard<std::mutex> lk(m.mu);
    m.ranges.clear();
}

bool
resolvePcName(uint64_t pc, obs::Profiler::PcInfo &out)
{
    PcNames &m = pcNames();
    std::lock_guard<std::mutex> lk(m.mu);
    auto it = m.ranges.upper_bound(pc);
    if (it == m.ranges.begin())
        return false;
    --it;
    if (pc >= it->second.first)
        return false;
    out.func = it->second.second;
    out.func_base = it->first;
    return true;
}

struct Interposer {
    DriverCallback cb = nullptr;
    void *user = nullptr;
};

Interposer &
interposer()
{
    static Interposer ip;
    return ip;
}

const char *kCallbackNames[] = {
    "invalid",
    "cuInit",
    "cuCtxCreate",
    "cuCtxDestroy",
    "cuCtxSynchronize",
    "cuModuleLoadData",
    "cuModuleUnload",
    "cuModuleGetFunction",
    "cuModuleGetGlobal",
    "cuMemAlloc",
    "cuMemFree",
    "cuMemcpyHtoD",
    "cuMemcpyDtoH",
    "cuMemcpyDtoD",
    "cuMemsetD8",
    "cuLaunchKernel",
    "cuDevicePrimaryCtxReset",
    "cuStreamCreate",
    "cuStreamDestroy",
    "cuStreamSynchronize",
    "cuStreamWaitEvent",
    "cuEventCreate",
    "cuEventDestroy",
    "cuEventRecord",
    "cuEventSynchronize",
    "cuMemcpyHtoDAsync",
    "cuMemcpyDtoHAsync",
};

static_assert(sizeof(kCallbackNames) / sizeof(kCallbackNames[0]) ==
                  static_cast<size_t>(CallbackId::NumCallbackIds),
              "callback names out of sync");

void
fire(CUcontext ctx, bool is_exit, CallbackId cbid, void *params,
     CUresult *status)
{
    Interposer &ip = interposer();
    if (ip.cb)
        ip.cb(ip.user, ctx, is_exit, cbid, callbackName(cbid), params,
              status);
}

/** RAII helper firing entry/exit interposer callbacks around an API. */
class ApiScope
{
  public:
    ApiScope(CallbackId cbid, void *params)
        : cbid_(cbid), params_(params), ctx_(curCtx())
    {
        fire(ctx_, false, cbid_, params_, &status_);
    }

    ~ApiScope() { fire(ctx_, true, cbid_, params_, &status_); }

    CUresult &status() { return status_; }

  private:
    CallbackId cbid_;
    void *params_;
    CUcontext ctx_;
    CUresult status_ = CUDA_SUCCESS;
};

/**
 * Worst-case stack bytes for a call tree rooted at @p f.  Unresolved
 * callees (e.g. functions supplied by a later module) are charged a
 * fixed pessimistic amount.
 */
uint32_t
computeTotalStack(CUfunc_st *f, std::vector<CUfunc_st *> &visiting)
{
    if (std::find(visiting.begin(), visiting.end(), f) != visiting.end())
        return f->frame_bytes; // recursion: charge one frame and stop
    visiting.push_back(f);
    uint32_t callee_max = 0;
    for (CUfunc_st *r : f->related)
        callee_max = std::max(callee_max,
                              computeTotalStack(r, visiting));
    if (!f->unresolved_related.empty())
        callee_max = std::max(callee_max, 256u);
    visiting.pop_back();
    return f->frame_bytes + callee_max;
}

/** Search a context's modules (newest first) for a function by name. */
CUfunc_st *
findInContext(CUctx_st *ctx, const std::string &name)
{
    for (auto it = ctx->modules.rbegin(); it != ctx->modules.rend();
         ++it) {
        if (CUfunc_st *f = (*it)->find(name))
            return f;
    }
    return nullptr;
}

/** Sticky error of the current context, or CUDA_SUCCESS. */
CUresult
stickyError()
{
    CUcontext ctx = curCtx();
    return ctx ? ctx->sticky_error.load() : CUDA_SUCCESS;
}

/** Map a structured device trap onto the CUresult CUDA would report. */
CUresult
resultOfTrap(sim::TrapCode code)
{
    switch (code) {
      case sim::TrapCode::MisalignedAddress:
      case sim::TrapCode::OutOfBoundsGlobal:
      case sim::TrapCode::OutOfBoundsLocal:
      case sim::TrapCode::OutOfBoundsShared:
      case sim::TrapCode::OutOfBoundsConst:
      case sim::TrapCode::InvalidPc:
        return CUDA_ERROR_ILLEGAL_ADDRESS;
      case sim::TrapCode::IllegalInstruction:
        return CUDA_ERROR_ILLEGAL_INSTRUCTION;
      case sim::TrapCode::WatchdogTimeout:
        return CUDA_ERROR_LAUNCH_TIMEOUT;
      case sim::TrapCode::CallStackOverflow:
      case sim::TrapCode::CallStackUnderflow:
      case sim::TrapCode::BarrierDeadlock:
      case sim::TrapCode::SanitizerError:
      case sim::TrapCode::None:
        break;
    }
    return CUDA_ERROR_LAUNCH_FAILED;
}

std::string
tenantMetric(const CUctx_st *ctx, const char *suffix)
{
    return strfmt("driver.tenant%u.%s", ctx->tenant_id, suffix);
}

/** Slot index device-memory APIs should target for @p ctx. */
unsigned
slotIndexFor(CUcontext ctx)
{
    return ctx ? ctx->gpu_index : 0;
}

/**
 * Slot a device *address* should target: the pool GPU owning a live
 * user allocation containing it, falling back to the caller's slot
 * (module globals and code live on the caller's own GPU).  When the
 * same range is live on several GPUs — pool address spaces are
 * independent, so bases can collide — the caller's own GPU wins.
 */
unsigned
slotIndexForPtr(CUcontext ctx, CUdeviceptr ptr)
{
    const unsigned home = slotIndexFor(ctx);
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    unsigned gi = home;
    bool found = false;
    for (const auto &[key, ua] : s.user_allocs) {
        if (ptr < key.second || ptr - key.second >= ua.bytes)
            continue;
        if (key.first == home)
            return home;
        if (!found) {
            gi = key.first;
            found = true;
        }
    }
    return gi;
}

/**
 * Execute a launch synchronously on the calling thread (the inline
 * fast path for legacy-stream launches, and the no-context fallback).
 * Called with no locks held; takes only the GPU slot mutex.
 */
CUresult
runLaunchNow(CUctx_st *ctx, CUfunc_st *fn, const sim::LaunchParams &lp,
             unsigned gpu_index)
{
    detail::GpuSlot &slot = detail::gpuSlot(gpu_index);
    try {
        sim::LaunchStats st;
        {
            std::lock_guard<std::mutex> dev(slot.mu);
            st = slot.gpu->launch(lp);
        }
        detail::noteLaunchDone(ctx, fn, st);
        return CUDA_SUCCESS;
    } catch (const sim::DeviceException &e) {
        return detail::noteLaunchFault(ctx, fn, e);
    }
}

} // namespace

const char *
callbackName(CallbackId id)
{
    auto i = static_cast<size_t>(id);
    NVBIT_ASSERT(i < static_cast<size_t>(CallbackId::NumCallbackIds),
                 "bad callback id %zu", i);
    return kCallbackNames[i];
}

void
setDriverInterposer(DriverCallback cb, void *user)
{
    NVBIT_ASSERT(cb == nullptr || interposer().cb == nullptr,
                 "only a single driver interposer (NVBit tool) can be "
                 "registered at a time");
    interposer().cb = cb;
    interposer().user = user;
}

bool
driverInterposerActive()
{
    return interposer().cb != nullptr;
}

CUfunc_st *
CUmod_st::find(const std::string &name) const
{
    auto it = func_by_name.find(name);
    return it == func_by_name.end() ? nullptr : it->second;
}

// --- Init / device --------------------------------------------------------

CUresult
cuInit(unsigned flags)
{
    cuInit_params p{flags};
    ApiScope scope(CallbackId::cuInit, &p);
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.initialized) {
        unsigned pool = 1;
        if (const char *env = std::getenv("NVBIT_SIM_GPU_POOL")) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(env, &end, 0);
            if (end && *end == '\0' && v >= 1 && v <= 16)
                pool = static_cast<unsigned>(v);
            else
                warn("ignoring NVBIT_SIM_GPU_POOL=%s (want 1..16)", env);
        }
        if (driverInterposerActive() && pool > 1) {
            // The NVBit core instruments through device(); tools see a
            // single device, so the pool degrades to one GPU.
            warn("driver interposer active: GPU pool forced to 1 "
                 "(requested %u)", pool);
            pool = 1;
        }
        for (unsigned i = 0; i < pool; ++i) {
            auto slot = std::make_unique<detail::GpuSlot>();
            slot->gpu = std::make_unique<sim::GpuDevice>(s.pending_cfg);
            s.gpus.push_back(std::move(slot));
        }
        s.initialized = true;
        // Workers are spawned under S; they never take S while holding
        // the service mutex, so this nesting cannot cycle.
        detail::StreamService::instance().start(pool);
        // Let the PC-sampling profiler resolve device pcs to function
        // names.  The map is maintained on the module load/unload
        // paths and guarded by its own leaf lock: the resolver runs
        // under a GPU slot mutex (inside launches), where taking the
        // driver state mutex would invert the S-before-G lock order.
        obs::Profiler::instance().setNameResolver(resolvePcName);
        // Live telemetry plane: the publisher's collector samples the
        // stream service and refreshes the SLO window gauges before
        // each scrape.  Lock order: publisher mutex, then whatever the
        // collector takes (service mutex, SLO mutex), then the
        // registry mutex inside toPrometheus() — never the reverse.
        obs::SloMonitor::instance().applyThresholdFromEnv();
        obs::TelemetryPublisher &pub =
            obs::TelemetryPublisher::instance();
        pub.setCollector([] {
            detail::StreamService::instance().sampleTelemetry();
            obs::SloMonitor::instance().publishGauges(nowNs());
        });
        pub.startFromEnv();
        // At process exit, stop the service as resetDriver does before
        // the flush: in-flight launches complete and are recorded.
        obs::armExitFlush([] { detail::StreamService::instance().stop(); });
        obs::StructuredLog::instance().log(
            obs::LogLevel::Info, "driver", "initialised",
            {{"gpus", std::to_string(pool)}});
    }
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuDeviceGetCount(int *count)
{
    if (!count)
        return CUDA_ERROR_INVALID_VALUE;
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    *count = s.initialized ? static_cast<int>(s.gpus.size()) : 0;
    return CUDA_SUCCESS;
}

void
setDeviceConfig(const sim::GpuConfig &cfg)
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    NVBIT_ASSERT(!s.initialized,
                 "setDeviceConfig must precede cuInit (or follow "
                 "resetDriver)");
    s.pending_cfg = cfg;
}

void
resetDriver()
{
    // The shared flush runs first: it stops the telemetry publisher,
    // whose collector samples the stream service and tenant contexts,
    // before anything it observes is torn down.  The SLO windows are
    // dropped with the tenants they describe.
    obs::flushAll(obs::FlushReason::Reset);
    obs::SloMonitor::instance().reset();
    // Stop the stream service next: queued ops are cancelled with
    // CUDA_ERROR_DEINITIALIZED, in-flight ones complete (bounded by
    // the device watchdog) and the workers are joined, so nothing
    // touches driver state while it is torn down below.
    detail::StreamService::instance().stop();
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    obs::Profiler::instance().setNameResolver(nullptr);
    clearPcNames();
    // Contexts die without cuCtxDestroy callbacks on this path, so the
    // event-group registry needs an explicit teardown.
    detail::resetEventGroups();
    // Invalidate every thread's current-context binding.
    g_epoch.fetch_add(1, std::memory_order_acq_rel);
    s.contexts.clear();
    s.gpus.clear();
    s.next_tenant_id = 0;
    s.initialized = false;
    s.last_launch = sim::LaunchStats{};
    s.totals = sim::LaunchStats{};
    s.module_stats.clear();
    s.tool_module = nullptr;
    s.user_allocs.clear();
}

sim::GpuDevice &
device()
{
    DriverState &s = state();
    NVBIT_ASSERT(s.initialized && !s.gpus.empty(),
                 "driver not initialised");
    return *s.gpus[0]->gpu;
}

unsigned
deviceCount()
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.initialized ? static_cast<unsigned>(s.gpus.size()) : 0;
}

CUcontext
currentContext()
{
    return curCtx();
}

namespace detail {

GpuSlot &
gpuSlot(unsigned idx)
{
    // No lock: the pool is built before the service workers exist and
    // destroyed after they are joined, so its shape is stable for the
    // whole window in which anyone can call this.
    DriverState &s = state();
    NVBIT_ASSERT(idx < s.gpus.size(), "bad GPU slot index %u", idx);
    return *s.gpus[idx];
}

unsigned
gpuSlotCount()
{
    return static_cast<unsigned>(state().gpus.size());
}

void
noteLaunchDone(CUctx_st *ctx, CUfunc_st *fn, const sim::LaunchStats &st)
{
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        s.last_launch = st;
        s.totals.merge(st);
        if (fn) {
            s.module_stats[fn->mod].merge(st);
            ++fn->launch_count;
        }
        if (ctx) {
            ctx->totals.merge(st);
            ++ctx->launches;
        }
    }
    {
        // One Txn: a mid-run scrape sees the device launch count and
        // the tenant's launch/cycle totals move together, never a
        // half-applied launch.
        obs::MetricsRegistry::Txn txn(obs::MetricsRegistry::instance());
        txn.add("driver.launches", 1);
        if (ctx) {
            txn.add(tenantMetric(ctx, "launches"), 1);
            txn.add(tenantMetric(ctx, "cycles"), st.cycles);
        }
    }
    detail::accumulateEventGroups(ctx, st.events);
}

CUresult
noteLaunchFault(CUctx_st *ctx, CUfunc_st *fn,
                const sim::DeviceException &e)
{
    CUresult r = resultOfTrap(e.code);
    const char *fname = fn ? fn->name.c_str() : "<unknown>";
    {
        obs::MetricsRegistry::Txn txn(obs::MetricsRegistry::instance());
        txn.add("driver.faults", 1);
        if (ctx)
            txn.add(tenantMetric(ctx, "faults"), 1);
    }
    if (ctx)
        ++ctx->faults; // counter only ever written on this path
    obs::Tracer &tr = obs::Tracer::instance();
    if (tr.enabled())
        tr.instant(obs::kHostPid, obs::kHostApiTid,
                   strfmt("fault: %s", sim::trapCodeName(e.code)),
                   "driver.fault", tr.nowUs(),
                   {obs::argStr("kernel", fname),
                    obs::argU64("pc", e.pc),
                    obs::argStr("reason", e.reason)});
    warn("kernel '%s' trapped: %s [%s] at pc 0x%llx "
         "(cta %u,%u,%u warp %u sm %u) -> %s",
         fname, e.reason.c_str(), trapCodeName(e.code),
         static_cast<unsigned long long>(e.pc), e.ctaid[0], e.ctaid[1],
         e.ctaid[2], e.warp_id, e.sm_id, resultName(r));
    if (ctx) {
        // Poison the context: every later state-touching API returns
        // this error until cuDevicePrimaryCtxReset.  The fault domain
        // is this context alone — other tenants never observe it.
        DriverState &s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        ctx->sticky_error = r;
        ctx->exc_info = CUexceptionInfo{};
        ctx->exc_info.exc = e;
        ctx->exc_info.error = r;
        ctx->exc_info.app_pc = e.pc;
        if (fn)
            ctx->exc_info.func_name = fn->name;
        ctx->exc_info.valid = true;
    }
    // Leave valid (partial) observability artifacts on disk even if
    // the process never reaches its exit handler after this error.
    obs::StructuredLog::instance().log(
        obs::LogLevel::Error, "driver",
        strfmt("kernel '%s' trapped: %s", fname,
               sim::trapCodeName(e.code)),
        {{"kernel", fname},
         {"reason", e.reason},
         {"pc", std::to_string(e.pc)},
         {"tenant",
          ctx ? std::to_string(ctx->tenant_id) : std::string("-")}});
    obs::flushAll(obs::FlushReason::Fault);
    return r;
}

DriverAccounting
captureAccounting(CUctx_st *ctx)
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    DriverAccounting acc;
    acc.last_launch = s.last_launch;
    acc.device_totals = s.totals;
    if (ctx) {
        acc.ctx_totals = ctx->totals;
        acc.ctx_launches = ctx->launches;
        acc.ctx_faults = ctx->faults;
    }
    return acc;
}

void
restoreAccounting(CUctx_st *ctx, const DriverAccounting &acc)
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.last_launch = acc.last_launch;
    s.totals = acc.device_totals;
    if (ctx) {
        ctx->totals = acc.ctx_totals;
        ctx->launches = acc.ctx_launches;
        ctx->faults = acc.ctx_faults;
    }
}

} // namespace detail

// --- Context ---------------------------------------------------------------

CUresult
cuCtxCreate(CUcontext *ctx, unsigned flags, CUdevice dev)
{
    cuCtxCreate_params p{ctx, flags, dev};
    ApiScope scope(CallbackId::cuCtxCreate, &p);
    DriverState &s = state();
    CUcontext created = nullptr;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return scope.status() = CUDA_ERROR_NOT_INITIALIZED;
        if (!ctx || dev < 0 ||
            dev >= static_cast<CUdevice>(s.gpus.size()))
            return scope.status() = CUDA_ERROR_INVALID_VALUE;
        auto c = std::make_unique<CUctx_st>();
        c->gpu = s.gpus[dev]->gpu.get();
        c->gpu_index = static_cast<unsigned>(dev);
        c->tenant_id = s.next_tenant_id++;
        s.contexts.push_back(std::move(c));
        created = s.contexts.back().get();
    }
    detail::StreamService::instance().registerContext(created);
    *ctx = created;
    setCurCtx(created);
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuCtxDestroy(CUcontext ctx)
{
    cuCtxDestroy_params p{ctx};
    ApiScope scope(CallbackId::cuCtxDestroy, &p);
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = std::find_if(
            s.contexts.begin(), s.contexts.end(),
            [&](const auto &c) { return c.get() == ctx; });
        if (it == s.contexts.end())
            return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    }
    // Teardown ordering (mirrors the event_groups contract): first the
    // stream service cancels queued ops and waits out the in-flight
    // one, then the registries drop the context, then it is freed.
    detail::StreamService::instance().drainContext(ctx);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = std::find_if(s.contexts.begin(), s.contexts.end(),
                           [&](const auto &c) { return c.get() == ctx; });
    if (it == s.contexts.end())
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    detail::dropEventGroupsForContext(ctx);
    for (const auto &mod : ctx->modules)
        unregisterModulePcNames(mod.get());
    if (s.tool_module && s.tool_module->ctx == ctx)
        s.tool_module = nullptr;
    if (curCtx() == ctx)
        setCurCtx(nullptr);
    s.contexts.erase(it);
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuCtxGetCurrent(CUcontext *ctx)
{
    if (!ctx)
        return CUDA_ERROR_INVALID_VALUE;
    *ctx = curCtx();
    return CUDA_SUCCESS;
}

CUresult
cuCtxSetCurrent(CUcontext ctx)
{
    setCurCtx(ctx);
    return CUDA_SUCCESS;
}

CUresult
cuCtxSynchronize()
{
    ApiScope scope(CallbackId::cuCtxSynchronize, nullptr);
    CUcontext ctx = curCtx();
    if (ctx)
        detail::StreamService::instance().syncContext(ctx);
    if (CUresult e = stickyError())
        return scope.status() = e;
    return scope.status() = CUDA_SUCCESS;
}

// --- Modules ----------------------------------------------------------------

namespace {

/** Called with the driver state mutex held; takes the GPU slot mutex
 *  for the device-memory traffic (S-before-G lock order). */
CUresult
placeModule(CUctx_st *ctx, const ModuleData &data, bool is_tool_module,
            const std::map<std::string, CUdeviceptr> *extra_syms,
            CUmodule *out)
{
    sim::GpuDevice &gpu = *ctx->gpu;
    std::lock_guard<std::mutex> dev(
        detail::gpuSlot(ctx->gpu_index).mu);
    if (data.family != gpu.family()) {
        warn("module compiled for %s but device is %s",
             isa::archFamilyName(data.family),
             isa::archFamilyName(gpu.family()));
        return CUDA_ERROR_INVALID_IMAGE;
    }

    auto mod = std::make_unique<CUmod_st>();
    mod->ctx = ctx;
    mod->family = data.family;
    mod->is_tool_module = is_tool_module;
    mod->files = data.files;
    mod->bank1 = data.bank1;

    // Place globals and patch their bank-1 address slots.
    for (const ptx::GlobalVar &g : data.globals) {
        mem::DevPtr addr = gpu.memory().tryAlloc(
            std::max<uint64_t>(g.size_bytes, 1), 256);
        if (!addr)
            return CUDA_ERROR_OUT_OF_MEMORY;
        std::vector<uint8_t> init(g.size_bytes, 0);
        if (!g.init.empty())
            std::copy(g.init.begin(), g.init.end(), init.begin());
        gpu.memory().write(addr, init.data(), init.size());
        mod->globals[g.name] = {addr, g.size_bytes};
        NVBIT_ASSERT(g.addr_slot + 8 <= mod->bank1.size(),
                     "global address slot out of bank range");
        std::memcpy(mod->bank1.data() + g.addr_slot, &addr, 8);
    }

    // Place code.
    const size_t align = isa::codeAlignment(data.family);
    for (const FuncImage &fi : data.functions) {
        mem::DevPtr addr =
            gpu.memory().tryAlloc(std::max<size_t>(fi.code.size(), 1),
                                  std::max<size_t>(align, 16));
        if (!addr)
            return CUDA_ERROR_OUT_OF_MEMORY;
        gpu.memory().write(addr, fi.code.data(), fi.code.size());

        auto f = std::make_unique<CUfunc_st>();
        f->mod = mod.get();
        f->name = fi.name;
        f->is_entry = fi.is_entry;
        f->code_addr = addr;
        f->code_size = fi.code.size();
        f->num_regs = fi.num_regs;
        f->frame_bytes = fi.frame_bytes;
        f->shared_bytes = fi.shared_bytes;
        f->param_bytes = fi.param_bytes;
        f->params = fi.params;
        f->line_info = fi.line_info;
        f->uses_device_api = fi.uses_device_api;
        mod->func_by_name[fi.name] = f.get();
        mod->funcs.push_back(std::move(f));
    }

    // Resolve relocations: intra-module first, then extra symbols
    // (NVBit built-ins), then previously loaded modules.
    const size_t ib = isa::instrBytes(data.family);
    for (size_t fi_idx = 0; fi_idx < data.functions.size(); ++fi_idx) {
        const FuncImage &fi = data.functions[fi_idx];
        CUfunc_st *f = mod->funcs[fi_idx].get();

        for (const std::string &rel : fi.related) {
            if (CUfunc_st *t = mod->find(rel)) {
                f->related.push_back(t);
            } else if (extra_syms && extra_syms->count(rel)) {
                f->unresolved_related.push_back(rel);
            } else if (CUfunc_st *t2 = findInContext(ctx, rel)) {
                f->related.push_back(t2);
            } else {
                f->unresolved_related.push_back(rel);
            }
        }

        for (const ptx::CallReloc &rl : fi.relocs) {
            CUdeviceptr target = 0;
            if (CUfunc_st *t = mod->find(rl.callee)) {
                target = t->code_addr;
            } else if (extra_syms) {
                auto it = extra_syms->find(rl.callee);
                if (it != extra_syms->end())
                    target = it->second;
            }
            if (!target) {
                if (CUfunc_st *t = findInContext(ctx, rl.callee))
                    target = t->code_addr;
            }
            if (!target) {
                warn("unresolved call to '%s' in function '%s'",
                     rl.callee.c_str(), fi.name.c_str());
                return CUDA_ERROR_NOT_FOUND;
            }
            // Patch the CAL instruction in device memory.
            mem::DevPtr at = f->code_addr + rl.instr_index * ib;
            isa::Instruction in;
            auto bytes = gpu.memory().mutableView(at, ib);
            bool ok = isa::decode(data.family, bytes.data(), in);
            NVBIT_ASSERT(ok && in.op == isa::Opcode::CAL,
                         "call relocation does not point at a CAL");
            in.imm = static_cast<int64_t>(target / isa::kJmpScale);
            isa::encode(data.family, in, bytes.data());
        }
    }

    // Transitive stack requirements.
    for (auto &f : mod->funcs) {
        std::vector<CUfunc_st *> visiting;
        f->total_stack = computeTotalStack(f.get(), visiting);
        f->launch_num_regs = f->num_regs;
        f->launch_stack_bytes = f->total_stack;
    }

    // Prewarm the predecode cache now that relocations are patched,
    // so first launches fetch decoded instructions immediately.
    for (auto &f : mod->funcs)
        gpu.predecodeRange(f->code_addr, f->code_size);

    // Snapshot load-time device contents (code after relocation
    // patching, global initial values) for cuDevicePrimaryCtxReset.
    for (auto &f : mod->funcs) {
        if (f->code_size == 0)
            continue;
        std::vector<uint8_t> bytes(f->code_size);
        gpu.memory().read(f->code_addr, bytes.data(), bytes.size());
        mod->pristine.emplace_back(f->code_addr, std::move(bytes));
    }
    for (auto &[name, g] : mod->globals) {
        if (g.second == 0)
            continue;
        std::vector<uint8_t> bytes(g.second);
        gpu.memory().read(g.first, bytes.data(), bytes.size());
        mod->pristine.emplace_back(g.first, std::move(bytes));
    }

    for (auto &f : mod->funcs)
        registerPcName(f->code_addr, f->code_size, f->name);

    ctx->modules.push_back(std::move(mod));
    *out = ctx->modules.back().get();
    if (is_tool_module) {
        ctx->tool_module = *out;
        state().tool_module = *out;
    }
    return CUDA_SUCCESS;
}

} // namespace

CUresult
loadModuleInternal(CUmodule *out, CUcontext ctx, const void *image,
                   size_t size, bool fire_callbacks, bool is_tool_module,
                   const std::map<std::string, CUdeviceptr> *extra_syms)
{
    if (!out || !image || !ctx)
        return CUDA_ERROR_INVALID_VALUE;
    (void)fire_callbacks; // callbacks are handled by the public wrapper

    ModuleData data;
    if (isBinaryImage(image, size)) {
        if (!deserializeModule(image, size, data))
            return CUDA_ERROR_INVALID_IMAGE;
    } else {
        // JIT path: treat the image as PTX text.
        std::string src(static_cast<const char *>(image),
                        size ? size : std::strlen(
                                          static_cast<const char *>(image)));
        try {
            ptx::CompiledModule cm =
                ptx::compile(src, ctx->gpu->family());
            data = fromCompiled(cm);
        } catch (const ptx::CompileError &e) {
            warn("driver JIT failed at line %d: %s", e.line,
                 e.message.c_str());
            return CUDA_ERROR_INVALID_IMAGE;
        }
    }
    std::lock_guard<std::mutex> lk(state().mu);
    return placeModule(ctx, data, is_tool_module, extra_syms, out);
}

CUresult
cuModuleLoadData(CUmodule *mod, const void *image, size_t image_size)
{
    cuModuleLoadData_params p{mod, image, image_size};
    ApiScope scope(CallbackId::cuModuleLoadData, &p);
    obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid,
                        "cuModuleLoadData", "driver.module");
    span.arg("bytes", static_cast<uint64_t>(image_size));
    CUcontext ctx = curCtx();
    if (!ctx)
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    if (CUresult e = ctx->sticky_error)
        return scope.status() = e;
    obs::MetricsRegistry::instance().add("driver.module_loads", 1);
    return scope.status() = loadModuleInternal(mod, ctx, image,
                                               image_size, false, false,
                                               nullptr);
}

CUresult
cuModuleUnload(CUmodule mod)
{
    cuModuleUnload_params p{mod};
    ApiScope scope(CallbackId::cuModuleUnload, &p);
    CUcontext ctx = curCtx();
    if (!ctx || !mod)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    // Drain the context's streams: a queued launch may still execute
    // from this module's code.
    detail::StreamService::instance().syncContext(ctx);
    std::lock_guard<std::mutex> lk(state().mu);
    auto it = std::find_if(ctx->modules.begin(), ctx->modules.end(),
                           [&](const auto &m) { return m.get() == mod; });
    if (it == ctx->modules.end())
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    unregisterModulePcNames(mod);
    {
        // Free device resources.  Predecoded pages are dropped before
        // the address range can be reallocated to a new module's code.
        std::lock_guard<std::mutex> dev(
            detail::gpuSlot(ctx->gpu_index).mu);
        for (auto &f : mod->funcs) {
            ctx->gpu->invalidateCodeRange(f->code_addr, f->code_size);
            ctx->gpu->memory().free(f->code_addr);
        }
        for (auto &[name, g] : mod->globals)
            ctx->gpu->memory().free(g.first);
    }
    if (ctx->tool_module == mod)
        ctx->tool_module = nullptr;
    if (state().tool_module == mod)
        state().tool_module = nullptr;
    ctx->modules.erase(it);
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuModuleGetFunction(CUfunction *fn, CUmodule mod, const char *name)
{
    cuModuleGetFunction_params p{fn, mod, name};
    ApiScope scope(CallbackId::cuModuleGetFunction, &p);
    if (!fn || !mod || !name)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    CUfunc_st *f = mod->find(name);
    if (!f)
        return scope.status() = CUDA_ERROR_NOT_FOUND;
    *fn = f;
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuModuleGetGlobal(CUdeviceptr *ptr, size_t *bytes, CUmodule mod,
                  const char *name)
{
    cuModuleGetGlobal_params p{ptr, bytes, mod, name};
    ApiScope scope(CallbackId::cuModuleGetGlobal, &p);
    if (!mod || !name)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    auto it = mod->globals.find(name);
    if (it == mod->globals.end())
        return scope.status() = CUDA_ERROR_NOT_FOUND;
    if (ptr)
        *ptr = it->second.first;
    if (bytes)
        *bytes = it->second.second;
    return scope.status() = CUDA_SUCCESS;
}

// --- Memory -----------------------------------------------------------------

CUresult
cuMemAlloc(CUdeviceptr *ptr, size_t bytes)
{
    cuMemAlloc_params p{ptr, bytes};
    ApiScope scope(CallbackId::cuMemAlloc, &p);
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return scope.status() = CUDA_ERROR_NOT_INITIALIZED;
    }
    if (CUresult e = stickyError())
        return scope.status() = e;
    if (!ptr)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    CUcontext ctx = curCtx();
    const unsigned gi = slotIndexFor(ctx);
    detail::GpuSlot &slot = detail::gpuSlot(gi);
    mem::DevPtr a;
    {
        std::lock_guard<std::mutex> dev(slot.mu);
        a = slot.gpu->memory().tryAlloc(bytes, 256);
    }
    if (!a)
        return scope.status() = CUDA_ERROR_OUT_OF_MEMORY;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        s.user_allocs[{gi, a}] = {bytes, ctx};
    }
    *ptr = a;
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuMemFree(CUdeviceptr ptr)
{
    cuMemFree_params p{ptr};
    ApiScope scope(CallbackId::cuMemFree, &p);
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return scope.status() = CUDA_ERROR_NOT_INITIALIZED;
    }
    // Deliberately NOT gated on the sticky error so faulted apps can
    // still tear down; real CUDA frees everything at ctx destruction.
    //
    // The free targets the GPU that *owns* the allocation, not the
    // caller's current context: a thread bound to another (or no)
    // context may legally free the pointer, and with NVBIT_SIM_GPU_POOL
    // > 1 the same base can name an unrelated allocation on the
    // caller's GPU.
    CUcontext ctx = curCtx();
    unsigned gi = slotIndexFor(ctx);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = s.user_allocs.find({gi, ptr});
        if (it == s.user_allocs.end()) {
            it = std::find_if(s.user_allocs.begin(),
                              s.user_allocs.end(), [&](const auto &e) {
                                  return e.first.second == ptr;
                              });
        }
        if (it != s.user_allocs.end())
            gi = it->first.first;
    }
    detail::GpuSlot &slot = detail::gpuSlot(gi);
    {
        std::lock_guard<std::mutex> dev(slot.mu);
        slot.gpu->memory().free(ptr);
    }
    std::lock_guard<std::mutex> lk(s.mu);
    s.user_allocs.erase({gi, ptr});
    return scope.status() = CUDA_SUCCESS;
}

namespace {

/** Shared body of the synchronous device-memory APIs: legacy-stream
 *  ordering (drain the context's async work first), then the slot
 *  lock, then the raw memory op.  The op targets the GPU owning the
 *  allocation @p dptr points into (for DtoD, the destination), not
 *  blindly the caller's current context. */
template <typename Fn>
CUresult
syncMemOp(CUcontext ctx, CUdeviceptr dptr, Fn &&fn)
{
    if (ctx)
        detail::StreamService::instance().syncContext(ctx);
    detail::GpuSlot &slot = detail::gpuSlot(slotIndexForPtr(ctx, dptr));
    try {
        std::lock_guard<std::mutex> dev(slot.mu);
        fn(slot.gpu->memory());
    } catch (const mem::DeviceMemory::MemFault &) {
        return CUDA_ERROR_ILLEGAL_ADDRESS;
    }
    return CUDA_SUCCESS;
}

} // namespace

CUresult
cuMemcpyHtoD(CUdeviceptr dst, const void *src, size_t bytes)
{
    cuMemcpy_params p{dst, 0, src, nullptr, bytes};
    ApiScope scope(CallbackId::cuMemcpyHtoD, &p);
    obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid,
                        "cuMemcpyHtoD", "driver.memcpy");
    span.arg("bytes", static_cast<uint64_t>(bytes));
    if (CUresult e = stickyError())
        return scope.status() = e;
    CUresult r = syncMemOp(curCtx(), dst, [&](mem::DeviceMemory &m) {
        m.write(dst, src, bytes);
    });
    if (r == CUDA_SUCCESS)
        obs::MetricsRegistry::instance().add("driver.memcpy_htod_bytes",
                                             bytes);
    return scope.status() = r;
}

CUresult
cuMemcpyDtoH(void *dst, CUdeviceptr src, size_t bytes)
{
    cuMemcpy_params p{0, src, nullptr, dst, bytes};
    ApiScope scope(CallbackId::cuMemcpyDtoH, &p);
    obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid,
                        "cuMemcpyDtoH", "driver.memcpy");
    span.arg("bytes", static_cast<uint64_t>(bytes));
    if (CUresult e = stickyError())
        return scope.status() = e;
    CUresult r = syncMemOp(curCtx(), src, [&](mem::DeviceMemory &m) {
        m.read(src, dst, bytes);
    });
    if (r == CUDA_SUCCESS)
        obs::MetricsRegistry::instance().add("driver.memcpy_dtoh_bytes",
                                             bytes);
    return scope.status() = r;
}

CUresult
cuMemcpyDtoD(CUdeviceptr dst, CUdeviceptr src, size_t bytes)
{
    cuMemcpy_params p{dst, src, nullptr, nullptr, bytes};
    ApiScope scope(CallbackId::cuMemcpyDtoD, &p);
    obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid,
                        "cuMemcpyDtoD", "driver.memcpy");
    span.arg("bytes", static_cast<uint64_t>(bytes));
    if (CUresult e = stickyError())
        return scope.status() = e;
    CUresult r = syncMemOp(curCtx(), dst, [&](mem::DeviceMemory &m) {
        std::vector<uint8_t> tmp(bytes);
        m.read(src, tmp.data(), bytes);
        m.write(dst, tmp.data(), bytes);
    });
    if (r == CUDA_SUCCESS)
        obs::MetricsRegistry::instance().add("driver.memcpy_dtod_bytes",
                                             bytes);
    return scope.status() = r;
}

CUresult
cuMemsetD8(CUdeviceptr dst, uint8_t value, size_t bytes)
{
    cuMemsetD8_params p{dst, value, bytes};
    ApiScope scope(CallbackId::cuMemsetD8, &p);
    if (CUresult e = stickyError())
        return scope.status() = e;
    return scope.status() =
               syncMemOp(curCtx(), dst, [&](mem::DeviceMemory &m) {
                   std::vector<uint8_t> tmp(bytes, value);
                   m.write(dst, tmp.data(), bytes);
               });
}

CUresult
cuMemsetD32(CUdeviceptr dst, uint32_t value, size_t count)
{
    {
        DriverState &s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return CUDA_ERROR_NOT_INITIALIZED;
    }
    if (CUresult e = stickyError())
        return e;
    return syncMemOp(curCtx(), dst, [&](mem::DeviceMemory &m) {
        std::vector<uint32_t> tmp(count, value);
        m.write(dst, tmp.data(), count * 4);
    });
}

CUresult
cuMemGetInfo(size_t *free_bytes, size_t *total_bytes)
{
    {
        DriverState &s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return CUDA_ERROR_NOT_INITIALIZED;
    }
    detail::GpuSlot &slot = detail::gpuSlot(slotIndexFor(curCtx()));
    std::lock_guard<std::mutex> dev(slot.mu);
    const mem::DeviceMemory &m = slot.gpu->memory();
    if (total_bytes)
        *total_bytes = m.size();
    if (free_bytes)
        *free_bytes = m.size() - m.bytesAllocated();
    return CUDA_SUCCESS;
}

// --- Async memcpy -----------------------------------------------------------

CUresult
cuMemcpyHtoDAsync(CUdeviceptr dst, const void *src, size_t bytes,
                  CUstream stream)
{
    cuMemcpyAsync_params p{dst, 0, src, nullptr, bytes, stream};
    ApiScope scope(CallbackId::cuMemcpyHtoDAsync, &p);
    CUcontext ctx = curCtx();
    if (!ctx)
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    if (CUresult e = ctx->sticky_error)
        return scope.status() = e;
    detail::StreamService &svc = detail::StreamService::instance();
    if (stream && !svc.streamBelongsTo(stream, ctx))
        return scope.status() = CUDA_ERROR_INVALID_HANDLE;
    auto op = std::make_shared<StreamOp>();
    op->kind = StreamOp::Kind::CopyHtoD;
    op->dptr = dst;
    op->src_host = src;
    op->bytes = bytes;
    return scope.status() =
               svc.enqueue(stream ? stream : ctx->default_stream,
                           std::move(op), false);
}

CUresult
cuMemcpyDtoHAsync(void *dst, CUdeviceptr src, size_t bytes,
                  CUstream stream)
{
    cuMemcpyAsync_params p{0, src, nullptr, dst, bytes, stream};
    ApiScope scope(CallbackId::cuMemcpyDtoHAsync, &p);
    CUcontext ctx = curCtx();
    if (!ctx)
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    if (CUresult e = ctx->sticky_error)
        return scope.status() = e;
    detail::StreamService &svc = detail::StreamService::instance();
    if (stream && !svc.streamBelongsTo(stream, ctx))
        return scope.status() = CUDA_ERROR_INVALID_HANDLE;
    auto op = std::make_shared<StreamOp>();
    op->kind = StreamOp::Kind::CopyDtoH;
    op->dptr = src;
    op->dst_host = dst;
    op->bytes = bytes;
    return scope.status() =
               svc.enqueue(stream ? stream : ctx->default_stream,
                           std::move(op), false);
}

// --- Streams and events -----------------------------------------------------

CUresult
cuStreamCreate(CUstream *stream, unsigned flags)
{
    cuStreamCreate_params p{stream, flags};
    ApiScope scope(CallbackId::cuStreamCreate, &p);
    (void)flags; // CU_STREAM_NON_BLOCKING etc. are accepted and ignored
    if (!stream)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    CUcontext ctx = curCtx();
    if (!ctx)
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    return scope.status() =
               detail::StreamService::instance().streamCreate(ctx,
                                                              stream);
}

CUresult
cuStreamDestroy(CUstream stream)
{
    cuStreamDestroy_params p{stream};
    ApiScope scope(CallbackId::cuStreamDestroy, &p);
    return scope.status() =
               detail::StreamService::instance().streamDestroy(stream);
}

CUresult
cuStreamSynchronize(CUstream stream)
{
    cuStreamSynchronize_params p{stream};
    ApiScope scope(CallbackId::cuStreamSynchronize, &p);
    detail::StreamService &svc = detail::StreamService::instance();
    if (!stream) {
        CUcontext ctx = curCtx();
        if (!ctx)
            return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
        svc.syncContext(ctx);
        return scope.status() = ctx->sticky_error.load();
    }
    return scope.status() = svc.streamSynchronize(stream);
}

CUresult
cuStreamQuery(CUstream stream)
{
    detail::StreamService &svc = detail::StreamService::instance();
    if (!stream) {
        CUcontext ctx = curCtx();
        if (!ctx)
            return CUDA_ERROR_INVALID_CONTEXT;
        return svc.streamQuery(ctx->default_stream);
    }
    return svc.streamQuery(stream);
}

CUresult
cuStreamWaitEvent(CUstream stream, CUevent event, unsigned flags)
{
    cuStreamWaitEvent_params p{stream, event, flags};
    ApiScope scope(CallbackId::cuStreamWaitEvent, &p);
    detail::StreamService &svc = detail::StreamService::instance();
    if (!stream) {
        CUcontext ctx = curCtx();
        if (!ctx)
            return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
        stream = ctx->default_stream;
    }
    return scope.status() = svc.streamWaitEvent(stream, event, flags);
}

CUresult
cuEventCreate(CUevent *event, unsigned flags)
{
    cuEventCreate_params p{event, flags};
    ApiScope scope(CallbackId::cuEventCreate, &p);
    (void)flags;
    if (!event)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    CUcontext ctx = curCtx();
    if (!ctx)
        return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
    return scope.status() =
               detail::StreamService::instance().eventCreate(ctx, event);
}

CUresult
cuEventDestroy(CUevent event)
{
    cuEventDestroy_params p{event};
    ApiScope scope(CallbackId::cuEventDestroy, &p);
    return scope.status() =
               detail::StreamService::instance().eventDestroy(event);
}

CUresult
cuEventRecord(CUevent event, CUstream stream)
{
    cuEventRecord_params p{event, stream};
    ApiScope scope(CallbackId::cuEventRecord, &p);
    detail::StreamService &svc = detail::StreamService::instance();
    if (!stream) {
        CUcontext ctx = curCtx();
        if (!ctx)
            return scope.status() = CUDA_ERROR_INVALID_CONTEXT;
        stream = ctx->default_stream;
    }
    return scope.status() = svc.eventRecord(event, stream);
}

CUresult
cuEventSynchronize(CUevent event)
{
    cuEventSynchronize_params p{event};
    ApiScope scope(CallbackId::cuEventSynchronize, &p);
    return scope.status() =
               detail::StreamService::instance().eventSynchronize(event);
}

CUresult
cuEventQuery(CUevent event)
{
    return detail::StreamService::instance().eventQuery(event);
}

CUresult
cuEventElapsedTime(float *ms, CUevent start, CUevent end)
{
    return detail::StreamService::instance().eventElapsed(ms, start,
                                                          end);
}

// --- Function attributes ----------------------------------------------------

CUresult
cuFuncGetAttribute(int *value, CUfunction_attribute attrib,
                   CUfunction fn)
{
    if (!value || !fn)
        return CUDA_ERROR_INVALID_VALUE;
    switch (attrib) {
      case CU_FUNC_ATTRIBUTE_NUM_REGS:
        *value = static_cast<int>(fn->num_regs);
        return CUDA_SUCCESS;
      case CU_FUNC_ATTRIBUTE_SHARED_SIZE_BYTES:
        *value = static_cast<int>(fn->shared_bytes);
        return CUDA_SUCCESS;
      case CU_FUNC_ATTRIBUTE_LOCAL_SIZE_BYTES:
        *value = static_cast<int>(fn->total_stack);
        return CUDA_SUCCESS;
      case CU_FUNC_ATTRIBUTE_MAX_THREADS_PER_BLOCK:
        *value = 1024;
        return CUDA_SUCCESS;
    }
    return CUDA_ERROR_INVALID_VALUE;
}

// --- Launch -----------------------------------------------------------------

CUresult
cuLaunchKernel(CUfunction fn, unsigned grid_x, unsigned grid_y,
               unsigned grid_z, unsigned block_x, unsigned block_y,
               unsigned block_z, unsigned shared_bytes, CUstream stream,
               void **params, void **extra)
{
    cuLaunchKernel_params p{fn, grid_x, grid_y, grid_z,
                            block_x, block_y, block_z,
                            shared_bytes, stream, params, extra};
    ApiScope scope(CallbackId::cuLaunchKernel, &p);
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return scope.status() = CUDA_ERROR_NOT_INITIALIZED;
    }
    if (CUresult e = stickyError())
        return scope.status() = e;
    if (!fn || !fn->is_entry)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    // Per-dimension limits checked before the product so that the
    // 64-bit multiply below cannot be fed absurd values; the widened
    // product avoids the 32-bit wrap (65536 * 65536 * 1 == 0) that
    // would otherwise slip a giant block past the 1024-thread cap.
    if (grid_x == 0 || grid_y == 0 || grid_z == 0 || block_x == 0 ||
        block_y == 0 || block_z == 0 || grid_x > 0x7FFFFFFFu ||
        grid_y > 65535 || grid_z > 65535 || block_x > 1024 ||
        block_y > 1024 || block_z > 64 ||
        static_cast<uint64_t>(block_x) * block_y * block_z > 1024) {
        return scope.status() = CUDA_ERROR_INVALID_VALUE;
    }

    CUcontext ctx = curCtx();
    detail::StreamService &svc = detail::StreamService::instance();
    // Stream resolution: the null stream is the context's default
    // (legacy) stream; explicit handles must be live and belong to
    // the calling context.
    const bool legacy = stream == nullptr;
    if (!legacy && (!ctx || !svc.streamBelongsTo(stream, ctx)))
        return scope.status() = CUDA_ERROR_INVALID_HANDLE;
    // Shared and local sizes come from the image: widened sums, so a
    // huge static size cannot wrap past the device limits.
    const uint64_t smem = uint64_t{fn->shared_bytes} + shared_bytes;
    const uint64_t local =
        uint64_t{fn->launch_stack_bytes} + kLaunchStackMargin;
    if (smem > detail::gpuSlot(slotIndexFor(ctx)).gpu->config().smem_per_sm ||
        local > kMaxLocalBytesPerThread)
        return scope.status() = CUDA_ERROR_INVALID_VALUE;

    sim::LaunchParams lp;
    lp.entry_pc = fn->code_addr;
    lp.label = fn->name;
    lp.grid[0] = grid_x;
    lp.grid[1] = grid_y;
    lp.grid[2] = grid_z;
    lp.block[0] = block_x;
    lp.block[1] = block_y;
    lp.block[2] = block_z;
    lp.num_regs = fn->launch_num_regs;
    lp.local_bytes = static_cast<uint32_t>(local);
    lp.shared_bytes = static_cast<uint32_t>(smem);
    lp.bank1 = fn->mod->bank1;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (s.tool_module)
            lp.bank2 = s.tool_module->bank1;
    }

    // Build constant bank 0 from the parameter pointers.
    if (!fn->params.empty()) {
        if (!params)
            return scope.status() = CUDA_ERROR_INVALID_VALUE;
        lp.bank0.resize(fn->param_bytes, 0);
        for (size_t i = 0; i < fn->params.size(); ++i) {
            const ptx::ParamInfo &pi = fn->params[i];
            if (!params[i])
                return scope.status() = CUDA_ERROR_INVALID_VALUE;
            std::memcpy(lp.bank0.data() + pi.bank0_offset, params[i],
                        ptx::paramBytes(pi.kind));
        }
    }

    if (!ctx) {
        // Legacy: a launch without a context executes synchronously on
        // device 0 with no fault domain to poison.
        obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid, fn->name,
                            "driver.launch");
        return scope.status() = runLaunchNow(nullptr, fn, lp, 0);
    }

    // While an NVBit tool is attached every launch is synchronous:
    // the core instruments on the entry callback and reads the launch
    // stats on the exit callback, so the work must be complete before
    // this API returns.
    const bool sync_launch = legacy || driverInterposerActive();
    if (sync_launch) {
        obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid, fn->name,
                            "driver.launch");
        span.arg("grid",
                 static_cast<uint64_t>(grid_x) * grid_y * grid_z);
        span.arg("block",
                 static_cast<uint64_t>(block_x) * block_y * block_z);
        if (legacy && svc.tryBeginInline(ctx)) {
            // Fast path: every stream of the context is idle, so
            // legacy ordering holds trivially and the launch runs on
            // this thread with no worker handoff.
            const uint64_t t0 = nowNs();
            CUresult r = runLaunchNow(ctx, fn, lp, ctx->gpu_index);
            svc.endInline(ctx);
            obs::MetricsRegistry::instance().observe(
                tenantMetric(ctx, "launch_latency_us"),
                (nowNs() - t0) / 1000);
            return scope.status() = r;
        }
        auto op = std::make_shared<StreamOp>();
        op->kind = StreamOp::Kind::Launch;
        op->fn = fn;
        op->lp = std::move(lp);
        CUstream_st *target = legacy ? ctx->default_stream : stream;
        CUresult er = svc.enqueue(target, op, /*waited=*/true);
        if (er != CUDA_SUCCESS)
            return scope.status() = er;
        return scope.status() = svc.waitOp(op);
    }

    // Asynchronous path: enqueue on the explicit stream and return.
    // Subject to the bounded-queue backpressure contract; faults are
    // deferred to the next synchronisation.
    auto op = std::make_shared<StreamOp>();
    op->kind = StreamOp::Kind::Launch;
    op->fn = fn;
    op->lp = std::move(lp);
    return scope.status() = svc.enqueue(stream, std::move(op),
                                        /*waited=*/false);
}

// --- Device exceptions -----------------------------------------------------

CUresult
cuCtxGetExceptionInfo(CUcontext ctx, CUexceptionInfo *info)
{
    DriverState &s = state();
    if (!ctx || !info)
        return CUDA_ERROR_INVALID_VALUE;
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = std::find_if(s.contexts.begin(), s.contexts.end(),
                           [&](const auto &c) { return c.get() == ctx; });
    if (it == s.contexts.end())
        return CUDA_ERROR_INVALID_CONTEXT;
    if (!ctx->exc_info.valid)
        return CUDA_ERROR_NOT_FOUND;
    *info = ctx->exc_info;
    return CUDA_SUCCESS;
}

CUexceptionInfo *
mutableExceptionInfo(CUcontext ctx)
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = std::find_if(s.contexts.begin(), s.contexts.end(),
                           [&](const auto &c) { return c.get() == ctx; });
    return it == s.contexts.end() ? nullptr : &ctx->exc_info;
}

CUresult
cuDevicePrimaryCtxReset(CUdevice dev)
{
    cuDevicePrimaryCtxReset_params p{dev};
    ApiScope scope(CallbackId::cuDevicePrimaryCtxReset, &p);
    obs::TraceSpan span(obs::kHostPid, obs::kHostApiTid,
                        "cuDevicePrimaryCtxReset", "driver.recovery");
    obs::MetricsRegistry::instance().add("driver.ctx_resets", 1);
    DriverState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.initialized)
            return scope.status() = CUDA_ERROR_NOT_INITIALIZED;
        if (dev < 0 || dev >= static_cast<CUdevice>(s.gpus.size()))
            return scope.status() = CUDA_ERROR_INVALID_VALUE;
    }
    detail::StreamService &svc = detail::StreamService::instance();

    // Restore one context: clear the poison, rewrite its non-tool
    // modules' pristine bytes and zero its allocations.  Takes S then
    // G (the canonical order).  Tool modules are exempt: tool counters
    // must survive the reset so a fault-injection campaign can read
    // its evidence after recovering the device.
    auto restoreCtx = [&](CUctx_st *c) {
        svc.syncContext(c); // safe on stale pointers (re-validates)
        std::lock_guard<std::mutex> lk(s.mu);
        // Re-validate against the registry (the double-lookup pattern
        // cuCtxDestroy uses): on the device-wide path @p c is a
        // snapshot pointer that a concurrent cuCtxDestroy may have
        // freed after the snapshot was taken; everything below
        // dereferences it.
        auto alive = std::find_if(
            s.contexts.begin(), s.contexts.end(),
            [&](const auto &cp) { return cp.get() == c; });
        if (alive == s.contexts.end())
            return;
        c->sticky_error = CUDA_SUCCESS;
        c->exc_info = CUexceptionInfo{};
        detail::GpuSlot &slot = detail::gpuSlot(c->gpu_index);
        std::lock_guard<std::mutex> devlk(slot.mu);
        for (auto &mod : c->modules) {
            if (mod->is_tool_module)
                continue;
            for (const auto &[addr, bytes] : mod->pristine)
                slot.gpu->memory().write(addr, bytes.data(),
                                         bytes.size());
        }
        // Zero the context's allocations.  Divergence from real CUDA
        // (which destroys them): addresses stay valid so host code can
        // rebuild its working set without re-allocating.
        std::vector<uint8_t> zeros;
        for (const auto &[key, ua] : s.user_allocs) {
            if (ua.owner != c)
                continue;
            zeros.assign(ua.bytes, 0);
            slot.gpu->memory().write(key.second, zeros.data(),
                                     zeros.size());
        }
    };

    CUcontext cur = curCtx();
    if (cur && cur->gpu_index == static_cast<unsigned>(dev)) {
        // Context-scoped recovery: only the calling tenant is reset;
        // healthy tenants sharing the GPU are untouched.
        restoreCtx(cur);
    } else {
        // Legacy device-wide reset (no current context on this
        // device): every context bound to the device is restored, and
        // ownerless allocations are zeroed too.
        std::vector<CUctx_st *> victims;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            for (auto &c : s.contexts)
                if (c->gpu_index == static_cast<unsigned>(dev))
                    victims.push_back(c.get());
        }
        for (CUctx_st *c : victims)
            restoreCtx(c);
        std::lock_guard<std::mutex> lk(s.mu);
        detail::GpuSlot &slot = detail::gpuSlot(
            static_cast<unsigned>(dev));
        std::lock_guard<std::mutex> devlk(slot.mu);
        std::vector<uint8_t> zeros;
        for (const auto &[key, ua] : s.user_allocs) {
            // Ownerless allocations on *this* device only: with a GPU
            // pool the same base can name an allocation elsewhere.
            if (ua.owner != nullptr ||
                key.first != static_cast<unsigned>(dev))
                continue;
            zeros.assign(ua.bytes, 0);
            slot.gpu->memory().write(key.second, zeros.data(),
                                     zeros.size());
        }
    }
    {
        detail::GpuSlot &slot = detail::gpuSlot(
            static_cast<unsigned>(dev));
        std::lock_guard<std::mutex> devlk(slot.mu);
        slot.gpu->invalidateCaches();
    }
    return scope.status() = CUDA_SUCCESS;
}

CUresult
cuGetErrorString(CUresult error, const char **str)
{
    if (!str)
        return CUDA_ERROR_INVALID_VALUE;
    switch (error) {
      case CUDA_SUCCESS:
        *str = "no error"; return CUDA_SUCCESS;
      case CUDA_ERROR_INVALID_VALUE:
        *str = "invalid argument"; return CUDA_SUCCESS;
      case CUDA_ERROR_OUT_OF_MEMORY:
        *str = "out of memory"; return CUDA_SUCCESS;
      case CUDA_ERROR_NOT_INITIALIZED:
        *str = "initialization error"; return CUDA_SUCCESS;
      case CUDA_ERROR_DEINITIALIZED:
        *str = "driver shutting down"; return CUDA_SUCCESS;
      case CUDA_ERROR_INVALID_IMAGE:
        *str = "device kernel image is invalid"; return CUDA_SUCCESS;
      case CUDA_ERROR_INVALID_CONTEXT:
        *str = "invalid device context"; return CUDA_SUCCESS;
      case CUDA_ERROR_INVALID_HANDLE:
        *str = "invalid resource handle"; return CUDA_SUCCESS;
      case CUDA_ERROR_NOT_FOUND:
        *str = "named symbol not found"; return CUDA_SUCCESS;
      case CUDA_ERROR_NOT_READY:
        *str = "device not ready"; return CUDA_SUCCESS;
      case CUDA_ERROR_ILLEGAL_ADDRESS:
        *str = "an illegal memory access was encountered";
        return CUDA_SUCCESS;
      case CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES:
        *str = "too many resources requested for launch";
        return CUDA_SUCCESS;
      case CUDA_ERROR_LAUNCH_TIMEOUT:
        *str = "the launch timed out and was terminated";
        return CUDA_SUCCESS;
      case CUDA_ERROR_ILLEGAL_INSTRUCTION:
        *str = "an illegal instruction was encountered";
        return CUDA_SUCCESS;
      case CUDA_ERROR_LAUNCH_FAILED:
        *str = "unspecified launch failure"; return CUDA_SUCCESS;
      case CUDA_ERROR_UNKNOWN:
        *str = "unknown error"; return CUDA_SUCCESS;
    }
    *str = nullptr;
    return CUDA_ERROR_INVALID_VALUE;
}

sim::LaunchStats
lastLaunchStats()
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.last_launch;
}

sim::LaunchStats
deviceTotalStats()
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.totals;
}

std::map<const CUmod_st *, sim::LaunchStats>
perModuleStats()
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.module_stats;
}

sim::LaunchStats
contextTotalStats(CUcontext ctx)
{
    DriverState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return ctx ? ctx->totals : sim::LaunchStats{};
}

const char *
resultName(CUresult r)
{
    switch (r) {
      case CUDA_SUCCESS: return "CUDA_SUCCESS";
      case CUDA_ERROR_INVALID_VALUE: return "CUDA_ERROR_INVALID_VALUE";
      case CUDA_ERROR_OUT_OF_MEMORY: return "CUDA_ERROR_OUT_OF_MEMORY";
      case CUDA_ERROR_NOT_INITIALIZED:
        return "CUDA_ERROR_NOT_INITIALIZED";
      case CUDA_ERROR_DEINITIALIZED: return "CUDA_ERROR_DEINITIALIZED";
      case CUDA_ERROR_INVALID_IMAGE: return "CUDA_ERROR_INVALID_IMAGE";
      case CUDA_ERROR_INVALID_CONTEXT:
        return "CUDA_ERROR_INVALID_CONTEXT";
      case CUDA_ERROR_INVALID_HANDLE:
        return "CUDA_ERROR_INVALID_HANDLE";
      case CUDA_ERROR_NOT_FOUND: return "CUDA_ERROR_NOT_FOUND";
      case CUDA_ERROR_NOT_READY: return "CUDA_ERROR_NOT_READY";
      case CUDA_ERROR_LAUNCH_FAILED: return "CUDA_ERROR_LAUNCH_FAILED";
      case CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES:
        return "CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES";
      case CUDA_ERROR_ILLEGAL_ADDRESS:
        return "CUDA_ERROR_ILLEGAL_ADDRESS";
      case CUDA_ERROR_LAUNCH_TIMEOUT:
        return "CUDA_ERROR_LAUNCH_TIMEOUT";
      case CUDA_ERROR_ILLEGAL_INSTRUCTION:
        return "CUDA_ERROR_ILLEGAL_INSTRUCTION";
      default: return "CUDA_ERROR_UNKNOWN";
    }
}

void
checkCu(CUresult r, const char *what)
{
    if (r != CUDA_SUCCESS)
        fatal("%s failed: %s", what, resultName(r));
}

} // namespace nvbit::cudrv
