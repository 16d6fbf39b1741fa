/**
 * @file
 * Driver internals: the object layouts behind CUcontext / CUmodule /
 * CUfunction, plus the private entry points the NVBit core uses.
 *
 * The real NVBit core links against the closed driver and digs these
 * properties out of it ("when the CUDA driver loads an application
 * function, the Driver Interposer records its properties" — max
 * register usage, max stack usage, dependent functions, code
 * location).  Here the same information is exposed through this
 * internal header, which only the NVBit core and tests include;
 * applications use driver/api.hpp.
 */
#ifndef NVBIT_DRIVER_INTERNAL_HPP
#define NVBIT_DRIVER_INTERNAL_HPP

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/api.hpp"
#include "driver/module_image.hpp"
#include "driver/stream.hpp"
#include "sim/gpu.hpp"

namespace nvbit::cudrv {

struct CUmod_st;
struct CUctx_st;

/** A loaded function: machine code resident in device memory. */
struct CUfunc_st {
    CUmod_st *mod = nullptr;
    std::string name;
    bool is_entry = false;

    /** Device address where the code is loaded. */
    CUdeviceptr code_addr = 0;
    /** Code size in bytes (instrumented copies must match this). */
    size_t code_size = 0;

    uint32_t num_regs = 0;      ///< maximum register usage
    uint32_t frame_bytes = 0;   ///< own stack frame
    uint32_t total_stack = 0;   ///< frame + worst-case callee stack
    uint32_t shared_bytes = 0;
    uint32_t param_bytes = 0;
    std::vector<ptx::ParamInfo> params;
    std::vector<CUfunc_st *> related; ///< resolved dependent functions
    std::vector<std::string> unresolved_related;
    std::vector<ptx::LineInfo> line_info;
    bool uses_device_api = false;

    /**
     * Launch requirements actually used by cuLaunchKernel.  NVBit's
     * Code Loader/Unloader overrides these when the instrumented
     * version is resident ("computes the stack and register
     * requirements for the kernel launch, based on which version of
     * the code will be executing").
     */
    uint32_t launch_num_regs = 0;
    uint32_t launch_stack_bytes = 0;

    /** Times this function has been launched. */
    uint64_t launch_count = 0;
};

/** A loaded module. */
struct CUmod_st {
    CUctx_st *ctx = nullptr;
    isa::ArchFamily family = isa::ArchFamily::SM5x;
    bool is_tool_module = false;
    std::vector<std::unique_ptr<CUfunc_st>> funcs;
    std::map<std::string, CUfunc_st *> func_by_name;
    std::map<std::string, std::pair<CUdeviceptr, size_t>> globals;
    /** Constant bank 1 with global addresses patched in. */
    std::vector<uint8_t> bank1;
    std::vector<std::string> files;

    /**
     * Load-time snapshot of every device range the module owns
     * (function code after relocation patching, global initial
     * values), restored by cuDevicePrimaryCtxReset.
     */
    std::vector<std::pair<CUdeviceptr, std::vector<uint8_t>>> pristine;

    CUfunc_st *find(const std::string &name) const;
};

/**
 * A context: one tenant of the driver service.  Owns loaded modules,
 * streams and events, is bound to one GPU of the pool, and is its own
 * fault domain (a device exception poisons only this context).
 */
struct CUctx_st {
    sim::GpuDevice *gpu = nullptr;
    /** Index of the pool GPU this context is bound to. */
    unsigned gpu_index = 0;
    /** Deterministic tenant ordinal (creation order since cuInit);
     *  keys the per-tenant metrics (driver.tenant<N>.*). */
    uint32_t tenant_id = 0;
    std::vector<std::unique_ptr<CUmod_st>> modules;
    /** The NVBit tool module, when one is loaded (its constant data is
     *  exposed to every launch as constant bank 2). */
    CUmod_st *tool_module = nullptr;
    /**
     * Sticky error: set when a launch on this context traps; every
     * subsequent state-touching API returns it until
     * cuDevicePrimaryCtxReset (matching real CUDA context poisoning).
     * Atomic because the stream workers set it while API threads read.
     */
    std::atomic<CUresult> sticky_error{CUDA_SUCCESS};
    /** Record of the poisoning exception (valid while sticky;
     *  guarded by the driver state mutex). */
    CUexceptionInfo exc_info;

    /** Streams; [0] is the default (legacy) stream.  Mutated under the
     *  stream-service mutex. */
    std::vector<std::unique_ptr<CUstream_st>> streams;
    CUstream_st *default_stream = nullptr;
    std::vector<std::unique_ptr<CUevt_st>> events;
    /** Context-wide op ordinal (stream-service mutex). */
    uint64_t next_seq = 0;
    /** Destroy in progress: new enqueues are rejected. */
    bool dying = false;
    uint32_t next_stream_id = 1;

    /** Per-tenant accounting (driver state mutex). */
    sim::LaunchStats totals;
    uint64_t launches = 0;
    uint64_t faults = 0;
};

// --- Internal entry points used by the NVBit core ------------------------

/** @return the simulated device 0 (valid after cuInit).  The NVBit
 *  core instruments through this device; the pool is forced to one
 *  GPU while an interposer is registered. */
sim::GpuDevice &device();

/** @return the number of GPUs in the simulated pool (0 before cuInit). */
unsigned deviceCount();

/** @return the current context, or nullptr. */
CUcontext currentContext();

/**
 * Load a module without firing interposer callbacks and with an extra
 * symbol table for relocation resolution.  This is how NVBit's Tool
 * Functions Loader loads the tool's device functions: "this process
 * does not happen automatically when the application starts because
 * the CUDA driver is unaware of device and global functions contained
 * in the NVBit tool library".
 */
CUresult loadModuleInternal(CUmodule *out, CUcontext ctx,
                            const void *image, size_t size,
                            bool fire_callbacks, bool is_tool_module,
                            const std::map<std::string, CUdeviceptr>
                                *extra_syms);

// The stats accessors below return copies taken under the driver state
// mutex: stream-service workers mutate the underlying fields whenever
// async launches complete, so handing out references would race.

/** Execution statistics of the most recent kernel launch. */
sim::LaunchStats lastLaunchStats();

/** Cumulative statistics across all launches since cuInit. */
sim::LaunchStats deviceTotalStats();

/** Per-module cumulative stats (keyed by module pointer). */
std::map<const CUmod_st *, sim::LaunchStats> perModuleStats();

/** Cumulative stats of one context's launches (per-tenant totals).
 *  Copied out under the driver state mutex. */
sim::LaunchStats contextTotalStats(CUcontext ctx);

/** Stack-margin bytes added to every launch's local allocation. */
constexpr uint32_t kLaunchStackMargin = 512;

/** Per-thread local-memory limit of a launch (CUDA's 512 KiB). */
constexpr uint64_t kMaxLocalBytesPerThread = 512 * 1024;

/**
 * Mutable view of a context's exception record, used by the NVBit
 * core to fill in fault attribution (origin, app_pc) on launch exit.
 * @return nullptr if @p ctx is not a live context.
 */
CUexceptionInfo *mutableExceptionInfo(CUcontext ctx);

namespace detail {

/**
 * One GPU of the simulated pool.  The mutex is the device's "big
 * lock": every access to the GpuDevice (launches, memory traffic,
 * module placement) holds it, serialising tenants that share the GPU
 * exactly like a hardware work queue would.  Lock order: the driver
 * state mutex may be taken *before* a slot mutex, never after.
 */
struct GpuSlot {
    std::unique_ptr<sim::GpuDevice> gpu;
    std::mutex mu;
};

/** Slot @p idx of the pool (valid after cuInit, idx < gpuSlotCount). */
GpuSlot &gpuSlot(unsigned idx);
unsigned gpuSlotCount();

/** Stream-service hook: fold a completed launch into driver/tenant
 *  accounting (last-launch stats, totals, module stats, metrics,
 *  event groups).  Called with no locks held. */
void noteLaunchDone(CUctx_st *ctx, CUfunc_st *fn,
                    const sim::LaunchStats &st);

/** Stream-service hook: map a device exception onto its CUresult,
 *  poison @p ctx (sticky error + exception record) and flush the
 *  observability artifacts.  Called with no locks held. */
CUresult noteLaunchFault(CUctx_st *ctx, CUfunc_st *fn,
                         const sim::DeviceException &e);

/**
 * Driver-level accounting rewound by a checkpoint restore: the
 * context's tenant counters plus the device-wide last-launch/totals
 * aggregates.  Captured and written back under the driver state mutex
 * (driver/checkpoint.hpp).  Per-module aggregates and metrics-registry
 * counters are monotonic observability and are deliberately not
 * rewound.
 */
struct DriverAccounting {
    sim::LaunchStats ctx_totals;
    uint64_t ctx_launches = 0;
    uint64_t ctx_faults = 0;
    sim::LaunchStats last_launch;
    sim::LaunchStats device_totals;
};

DriverAccounting captureAccounting(CUctx_st *ctx);
void restoreAccounting(CUctx_st *ctx, const DriverAccounting &acc);

} // namespace detail

} // namespace nvbit::cudrv

#endif // NVBIT_DRIVER_INTERNAL_HPP
