/**
 * @file
 * The simulated GPU device: memory, caches, predecode cache, and the
 * launch orchestrator.
 *
 * The simulator executes binary machine code resident in simulated
 * device memory.  This property is essential for NVBit: the framework
 * patches code bytes (jump-to-trampoline rewrites, code swapping) and
 * the simulator, like real hardware, simply fetches whatever bytes are
 * at the PC.  Since the predecode cache (sim/predecode.hpp) memoises
 * decoded instructions, host-side code writes invalidate the affected
 * pages through DeviceMemory's write observer plus explicit calls on
 * the NVBit patching paths — the same protocol the paper describes for
 * instrumented-function caches.
 *
 * Execution is layered: GpuDevice assigns thread blocks to SMs
 * (round-robin by flat grid index) and runs the per-SM executors
 * (sim/sm.hpp) either serially or on a thread pool; each SM drives a
 * warp scheduler (min-PC reconvergence, sim/warp_scheduler.hpp) and an
 * interpreter (sim/interpreter.hpp).  Both modes produce bit-identical
 * memory contents and statistics; see docs/execution_pipeline.md.
 *
 * Timing model: each SM issues one warp-instruction per cycle;
 * global-memory instructions add per-unique-line penalties depending on
 * which cache level serves them.  Thread blocks are distributed
 * round-robin over SMs and each SM runs its blocks back-to-back; the
 * reported launch time is the maximum per-SM cycle count.  Absolute
 * numbers are therefore not those of any real GPU, but ratios between
 * two runs of the same workload (e.g. instrumented vs native) are
 * meaningful, which is all the paper's Figures 5/8/9 require.
 */
#ifndef NVBIT_SIM_GPU_HPP
#define NVBIT_SIM_GPU_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "isa/arch.hpp"
#include "mem/device_memory.hpp"
#include "mem/shadow_memory.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/launch.hpp"
#include "sim/predecode.hpp"
#include "sim/stats.hpp"

namespace nvbit::sim {

struct CtaWork;
class SmExecutor;
struct GpuState;

/**
 * Execution fidelity of a launch (SimPoint targeted sampling).
 *
 * Full is the normal mode.  Functional fast-forwards skipped
 * intervals: memory contents, instruction counts and the in-execution
 * (%clock-visible) cycle stream are bit-identical to Full (the
 * passivity contract guarantees the skipped work never feeds back into
 * execution), but hardware-event counting, cache modelling, PC
 * sampling and metrics publishing are off, so the launch costs a
 * fraction of the simulation work.  Because the post-join L2 replay is
 * also skipped, the *reported* LaunchStats::cycles total excludes the
 * L1/L2 miss replay penalties and is therefore a lower bound on the
 * Full-mode total, not equal to it.
 */
enum class Fidelity : uint8_t { Full, Functional };

/**
 * The simulated GPU device: memory, caches, and the execution engine.
 */
class GpuDevice
{
  public:
    explicit GpuDevice(const GpuConfig &cfg = GpuConfig{});
    ~GpuDevice();

    const GpuConfig &config() const { return cfg_; }
    isa::ArchFamily family() const { return cfg_.family; }

    mem::DeviceMemory &memory() { return *memory_; }
    const mem::DeviceMemory &memory() const { return *memory_; }

    /**
     * Execute a kernel grid to completion.
     * @throws DeviceException on execution faults, annotated with the
     * trap code, faulting pc/address and CTA/warp/SM context; the
     * earliest trapping CTA in grid order wins in both exec modes.
     */
    LaunchStats launch(const LaunchParams &lp);

    /** Maximum resident warps per SM for the given requirements. */
    unsigned occupancyWarps(uint32_t num_regs, uint32_t shared_bytes) const;

    /** Running total of all launches since construction. */
    const LaunchStats &totals() const { return totals_; }

    /** Flush the data caches AND the code cache. */
    void invalidateCaches();

    /**
     * Retire code pages (decoded entries and traces) overlapping
     * [addr, addr+bytes).  Host writes through DeviceMemory fire this
     * automatically; NVBit's patching paths also call it explicitly
     * (cache-invalidation protocol).
     */
    void invalidateCodeRange(mem::DevPtr addr, size_t bytes);

    /** Eagerly predecode [addr, addr+bytes) (e.g. at module load). */
    void predecodeRange(mem::DevPtr addr, size_t bytes);

    /** The shared code cache: decoded pages and their traces
     *  (stats/inspection).  Always present — probes can be registered
     *  before the trace engine is switched on. */
    const CodeCache &codeCache() const { return *code_cache_; }

    /**
     * Register an inlinable instrumentation callsite (called by the
     * NVBit core after patching the jump-to-trampoline).  The trace
     * engine executes the probe's ballot/popc/atomic-add semantics
     * directly instead of interpreting the trampoline.
     */
    void registerInlineProbe(const InlineProbe &p);

    /** Drop inline probes registered in [addr, addr+bytes) — called on
     *  re-instrumentation, reset and module unload. */
    void clearInlineProbes(mem::DevPtr addr, size_t bytes);

    // --- Checkpoint/restore + fidelity (SimPoint sampling) ------------

    /** Fidelity of subsequent launches (see Fidelity). */
    void setFidelity(Fidelity f) { fidelity_ = f; }
    Fidelity fidelity() const { return fidelity_; }

    /** Capture device state at a launch boundary (sim/checkpoint.hpp). */
    GpuState snapshot() const;

    /**
     * Restore a previously captured state.  Data caches get the
     * captured tag state; derived caches (predecode, traces) are
     * invalidated and rebuild on demand, changing only the Volatile
     * decode-cache counters.
     */
    void restore(const GpuState &st);

    /**
     * Arm a one-shot mid-launch capture: the next launch() stores the
     * complete device state into @p out at the top of scheduling round
     * @p round of CTA @p cta_index (or at that CTA's completion
     * boundary if it finishes earlier).  The armed launch is forced
     * serial — bit-identical by the engine-equivalence contract — and
     * runs to completion unperturbed; @p out must outlive it.
     */
    void armCheckpoint(uint64_t cta_index, uint64_t round, GpuState *out);

    bool checkpointArmed() const { return arm_out_ != nullptr; }

    /**
     * Finish the launch a mid-launch capsule interrupted: restores the
     * device, rebuilds the executors (committed shards, in-flight
     * block) and completes the grid.  Stats and memory match the
     * uninterrupted launch except the Volatile decode-cache counters.
     */
    LaunchStats resumeLaunch(const GpuState &st);

  private:
    std::vector<std::unique_ptr<SmExecutor>> makeExecutors();

    /** Shared launch tail: L2 replay, shard aggregation, totals merge
     *  and metrics publishing (skipping observability in Functional). */
    LaunchStats finishLaunch(
        const LaunchParams &lp, const std::vector<CtaWork> &all,
        std::vector<std::unique_ptr<SmExecutor>> &execs,
        const std::vector<std::vector<CtaWork>> &per_sm);

    /** Fill the launch-independent capsule fields (memory/caches/totals). */
    void captureDevice(GpuState &out) const;

    /** Publish the launch's merged stats + per-SM shards to the
     *  obs::MetricsRegistry (one LaunchRecord per successful launch). */
    void publishLaunch(
        const LaunchParams &lp, const LaunchStats &stats,
        const std::vector<std::unique_ptr<SmExecutor>> &execs,
        const std::vector<std::vector<CtaWork>> &per_sm);

    GpuConfig cfg_;
    std::unique_ptr<mem::DeviceMemory> memory_;
    /** Sanitizer shadow state; non-null iff cfg_.sancheck_mask != 0
     *  (attached to memory_ for allocator/store upkeep). */
    std::unique_ptr<mem::ShadowMemory> shadow_;
    CacheHierarchy caches_;
    std::unique_ptr<CodeCache> code_cache_;
    std::unique_ptr<ThreadPool> pool_;
    LaunchStats totals_;
    Fidelity fidelity_ = Fidelity::Full;

    /** One-shot mid-launch capture request (see armCheckpoint). */
    uint64_t arm_cta_ = 0;
    uint64_t arm_round_ = 0;
    GpuState *arm_out_ = nullptr;
    bool arm_captured_ = false;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_GPU_HPP
