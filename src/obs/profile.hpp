/**
 * @file
 * PC-sampling stall-attribution profiler (CUPTI-style).
 *
 * The simulator's SM layer classifies every cycle it charges into a
 * `StallReason` and, when `GpuConfig.pc_sample_period` is non-zero,
 * emits one `PcSample` record per period crossing of the per-SM cycle
 * counter.  Because the counter basis is the deterministic per-SM
 * cycle stream (identical across {serial,parallel} x
 * {byte-decode,predecode}; see docs/execution_pipeline.md), the sample
 * streams are bit-identical across all four engine configurations.
 *
 * The `Profiler` singleton aggregates those records into per-PC /
 * per-function hotspot tables.  Resolution is *eager*: samples are
 * resolved the moment the simulator publishes them (while modules and
 * the NVBit core are alive), through two pluggable resolver slots:
 *
 *  - the *name resolver* (installed by the driver at cuInit) maps a pc
 *    to the enclosing device function, searching application modules
 *    and the NVBit tool module;
 *  - the *origin resolver* (installed by the NVBit core while a tool
 *    is injected) reuses the core's fault-attribution maps to classify
 *    a pc as tool- vs app-origin and to map trampoline pcs back to the
 *    original application instruction.
 *
 * Reports: nvprof-style top-N text (`report`), Brendan-Gregg
 * collapsed-stack flamegraph lines (`collapsedStacks`), and a JSON
 * document (`toJson`, dumped at process exit or on the fault path via
 * `NVBIT_SIM_PROFILE=<path>`).
 */
#ifndef NVBIT_OBS_PROFILE_HPP
#define NVBIT_OBS_PROFILE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nvbit::obs {

/**
 * Why a warp did (or did not) issue on a given cycle.  `None` is the
 * issue bucket itself: per-launch breakdowns include it so that the
 * buckets sum exactly to `LaunchStats.cycles`.
 */
enum class StallReason : uint8_t {
    None = 0,       ///< the warp issued an instruction this cycle
    MemDependency,  ///< memory divergence / L1-miss replay penalty
    BarrierSync,    ///< parked at a CTA barrier
    ExecDependency, ///< RAW dependency on the previous instruction
    BranchResolve,  ///< control-flow resolution bubble
    NotSelected,    ///< ready, but another warp was issued (samples only)
    Idle,           ///< SM had no work (per-SM padding vs launch cycles)
    NumReasons
};

constexpr size_t kNumStallReasons =
    static_cast<size_t>(StallReason::NumReasons);

constexpr const char *
stallReasonName(StallReason r)
{
    switch (r) {
      case StallReason::None: return "issue";
      case StallReason::MemDependency: return "mem_dependency";
      case StallReason::BarrierSync: return "barrier_sync";
      case StallReason::ExecDependency: return "exec_dependency";
      case StallReason::BranchResolve: return "branch_resolve";
      case StallReason::NotSelected: return "not_selected";
      case StallReason::Idle: return "idle";
      case StallReason::NumReasons: break;
    }
    return "unknown";
}

/** One PC sample, emitted by the SM layer at a period crossing. */
struct PcSample {
    /** SM-local cycle count at the crossing (deterministic). */
    uint64_t cycle = 0;
    /** Sampled pc (device byte address). */
    uint64_t pc = 0;
    uint32_t sm = 0;
    /** CTA-local warp id. */
    uint32_t warp = 0;
    /** Flat grid index of the warp's thread block. */
    uint64_t cta_index = 0;
    StallReason reason = StallReason::None;
    /** Return-address stack of the sampled warp's lowest live lane,
     *  innermost last; empty for sibling / replay records. */
    std::vector<uint64_t> ret_stack;

    bool operator==(const PcSample &) const = default;
};

/** Aggregated per-PC hotspot row. */
struct PcHotspot {
    uint64_t pc = 0;
    /** Enclosing function name ("" when unresolved). */
    std::string func;
    uint64_t func_base = 0;
    /** True when the pc lives in injected tool machinery. */
    bool tool_origin = false;
    /** Original application pc (== pc unless inside a trampoline). */
    uint64_t app_pc = 0;
    /** Total samples at this pc. */
    uint64_t total = 0;
    std::array<uint64_t, kNumStallReasons> by_reason{};
};

/**
 * Singleton sample aggregator.  Thread-safe; the simulator publishes
 * once per launch (never per-instruction), so a mutex suffices.
 */
class Profiler
{
  public:
    static Profiler &instance();

    // --- Sampling-period request (tools, before cuInit) ---------------
    /** Ask the next GpuDevice to sample every @p period cycles.  Used
     *  by tools at nvbit_at_init, before the device exists; an explicit
     *  GpuConfig.pc_sample_period or NVBIT_SIM_PC_SAMPLING wins. */
    void requestPeriod(uint64_t period);
    uint64_t requestedPeriod() const;

    // --- Resolver slots ------------------------------------------------
    struct PcInfo {
        std::string func;   ///< enclosing function name ("" unknown)
        uint64_t func_base = 0;
    };
    /** pc -> enclosing function; returns false when unresolved. */
    using NameResolver = std::function<bool(uint64_t pc, PcInfo &out)>;
    struct OriginInfo {
        bool tool = false;
        uint64_t app_pc = 0;
        /** Fallback name for pcs no module covers (trampolines,
         *  builtin save/restore routines); "" when unknown. */
        std::string func;
        uint64_t func_base = 0;
    };
    /** (pc, ret stack) -> tool-vs-app origin + app-level pc. */
    using OriginResolver =
        std::function<void(uint64_t pc,
                           const std::vector<uint64_t> &ret_stack,
                           OriginInfo &out)>;

    /** Install/clear the name resolver (driver: cuInit/resetDriver). */
    void setNameResolver(NameResolver r);
    /** Install/clear the origin resolver (core: inject/uninject). */
    void setOriginResolver(OriginResolver r);

    // --- Ingestion (simulator, once per launch) ------------------------
    /** Aggregate @p samples; resolution happens here, eagerly, while
     *  the modules the pcs point into are still loaded. */
    void addLaunchSamples(const std::vector<PcSample> &samples);

    // --- Queries --------------------------------------------------------
    uint64_t totalSamples() const;

    /** Per-reason totals over every ingested sample. */
    std::array<uint64_t, kNumStallReasons> reasonTotals() const;

    /** Hotspot rows, descending by sample count (all when top_n = 0). */
    std::vector<PcHotspot> hotspots(size_t top_n = 0) const;

    /** nvprof-style top-N text report. */
    std::string report(size_t top_n = 20) const;

    /**
     * Brendan-Gregg collapsed-stack lines: one
     * `frame;frame;leaf;stall_reason count\n` line per distinct stack,
     * frames outermost first, resolved to function names.  Feed to
     * flamegraph.pl / speedscope as-is.
     */
    std::string collapsedStacks() const;

    /** Deterministic JSON document (period, totals, hotspots). */
    std::string toJson() const;

    // --- Test hooks ------------------------------------------------------
    /** Keep raw (unresolved) samples for differential tests. */
    void setRetainRaw(bool v);
    std::vector<PcSample> rawSamples() const;

    /** Drop all samples, aggregates and the requested period; resolver
     *  slots are left installed (owned by driver/core lifecycles). */
    void reset();

  private:
    Profiler();

    struct FoldedKey; // ordering helper for collapsed stacks

    /** Resolve + fold one sample (mu_ held). */
    void ingest(const PcSample &s);

    mutable std::mutex mu_;
    uint64_t requested_period_ = 0;
    uint64_t total_ = 0;
    std::array<uint64_t, kNumStallReasons> reason_totals_{};
    std::map<uint64_t, PcHotspot> by_pc_;
    /** collapsed-stack string -> sample count. */
    std::map<std::string, uint64_t> folded_;
    NameResolver name_resolver_;
    OriginResolver origin_resolver_;
    bool retain_raw_ = false;
    std::vector<PcSample> raw_;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_PROFILE_HPP
