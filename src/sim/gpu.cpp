#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sanitizer.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sm.hpp"

namespace nvbit::sim {

namespace {

/** Apply NVBIT_SIM_EXEC / NVBIT_SIM_PREDECODE overrides when present. */
void
applyEnvOverrides(GpuConfig &cfg)
{
    if (const char *e = std::getenv("NVBIT_SIM_EXEC")) {
        if (std::strcmp(e, "serial") == 0)
            cfg.exec_mode = ExecMode::Serial;
        else if (std::strcmp(e, "parallel") == 0)
            cfg.exec_mode = ExecMode::Parallel;
        else
            warn("ignoring NVBIT_SIM_EXEC=%s (want serial|parallel)", e);
    }
    if (const char *p = std::getenv("NVBIT_SIM_PREDECODE"))
        cfg.use_predecode = std::strcmp(p, "0") != 0;
    if (const char *t = std::getenv("NVBIT_SIM_TRACES"))
        cfg.use_traces = std::strcmp(t, "0") != 0;
    if (const char *c = std::getenv("NVBIT_SIM_COLD_LAUNCH"))
        cfg.cold_launch = std::strcmp(c, "0") != 0;
    if (const char *w = std::getenv("NVBIT_SIM_WATCHDOG_CYCLES")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(w, &end, 0);
        if (end && *end == '\0' && v > 0)
            cfg.watchdog_cycles = v;
        else
            warn("ignoring NVBIT_SIM_WATCHDOG_CYCLES=%s (want a "
                 "positive cycle count)", w);
    }
    if (const char *s = std::getenv("NVBIT_SIM_SANCHECK")) {
        bool ok = false;
        uint32_t mask = obs::parseSancheckList(s, &ok);
        if (ok)
            cfg.sancheck_mask = mask; // "off" is a valid explicit 0
        else
            warn("ignoring NVBIT_SIM_SANCHECK=%s (want a comma-"
                 "separated list of memcheck,racecheck,synccheck,"
                 "initcheck, or all|off)", s);
    }
    if (const char *s = std::getenv("NVBIT_SIM_PC_SAMPLING")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(s, &end, 0);
        if (end && *end == '\0')
            cfg.pc_sample_period = v; // 0 is a valid explicit "off"
        else
            warn("ignoring NVBIT_SIM_PC_SAMPLING=%s (want a cycle "
                 "period, 0 = off)", s);
    }
}

/** A launch grid in flat order (x fastest), and the same CTAs split
 *  round-robin over the SMs: CTA i runs on SM i % nsm. */
struct GridPlan {
    std::vector<CtaWork> all;
    std::vector<std::vector<CtaWork>> per_sm;
};

GridPlan
planGrid(const LaunchParams &lp, unsigned nsm)
{
    GridPlan g;
    g.all.reserve(static_cast<size_t>(lp.grid[0]) * lp.grid[1] *
                  lp.grid[2]);
    uint64_t cta_index = 0;
    for (uint32_t z = 0; z < lp.grid[2]; ++z)
        for (uint32_t y = 0; y < lp.grid[1]; ++y)
            for (uint32_t x = 0; x < lp.grid[0]; ++x, ++cta_index)
                g.all.push_back(CtaWork{cta_index, {x, y, z}});
    g.per_sm.resize(nsm);
    for (const CtaWork &w : g.all)
        g.per_sm[w.cta_index % nsm].push_back(w);
    return g;
}

} // namespace

GpuDevice::GpuDevice(const GpuConfig &cfg)
    : cfg_(cfg),
      memory_(std::make_unique<mem::DeviceMemory>(cfg.mem_bytes)),
      caches_(cfg)
{
    applyEnvOverrides(cfg_);
    // A tool may have requested sampling via the Profiler before the
    // device existed (nvbit_at_init precedes cuInit).  An explicit
    // config period or the env var (including an explicit 0) wins.
    if (cfg_.pc_sample_period == 0 &&
        std::getenv("NVBIT_SIM_PC_SAMPLING") == nullptr)
        cfg_.pc_sample_period = obs::Profiler::instance().requestedPeriod();
    // Same request protocol for the sanitizer: a tool may have asked
    // for checks at nvbit_at_init; an explicit config mask or the env
    // var (including an explicit "off") wins.
    if (cfg_.sancheck_mask == 0 &&
        std::getenv("NVBIT_SIM_SANCHECK") == nullptr)
        cfg_.sancheck_mask = obs::Sanitizer::instance().requestedChecks();
    if (cfg_.sancheck_mask != 0) {
        shadow_ = std::make_unique<mem::ShadowMemory>(memory_->size());
        memory_->attachShadow(shadow_.get());
    }
    code_cache_ = std::make_unique<CodeCache>(*memory_, cfg_.family);
    trace_cache_ = std::make_unique<TraceCache>(*memory_, cfg_.family);
    pool_ = std::make_unique<ThreadPool>();
    // Host-side writes (module loads, trampoline patches, cuMemcpy)
    // invalidate any stale predecoded pages and traces they overlap.
    memory_->setWriteObserver([this](mem::DevPtr addr, size_t bytes) {
        code_cache_->invalidateRange(addr, bytes);
        trace_cache_->invalidateRange(addr, bytes);
    });
}

GpuDevice::~GpuDevice()
{
    memory_->setWriteObserver(nullptr);
    memory_->attachShadow(nullptr);
}

void
GpuDevice::invalidateCaches()
{
    caches_.invalidateAll();
    code_cache_->invalidateAll();
    trace_cache_->invalidateAll();
}

void
GpuDevice::invalidateCodeRange(mem::DevPtr addr, size_t bytes)
{
    code_cache_->invalidateRange(addr, bytes);
    trace_cache_->invalidateRange(addr, bytes);
}

void
GpuDevice::registerInlineProbe(const InlineProbe &p)
{
    trace_cache_->registerProbe(p);
}

void
GpuDevice::clearInlineProbes(mem::DevPtr addr, size_t bytes)
{
    trace_cache_->clearProbesInRange(addr, bytes);
}

void
GpuDevice::predecodeRange(mem::DevPtr addr, size_t bytes)
{
    if (cfg_.use_predecode)
        code_cache_->prewarm(addr, bytes);
}

unsigned
GpuDevice::occupancyWarps(uint32_t num_regs, uint32_t shared_bytes) const
{
    unsigned by_regs = cfg_.regfile_per_sm /
                       std::max(1u, num_regs * kWarpSize);
    unsigned by_smem =
        shared_bytes == 0
            ? cfg_.max_warps_per_sm
            : static_cast<unsigned>(cfg_.smem_per_sm / shared_bytes) * 32;
    return std::min({by_regs, by_smem, cfg_.max_warps_per_sm});
}

LaunchStats
GpuDevice::launch(const LaunchParams &lp)
{
    NVBIT_ASSERT(lp.entry_pc != 0, "launch with null entry PC");

    // No execution threads exist between launches: safe to reclaim
    // pages invalidated since the previous launch.
    code_cache_->collectRetired();
    trace_cache_->collectRetired();

    // Cold-launch mode: start from flushed data caches so this
    // launch's cache stream does not depend on prior launches (the
    // multi-tenant determinism contract; see GpuConfig::cold_launch).
    if (cfg_.cold_launch)
        caches_.invalidateAll();

    const unsigned nsm = cfg_.num_sms;
    const GridPlan grid = planGrid(lp, nsm);
    const std::vector<CtaWork> &all = grid.all;
    const std::vector<std::vector<CtaWork>> &per_sm = grid.per_sm;
    std::vector<std::unique_ptr<SmExecutor>> execs = makeExecutors();

    if (obs::Tracer::instance().enabled())
        for (unsigned sm = 0; sm < nsm; ++sm)
            if (!per_sm[sm].empty())
                obs::Tracer::instance().nameThread(
                    obs::kDevicePid, static_cast<int>(sm),
                    strfmt("sm %u", sm));

    AtomicGate gate(all.size());
    // An armed checkpoint forces serial orchestration so the capture
    // point is deterministic; the engine-equivalence contract makes
    // the launch result identical either way.
    if (cfg_.exec_mode == ExecMode::Serial || arm_out_ != nullptr) {
        // Same executors, same per-SM streams — just one host thread
        // walking the grid in flat order.
        GpuState *arm = arm_out_;
        for (const CtaWork &w : all) {
            SmExecutor &ex = *execs[w.cta_index % nsm];
            if (arm != nullptr && w.cta_index == arm_cta_) {
                ex.setCheckpointHook(
                    arm_round_,
                    [&](const WarpScheduler &sched, uint64_t round) {
                        captureDevice(*arm);
                        arm->mid_launch = true;
                        arm->lp = lp;
                        arm->next_cta = w.cta_index;
                        arm->sms.clear();
                        for (const auto &e : execs)
                            arm->sms.push_back(e->snapshotCommitted());
                        arm->mid_cta = ex.snapshotMidCta(sched, round);
                        arm_captured_ = true;
                    });
            }
            ex.runCta(lp, w, gate);
            gate.markDone(w.cta_index);
            if (arm != nullptr && !arm_captured_ &&
                w.cta_index >= arm_cta_) {
                // The armed CTA finished before the requested round:
                // fall back to a boundary capture before the next CTA.
                ex.setCheckpointHook(0, nullptr);
                captureDevice(*arm);
                arm->mid_launch = true;
                arm->lp = lp;
                arm->next_cta = w.cta_index + 1;
                arm->sms.clear();
                for (const auto &e : execs)
                    arm->sms.push_back(e->snapshotCommitted());
                arm->mid_cta.reset();
                arm_captured_ = true;
            }
        }
        arm_out_ = nullptr;
    } else {
        // Min grid index of any trapped CTA: blocks before it still
        // run so the earliest trap in grid order is always reached.
        std::atomic<uint64_t> abort_before{
            std::numeric_limits<uint64_t>::max()};
        std::vector<std::function<void()>> tasks(nsm);
        for (unsigned sm = 0; sm < nsm; ++sm) {
            if (per_sm[sm].empty())
                continue;
            tasks[sm] = [&, sm] {
                execs[sm]->runAssigned(lp, per_sm[sm], gate,
                                       abort_before);
            };
        }
        pool_->runAll(std::move(tasks));

        // Surface the fault of the earliest CTA in grid order, which
        // is the one the serial path would have hit first.
        const SmExecutor::CapturedTrap *first = nullptr;
        for (const auto &ex : execs) {
            const auto &t = ex->trap();
            if (t && (!first || t->cta_index < first->cta_index))
                first = &*t;
        }
        if (first) {
            if (first->other)
                std::rethrow_exception(first->other);
            throw first->trap;
        }
    }

    return finishLaunch(lp, all, execs, per_sm);
}

LaunchStats
GpuDevice::finishLaunch(const LaunchParams &lp,
                        const std::vector<CtaWork> &all,
                        std::vector<std::unique_ptr<SmExecutor>> &execs,
                        const std::vector<std::vector<CtaWork>> &per_sm)
{
    const unsigned nsm = cfg_.num_sms;
    if (fidelity_ == Fidelity::Full) {
        // Replay the deferred L2 stream in grid order.  Each SM's log
        // entries appear in its own execution order, which is
        // increasing grid order, so one cursor per SM suffices.
        std::vector<size_t> cursor(nsm, 0);
        for (const CtaWork &w : all) {
            unsigned sm = static_cast<unsigned>(w.cta_index % nsm);
            SmExecutor &ex = *execs[sm];
            const auto &logs = ex.l2Logs();
            NVBIT_ASSERT(cursor[sm] < logs.size() &&
                             logs[cursor[sm]].first == w.cta_index,
                         "L2 replay log out of order for CTA %llu",
                         static_cast<unsigned long long>(w.cta_index));
            for (const L2LogLine &ll : logs[cursor[sm]].second) {
                obs::EventSet &ev = ex.shard().events;
                if (caches_.accessL2(ll.line)) {
                    ++ex.shard().l2_hits;
                    ev.add(ll.is_write ? obs::HwEvent::L2SectorWriteHits
                                       : obs::HwEvent::L2SectorReadHits,
                           ll.sectors);
                    ex.addReplayCycles(cfg_.l1_miss_penalty, ll.pc,
                                       ll.warp, w.cta_index);
                } else {
                    ++ex.shard().l2_misses;
                    ev.add(ll.is_write
                               ? obs::HwEvent::L2SectorWriteMisses
                               : obs::HwEvent::L2SectorReadMisses,
                           ll.sectors);
                    ex.addReplayCycles(cfg_.l1_miss_penalty +
                                           cfg_.l2_miss_penalty,
                                       ll.pc, ll.warp, w.cta_index);
                }
            }
            ++cursor[sm];
        }

        // Close out each SM's activity event: the full per-SM cycle
        // total (execution + replay penalties), charged once so the
        // launch sum is the aggregate busy time of the active SMs.
        for (const auto &ex : execs)
            ex->shard().events.add(obs::HwEvent::SmActiveCycles,
                                   ex->cycleTotal());
    }
    // Functional launches log no L1 misses, so there is no L2 stream
    // to replay and no events to close out.

    // Aggregate the per-SM shards; launch time is the slowest SM,
    // whose per-reason breakdown therefore *is* the launch breakdown
    // (so it sums exactly to the cycles scalar).  Ties pick the
    // lowest SM id, deterministically.
    LaunchStats stats;
    uint64_t max_cycles = 0;
    const SmExecutor *critical = nullptr;
    for (const auto &ex : execs) {
        stats.merge(ex->shard());
        if (ex->cycleTotal() > max_cycles || critical == nullptr) {
            max_cycles = ex->cycleTotal();
            critical = ex.get();
        }
    }
    stats.cycles = max_cycles;
    stats.cycles_by_reason =
        critical ? critical->cyclesByReason()
                 : std::array<uint64_t, obs::kNumStallReasons>{};

    totals_.merge(stats);
    publishLaunch(lp, stats, execs, per_sm);
    return stats;
}

std::vector<std::unique_ptr<SmExecutor>>
GpuDevice::makeExecutors()
{
    const unsigned nsm = cfg_.num_sms;
    CodeCache *cc = cfg_.use_predecode ? code_cache_.get() : nullptr;
    TraceCache *tc = cfg_.use_traces ? trace_cache_.get() : nullptr;
    const bool functional = fidelity_ == Fidelity::Functional;
    std::vector<std::unique_ptr<SmExecutor>> execs;
    execs.reserve(nsm);
    for (unsigned sm = 0; sm < nsm; ++sm)
        execs.push_back(std::make_unique<SmExecutor>(
            sm, cfg_, *memory_, caches_, cc, tc, functional));
    return execs;
}

void
GpuDevice::captureDevice(GpuState &out) const
{
    out.memory = memory_->snapshot();
    out.caches = caches_.snapshot();
    out.totals = totals_;
}

GpuState
GpuDevice::snapshot() const
{
    GpuState st;
    captureDevice(st);
    return st;
}

void
GpuDevice::restore(const GpuState &st)
{
    memory_->restore(st.memory);
    caches_.restore(st.caches);
    totals_ = st.totals;
    // Derived state rebuilds on demand; only the Volatile decode-cache
    // counters observe the difference.
    code_cache_->invalidateAll();
    trace_cache_->invalidateAll();
}

void
GpuDevice::armCheckpoint(uint64_t cta_index, uint64_t round,
                         GpuState *out)
{
    NVBIT_ASSERT(out != nullptr, "armCheckpoint needs an output capsule");
    arm_cta_ = cta_index;
    arm_round_ = round;
    arm_out_ = out;
    arm_captured_ = false;
}

LaunchStats
GpuDevice::resumeLaunch(const GpuState &st)
{
    NVBIT_ASSERT(st.mid_launch,
                 "resumeLaunch needs a mid-launch capsule");
    NVBIT_ASSERT(st.lp.entry_pc != 0, "capsule has a null entry PC");
    restore(st);
    // No execution threads are live: reclaim what restore() retired.
    code_cache_->collectRetired();
    trace_cache_->collectRetired();

    const LaunchParams &lp = st.lp;
    // NOTE: no cold-launch flush here — the cache state at the capture
    // point (which already saw this launch's flush) is the capsule's.
    const unsigned nsm = cfg_.num_sms;
    const GridPlan grid = planGrid(lp, nsm);
    const std::vector<CtaWork> &all = grid.all;
    std::vector<std::unique_ptr<SmExecutor>> execs = makeExecutors();
    NVBIT_ASSERT(st.sms.size() == execs.size(),
                 "capsule SM count %zu != device SM count %zu",
                 st.sms.size(), execs.size());
    for (size_t sm = 0; sm < execs.size(); ++sm)
        execs[sm]->restoreCommitted(st.sms[sm]);

    AtomicGate gate(all.size());
    for (uint64_t i = 0; i < st.next_cta && i < all.size(); ++i)
        gate.markDone(i);

    // Completion runs serially: bit-identical to any engine config by
    // the serial/parallel equivalence contract.
    for (const CtaWork &w : all) {
        if (w.cta_index < st.next_cta)
            continue;
        SmExecutor &ex = *execs[w.cta_index % nsm];
        if (w.cta_index == st.next_cta && st.mid_cta.has_value())
            ex.resumeCta(lp, w, gate, *st.mid_cta);
        else
            ex.runCta(lp, w, gate);
        gate.markDone(w.cta_index);
    }

    return finishLaunch(lp, all, execs, grid.per_sm);
}

void
GpuDevice::publishLaunch(
    const LaunchParams &lp, const LaunchStats &stats,
    const std::vector<std::unique_ptr<SmExecutor>> &execs,
    const std::vector<std::vector<CtaWork>> &per_sm)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    if (fidelity_ == Fidelity::Functional) {
        // Fast-forwarded launches publish no records, counters or
        // samples — only a count of how many were skipped over.
        mr.add("sim.functional_launches", 1);
        return;
    }
    obs::LaunchRecord rec;
    rec.kernel = lp.label;
    rec.thread_instrs = stats.thread_instrs;
    rec.warp_instrs = stats.warp_instrs;
    rec.ctas = stats.ctas;
    rec.cycles = stats.cycles;
    rec.global_mem_warp_instrs = stats.global_mem_warp_instrs;
    rec.unique_lines_sum = stats.unique_lines_sum;
    rec.unique_sectors_sum = stats.unique_sectors_sum;
    rec.l1_hits = stats.l1_hits;
    rec.l1_misses = stats.l1_misses;
    rec.l2_hits = stats.l2_hits;
    rec.l2_misses = stats.l2_misses;
    rec.events = stats.events;
    rec.max_warps_per_sm = cfg_.max_warps_per_sm;
    rec.cycles_by_reason = stats.cycles_by_reason;
    for (unsigned sm = 0; sm < execs.size(); ++sm) {
        if (per_sm[sm].empty())
            continue;
        const LaunchStats &sh = execs[sm]->shard();
        obs::SmShard shard;
        shard.sm = sm;
        shard.thread_instrs = sh.thread_instrs;
        shard.warp_instrs = sh.warp_instrs;
        shard.ctas = sh.ctas;
        shard.cycles = execs[sm]->cycleTotal();
        shard.decode_cache_hits = sh.decode_cache_hits;
        shard.decode_cache_misses = sh.decode_cache_misses;
        shard.l1_hits = sh.l1_hits;
        shard.l1_misses = sh.l1_misses;
        shard.l2_hits = sh.l2_hits;
        shard.l2_misses = sh.l2_misses;
        shard.events = sh.events;
        shard.cycles_by_reason = execs[sm]->cyclesByReason();
        // Idle padding: the gap between this SM and the critical one,
        // so every shard's breakdown sums to the launch cycle scalar.
        shard.cycles_by_reason[static_cast<size_t>(
            obs::StallReason::Idle)] += stats.cycles - shard.cycles;
        rec.sms.push_back(std::move(shard));
    }
    {
        // One Txn: the launch record and every sim.* counter it feeds
        // land in the same snapshot — a mid-run scrape never sees the
        // record without its counters (or vice versa).
        obs::MetricsRegistry::Txn txn(mr);
        txn.recordLaunch(std::move(rec));
        txn.add("sim.launches", 1);
        txn.add("sim.thread_instrs", stats.thread_instrs);
        txn.add("sim.warp_instrs", stats.warp_instrs);
        txn.add("sim.ctas", stats.ctas);
        txn.add("sim.global_mem_warp_instrs",
                stats.global_mem_warp_instrs);
        txn.add("sim.l1_misses", stats.l1_misses);
        txn.add("sim.l2_misses", stats.l2_misses);
        // Engine-dependent (predecode on/off changes them), Volatile.
        txn.add("sim.decode_cache_hits", stats.decode_cache_hits,
                obs::Stability::Volatile);
        txn.add("sim.decode_cache_misses", stats.decode_cache_misses,
                obs::Stability::Volatile);

        // Fixed bounds keep the bucket layout engine-invariant.
        txn.defineHistogram("sim.launch_cycles",
                            {1000, 10000, 100000, 1000000, 10000000,
                             100000000});
        txn.observe("sim.launch_cycles", stats.cycles);
    }

    if (cfg_.pc_sample_period != 0) {
        // Concatenate the per-SM sample streams in ascending SM id —
        // each stream is deterministic, so the whole launch stream is.
        std::vector<obs::PcSample> samples;
        for (const auto &ex : execs) {
            const auto &s = ex->samples();
            samples.insert(samples.end(), s.begin(), s.end());
        }
        mr.add("sim.pc_samples", samples.size());
        mr.defineHistogram("profile.samples_per_launch",
                           {10, 100, 1000, 10000, 100000});
        mr.observe("profile.samples_per_launch", samples.size());
        obs::Profiler::instance().addLaunchSamples(samples);
    }
}

} // namespace nvbit::sim
