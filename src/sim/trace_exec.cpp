/**
 * @file
 * Trace execution: threaded-code replay of compiled superblocks.
 *
 * The replay contract is bit-identity with the per-instruction engine
 * on uninstrumented code: results, LaunchStats, cycles_by_reason, the
 * PC-sample stream and EventSet counters are all identical, because
 * every issue slot performs the same charges, counter increments and
 * watchdog checks in the same order as SmExecutor::stepWarp.  What the
 * trace engine elides is re-derivation work that has no observable
 * effect: per-instruction fetch (the head is fetched for real, the
 * rest tick the decode counters the way a same-page fetch would),
 * guard evaluation for always-executing instructions, per-slot PC
 * advance (deferred — intermediate advances overwrite the same lanes
 * of a converged warp and nothing reads thread PCs mid-trace), and the
 * interpreter's operand-shape dispatch for strip runs.
 *
 * Inline probes intentionally relax the stats contract: an
 * instrumented callsite costs two issue slots (the patched JMP plus
 * the displaced original) instead of the dozens the save/marshal/call/
 * restore trampoline would execute — that elision is the paper's
 * Figure 5/8 speedup.  Tool-visible counters stay exactly equal to the
 * trampoline path because the probe body reproduces the trampoline's
 * ballot/popc/atomic-add arithmetic, grid-order serialised through the
 * same AtomicGate fence the ATOM instruction uses.
 */
#include "sim/sm.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace nvbit::sim {

namespace {

/**
 * Execute strip ops [o, end) of a run whose constant rows are @p K.
 * All 32 lanes run unconditionally: the trace entry guard makes every
 * non-exited lane active, and exited lanes' registers are dead (never
 * read again), so computing garbage for them is free and keeps the
 * lane loops branchless.
 *
 * Dispatch is computed-goto threaded code where the compiler supports
 * `&&label` (each handler jumps straight to the next op's handler); a
 * switch loop otherwise.
 */
void
execStripOps(const StripOp *o, const StripOp *end, WarpRegFile &rf,
             const uint32_t *K)
{
    if (o == end)
        return;
    auto src = [&](uint16_t r) -> const uint32_t * {
        return r < WarpRegFile::kRows
                   ? rf.regs[r]
                   : K + (r - WarpRegFile::kRows) * kWarpSize;
    };
    uint8_t *P = rf.preds;
    uint32_t *D;
    const uint32_t *A, *B, *C;
    uint8_t aux;
#define NVBIT_STRIP_BIND()                                                 \
    D = rf.regs[o->d];                                                     \
    A = src(o->a);                                                         \
    B = src(o->b);                                                         \
    C = src(o->c);                                                         \
    aux = o->aux;
    NVBIT_STRIP_BIND()

#if defined(__GNUC__) || defined(__clang__)
#define NVBIT_H_ADDR(name, expr) &&h_##name,
    static const void *const kDispatch[] = {NVBIT_ALU_OPS(NVBIT_H_ADDR)};
#undef NVBIT_H_ADDR
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      static_cast<size_t>(AluOp::NumOps),
                  "dispatch table out of sync with AluOp");
    goto *kDispatch[static_cast<size_t>(o->h)];
#define NVBIT_H(name, expr)                                                \
    h_##name:                                                              \
    for (unsigned l = 0; l < kWarpSize; ++l)                               \
        NVBIT_ALU_LANE(expr)                                               \
    if (++o == end)                                                        \
        return;                                                            \
    NVBIT_STRIP_BIND()                                                     \
    goto *kDispatch[static_cast<size_t>(o->h)];
    NVBIT_ALU_OPS(NVBIT_H)
#undef NVBIT_H
#else
    for (;;) {
        switch (o->h) {
#define NVBIT_H(name, expr)                                                \
    case AluOp::name:                                                      \
        for (unsigned l = 0; l < kWarpSize; ++l)                           \
            NVBIT_ALU_LANE(expr)                                           \
        break;
            NVBIT_ALU_OPS(NVBIT_H)
#undef NVBIT_H
          case AluOp::NumOps:
            break;
        }
        if (++o == end)
            return;
        NVBIT_STRIP_BIND()
    }
#endif
#undef NVBIT_STRIP_BIND
}

} // namespace

const Trace *
SmExecutor::lookupTrace(uint64_t pc)
{
    const uint64_t gen = trace_cache_->generation();
    if (gen != trace_gen_) {
        trace_memo_.clear();
        trace_gen_ = gen;
    }
    auto [it, fresh] = trace_memo_.try_emplace(pc, nullptr);
    if (fresh)
        it->second = trace_cache_->acquire(pc);
    return it->second;
}

unsigned
SmExecutor::runTrace(WarpScheduler &sched, Interpreter &interp, unsigned w,
                     const Trace &tr, uint32_t active_mask, unsigned budget)
{
    ThreadCtx *warp = sched.warp(w);
    WarpRegFile &rf = sched.regs(w);
    const unsigned n_active =
        static_cast<unsigned>(std::popcount(active_mask));
    unsigned consumed = 0;
    uint64_t last_pc = tr.entry_pc;
    uint8_t last_dst = sched.lastDst(w);
    bool first_slot = true;
    uint32_t exec_mask = active_mask; // for trap annotation
    using obs::HwEvent;
    obs::EventSet &ev = shard_.events;

    // The trace's first issue slot tests its RAW stall against the
    // live lastDst; later slots use the compiler's precomputed flags.
    auto takeRaw = [&](bool precomputed) {
        if (!first_slot)
            return precomputed;
        first_slot = false;
        return last_dst != isa::kRegZ && tr.first_in.readsGpr(last_dst);
    };

    // Per-issue-slot bookkeeping, charge-for-charge identical to
    // stepWarp (same order, same messages, same attribution pcs).
    auto issueSlot = [&](isa::Opcode op, uint64_t pc, uint32_t exec,
                         bool raw) {
        if (raw)
            chargeCycles(1, obs::StallReason::ExecDependency, pc, w);
        ++shard_.warp_instrs;
        chargeCycles(1, obs::StallReason::None, pc, w);
        shard_.thread_instrs += std::popcount(exec);
        if (!functional_) {
            shard_.warp_instrs_by_op[static_cast<size_t>(op)] += 1;
            shard_.thread_instrs_by_op[static_cast<size_t>(op)] +=
                std::popcount(exec);
            ev.add(HwEvent::InstExecuted, 1);
            ev.add(HwEvent::ThreadInstExecuted, n_active);
            ev.add(HwEvent::ThreadInstNotPredicatedOff,
                   std::popcount(exec));
            ev.add(HwEvent::EligibleWarpsSum, eligible_warps_);
        }
        if (shard_.warp_instrs > cfg_.max_warp_instrs_per_launch) {
            throw DeviceException(
                TrapCode::WatchdogTimeout,
                "launch exceeded the warp-instruction watchdog", pc);
        }
        if (cycle_total_ + cta_cycles_ > cfg_.watchdog_cycles) {
            throw DeviceException(
                TrapCode::WatchdogTimeout,
                strfmt("launch exceeded the cycle watchdog (%llu cycles)",
                       static_cast<unsigned long long>(
                           cfg_.watchdog_cycles)),
                pc);
        }
        ++consumed;
    };

    auto guardMask = [&](const isa::Instruction &in) -> uint32_t {
        if (in.alwaysExecutes())
            return active_mask;
        uint32_t m = 0;
        for (unsigned l = 0; l < kWarpSize; ++l) {
            if (((active_mask >> l) & 1) &&
                readPred(rf, l, in.pred, in.pred_neg))
                m |= 1u << l;
        }
        return m;
    };

    // Budget or trace-end exit between straight-line entries: flush
    // the deferred PC advance so every lane resumes after the last
    // issued instruction (the per-instruction path or a fresh trace
    // entry picks up there).
    auto exitHere = [&]() {
        sched.advance(w, active_mask, last_pc + ib_);
        sched.setLastDst(w, last_dst);
        return consumed;
    };

    try {
        // Head fetch through the regular path: decode-counter and
        // cached-page behaviour identical to the baseline's first
        // fetch of the superblock.
        isa::Instruction scratch;
        (void)fetch(tr.entry_pc, scratch);
        bool head = true;
        // Later slots fetch from the same (page-bounded) trace: a hit
        // per slot in predecode mode, a byte-decode miss otherwise.
        auto fetchTick = [&]() {
            if (head) {
                head = false;
                return;
            }
            if (code_cache_)
                ++shard_.decode_cache_hits;
            else
                ++shard_.decode_cache_misses;
        };

        for (const TraceEntry &e : tr.entries) {
            switch (e.kind) {
              case TraceEntryKind::Op:
              case TraceEntryKind::OpTerminal: {
                if (consumed >= budget)
                    return exitHere();
                const bool terminal =
                    e.kind == TraceEntryKind::OpTerminal;
                const uint32_t exec = guardMask(e.in);
                exec_mask = exec;
                const uint64_t next_pc = e.pc + ib_;
                if (terminal)
                    sched.advance(w, active_mask, next_pc);
                fetchTick();
                issueSlot(e.in.op, e.pc, exec, takeRaw(e.raw_stall));
                cur_pc_ = e.pc;
                cur_warp_ = w;
                interp.execute(e.in, warp, rf, active_mask, exec, e.pc,
                               next_pc);
                if (e.is_cf)
                    chargeCycles(1, obs::StallReason::BranchResolve,
                                 e.pc, w);
                last_dst = e.in.writesGpr() ? e.in.rd : isa::kRegZ;
                last_pc = e.pc;
                if (terminal) {
                    sched.setLastDst(w, last_dst);
                    return consumed;
                }
                break;
              }

              case TraceEntryKind::Strip: {
                const StripRun &run = tr.strips[e.idx];
                if (consumed >= budget)
                    return exitHere();
                const size_t nops =
                    std::min<size_t>(run.ops.size(), budget - consumed);
                // Accounting pass first, in program order (charges,
                // samples and watchdog checks interleave exactly as
                // per-instruction execution would).  Register effects
                // of ops "before" a watchdog throw are unobservable —
                // the CTA is abandoned and strip ops touch no memory —
                // so the lane work runs afterwards in one threaded
                // dispatch pass.
                exec_mask = active_mask;
                cur_warp_ = w;
                for (size_t i = 0; i < nops; ++i) {
                    const StripOp &op = run.ops[i];
                    fetchTick();
                    cur_pc_ = op.pc;
                    issueSlot(op.op, op.pc, active_mask,
                              takeRaw(op.raw_stall));
                    last_dst = op.arch_dst;
                    last_pc = op.pc;
                }
                execStripOps(run.ops.data(), run.ops.data() + nops, rf,
                             run.const_rows.data());
                if (nops < run.ops.size())
                    return exitHere(); // budget ended mid-run
                break;
              }

              case TraceEntryKind::Probe:
              case TraceEntryKind::ProbeTerminal: {
                if (budget - consumed < 2)
                    return exitHere();
                const InlineProbe &pr = tr.probes[e.idx];
                const bool terminal =
                    e.kind == TraceEntryKind::ProbeTerminal;

                // 1) The patched JMP's issue slot (always-executing).
                fetchTick();
                exec_mask = active_mask;
                cur_pc_ = e.pc;
                cur_warp_ = w;
                issueSlot(isa::Opcode::JMP, e.pc, active_mask,
                          takeRaw(e.raw_stall));
                chargeCycles(1, obs::StallReason::BranchResolve, e.pc,
                             w);

                // 2) Inlined tool body: ballot/popc/atomic-add, the
                // exact arithmetic of the trampoline's tool function.
                uint32_t pm = active_mask;
                if (pr.ballot_guard) {
                    pm = 0;
                    for (unsigned l = 0; l < kWarpSize; ++l) {
                        if (((active_mask >> l) & 1) &&
                            readPred(rf, l, pr.orig.pred,
                                     pr.orig.pred_neg))
                            pm |= 1u << l;
                    }
                }
                const uint64_t P =
                    static_cast<uint64_t>(std::popcount(pm));
                // Tool counters are global atomics: commit in grid
                // order through the same gate ATOM uses.
                atomicFence();
                try {
                    if (pr.warp_counter) {
                        mem_.write64(pr.warp_counter,
                                     mem_.read64(pr.warp_counter) +
                                         pr.scale);
                    }
                    if (P != 0) {
                        if (pr.thread_counter) {
                            mem_.write64(
                                pr.thread_counter,
                                mem_.read64(pr.thread_counter) +
                                    P * pr.scale);
                        }
                        if (pr.table_ptr) {
                            const uint64_t base =
                                mem_.read64(pr.table_ptr);
                            const uint64_t slot =
                                base +
                                static_cast<uint64_t>(pr.index) * 8;
                            mem_.write64(slot, mem_.read64(slot) +
                                                   P * pr.scale);
                        }
                    }
                } catch (const mem::DeviceMemory::MemFault &) {
                    throw DeviceException::memFault(
                        TrapCode::OutOfBoundsGlobal,
                        "inline probe counter access out of bounds",
                        e.pc, pr.table_ptr, MemSpace::Global, true);
                }

                // 3) The displaced original, as a full issue slot at
                // the callsite pc (the un-relocated decoded original,
                // so PC-relative semantics match in-place execution).
                const isa::Instruction &oin = pr.orig;
                const uint32_t exec = guardMask(oin);
                exec_mask = exec;
                const uint64_t next_pc = e.pc + ib_;
                if (terminal)
                    sched.advance(w, active_mask, next_pc);
                fetchTick();
                issueSlot(oin.op, e.pc, exec, false); // JMP wrote no GPR
                cur_pc_ = e.pc;
                cur_warp_ = w;
                interp.execute(oin, warp, rf, active_mask, exec, e.pc,
                               next_pc);
                if (oin.isControlFlow())
                    chargeCycles(1, obs::StallReason::BranchResolve,
                                 e.pc, w);
                last_dst = oin.writesGpr() ? oin.rd : isa::kRegZ;
                last_pc = e.pc;
                if (terminal) {
                    sched.setLastDst(w, last_dst);
                    return consumed;
                }
                break;
              }
            }
        }
        // Side-exit: the superblock ended without a terminal (page
        // boundary / size cap / untraceable successor).
        return exitHere();
    } catch (DeviceException &e) {
        // Same first annotation layer as stepWarp: faulting warp,
        // lanes, and the lowest faulting lane's return stack.
        e.warp_id = w;
        e.active_mask = exec_mask ? exec_mask : active_mask;
        if (e.active_mask && e.ret_stack.empty()) {
            const ThreadCtx &t = warp[std::countr_zero(e.active_mask)];
            e.ret_stack.assign(t.ret_stack, t.ret_stack + t.ret_depth);
        }
        throw;
    }
}

} // namespace nvbit::sim
