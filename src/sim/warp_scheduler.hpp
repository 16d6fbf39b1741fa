/**
 * @file
 * Warp scheduling layer: per-thread contexts, per-warp register files
 * and min-PC issue logic.
 *
 * Divergence is handled with per-thread PCs and min-PC scheduling
 * (threads whose PC is smallest execute first), which reconverges
 * structured control flow and supports arbitrary code layouts —
 * including NVBit trampolines placed far from the original function.
 */
#ifndef NVBIT_SIM_WARP_SCHEDULER_HPP
#define NVBIT_SIM_WARP_SCHEDULER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "sim/config.hpp"
#include "sim/launch.hpp"

namespace nvbit::sim {

/** Per-thread control state (registers live in the warp's WarpRegFile). */
struct ThreadCtx {
    enum class St : uint8_t { Ready, Barrier, Exited };

    uint64_t pc = 0;
    St state = St::Ready;
    uint64_t ret_stack[kMaxCallDepth];
    unsigned ret_depth = 0;
    uint32_t tid[3] = {0, 0, 0};
    uint32_t flat_tid = 0;
};

/**
 * One warp's register file, structure-of-arrays: `regs[r]` is the row
 * of register r across the 32 lanes, so a lane loop over one register
 * walks contiguous words.  Row kRegZ is never written and reads as
 * zero; ALU results with no GPR destination go to the sink row, which
 * is never read.  `preds[lane]` holds P0..P6 in bits 0..6.
 */
struct WarpRegFile {
    static constexpr unsigned kSinkRow = isa::kNumRegNames;
    static constexpr unsigned kRows = isa::kNumRegNames + 1;

    uint32_t regs[kRows][kWarpSize]{};
    uint8_t preds[kWarpSize]{};
};

// --- Register-file helpers shared by scheduler and interpreter ----------

/** Predicate @p p (kPredT = constant true) of one lane's predicate byte. */
inline bool
predBit(uint8_t preds, uint8_t p, bool neg)
{
    bool v = (p == isa::kPredT) ? true : ((preds >> p) & 1) != 0;
    return neg ? !v : v;
}

/** @p preds with predicate @p p set to @p v (writes to PT are dropped). */
inline uint8_t
withPred(uint8_t preds, uint8_t p, bool v)
{
    if (p == isa::kPredT)
        return preds;
    return v ? static_cast<uint8_t>(preds | (1u << p))
             : static_cast<uint8_t>(preds & ~(1u << p));
}

inline uint32_t
readReg(const WarpRegFile &rf, unsigned lane, uint8_t r)
{
    return rf.regs[r][lane];
}

inline void
writeReg(WarpRegFile &rf, unsigned lane, uint8_t r, uint32_t v)
{
    if (r != isa::kRegZ)
        rf.regs[r][lane] = v;
}

inline uint64_t
readPair(const WarpRegFile &rf, unsigned lane, uint8_t r)
{
    if (r == isa::kRegZ)
        return 0;
    // R254's high half is RZ, which reads zero.
    uint64_t lo = rf.regs[r][lane];
    uint64_t hi = rf.regs[r + 1][lane];
    return lo | (hi << 32);
}

inline void
writePair(WarpRegFile &rf, unsigned lane, uint8_t r, uint64_t v)
{
    if (r == isa::kRegZ)
        return;
    rf.regs[r][lane] = static_cast<uint32_t>(v);
    if (r + 1 < isa::kRegZ)
        rf.regs[r + 1][lane] = static_cast<uint32_t>(v >> 32);
}

inline bool
readPred(const WarpRegFile &rf, unsigned lane, uint8_t p, bool neg)
{
    return predBit(rf.preds[lane], p, neg);
}

inline void
writePred(WarpRegFile &rf, unsigned lane, uint8_t p, bool v)
{
    rf.preds[lane] = withPred(rf.preds[lane], p, v);
}

/**
 * Owns the thread contexts of one resident thread block and decides,
 * per warp, which PC to issue next.
 */
class WarpScheduler
{
  public:
    /** What pick() found for a warp. */
    enum class Pick : uint8_t {
        Issue,     ///< slot holds a PC and active mask to execute
        Blocked,   ///< live threads exist but all wait at the barrier
        AllExited, ///< every thread of the warp has exited
    };

    struct IssueSlot {
        uint64_t pc = 0;
        uint32_t active_mask = 0;
        /**
         * True when the active set is *every* non-exited thread of the
         * warp (no lane parked at a barrier, none diverged to another
         * PC).  The trace engine only enters a superblock under this
         * convergence guard; straight-line trace entries cannot change
         * thread state, so uniformity persists for the whole trace.
         */
        bool converged = false;
    };

    /** Initialise thread state for one thread block of @p lp. */
    WarpScheduler(const LaunchParams &lp);

    unsigned numWarps() const { return nwarps_; }
    uint32_t numThreads() const { return nthreads_; }

    ThreadCtx *warp(unsigned w) { return &threads_[w * kWarpSize]; }
    const ThreadCtx *warp(unsigned w) const
    {
        return &threads_[w * kWarpSize];
    }
    WarpRegFile &regs(unsigned w) { return regs_[w]; }

    /**
     * Min-PC selection: the issue PC is the smallest PC among the
     * warp's Ready threads; the active set is every Ready thread
     * converged at that PC.  On Blocked the slot still reports where
     * the warp is parked (smallest post-advance barrier PC, empty
     * active mask) so stall attribution can point at the barrier.
     */
    Pick pick(unsigned w, IssueSlot &slot) const;

    /**
     * Destination GPR of the last instruction the warp issued
     * (isa::kRegZ when none, or when it wrote no GPR).  Maintained by
     * the SM layer to flag read-after-write dependency stalls.
     */
    uint8_t lastDst(unsigned w) const { return last_dst_[w]; }
    void setLastDst(unsigned w, uint8_t r) { last_dst_[w] = r; }

    /** Advance all active threads to @p next_pc (control flow in the
     *  interpreter then overrides the divergent ones). */
    void advance(unsigned w, uint32_t active_mask, uint64_t next_pc);

    /** Release every thread waiting at the barrier.
     *  @return false if no thread was waiting (deadlock upstream). */
    bool releaseBarrier();

    /**
     * Snapshot of the block's barrier state, used by the SM layer to
     * detect divergent-barrier deadlocks (threads parked at more than
     * one distinct `bar.sync`). Only real threads are considered —
     * warp-padding lanes are born Exited and must not count as
     * "exited at the barrier".
     */
    struct BarrierSnapshot {
        uint32_t waiting = 0; ///< threads parked at a barrier
        uint32_t exited = 0;  ///< real threads that already exited
        /** Number of distinct PCs the waiting threads are parked at
         *  (> 1 means they arrived at different barriers). */
        uint32_t distinct_pcs = 0;
        /** Smallest post-advance PC among waiting threads (the
         *  instruction *after* the BAR; subtract one instruction
         *  to recover the barrier pc). */
        uint64_t min_pc = 0;
        /** Warp ids with at least one thread stuck at the barrier. */
        std::vector<uint32_t> stuck_warps;
    };

    BarrierSnapshot barrierSnapshot() const;

    /**
     * Value snapshot of the block's complete architectural thread
     * state — registers, predicates, PCs, return stacks, barrier
     * parking — for mid-launch checkpoint/restore.  Restoring onto a
     * scheduler freshly constructed from the same LaunchParams yields
     * a block indistinguishable from the captured one.
     */
    struct StateImage {
        std::vector<ThreadCtx> threads;
        std::vector<WarpRegFile> regs;
        std::vector<uint8_t> last_dst;
    };

    StateImage
    snapshotState() const
    {
        return {threads_, regs_, last_dst_};
    }

    void
    restoreState(const StateImage &img)
    {
        threads_ = img.threads;
        regs_ = img.regs;
        last_dst_ = img.last_dst;
    }

  private:
    uint32_t nthreads_ = 0;
    unsigned nwarps_ = 0;
    std::vector<ThreadCtx> threads_;
    std::vector<WarpRegFile> regs_; // per warp
    std::vector<uint8_t> last_dst_; // per warp; kRegZ = none
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_WARP_SCHEDULER_HPP
