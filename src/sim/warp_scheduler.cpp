#include "sim/warp_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace nvbit::sim {

WarpScheduler::WarpScheduler(const LaunchParams &lp)
{
    nthreads_ = lp.block[0] * lp.block[1] * lp.block[2];
    NVBIT_ASSERT(nthreads_ > 0 && nthreads_ <= 1024,
                 "invalid block size %u", nthreads_);
    nwarps_ = (nthreads_ + kWarpSize - 1) / kWarpSize;
    threads_.resize(nwarps_ * kWarpSize);
    regs_.resize(nwarps_);
    last_dst_.assign(nwarps_, isa::kRegZ);

    for (uint32_t z = 0, i = 0; z < lp.block[2]; ++z) {
        for (uint32_t y = 0; y < lp.block[1]; ++y) {
            for (uint32_t x = 0; x < lp.block[0]; ++x, ++i) {
                ThreadCtx &t = threads_[i];
                t.tid[0] = x;
                t.tid[1] = y;
                t.tid[2] = z;
                t.flat_tid = i;
                t.pc = lp.entry_pc;
                // ABI: R1 = stack pointer (stack grows downward
                // from the top of the thread's local window).
                regs_[i / kWarpSize].regs[isa::kAbiSpReg][i % kWarpSize] =
                    lp.local_bytes;
            }
        }
    }
    // Pad threads beyond the block size: born exited.
    for (uint32_t i = nthreads_; i < nwarps_ * kWarpSize; ++i)
        threads_[i].state = ThreadCtx::St::Exited;
}

WarpScheduler::Pick
WarpScheduler::pick(unsigned w, IssueSlot &slot) const
{
    const ThreadCtx *warp = &threads_[w * kWarpSize];

    uint64_t minpc = std::numeric_limits<uint64_t>::max();
    uint64_t min_parked = std::numeric_limits<uint64_t>::max();
    bool any_not_exited = false;
    for (unsigned l = 0; l < kWarpSize; ++l) {
        const ThreadCtx &t = warp[l];
        if (t.state == ThreadCtx::St::Exited)
            continue;
        any_not_exited = true;
        if (t.state == ThreadCtx::St::Ready)
            minpc = std::min(minpc, t.pc);
        else
            min_parked = std::min(min_parked, t.pc);
    }
    if (!any_not_exited)
        return Pick::AllExited;
    if (minpc == std::numeric_limits<uint64_t>::max()) {
        // All live threads at barrier; report where they are parked
        // (post-advance pc of the earliest one) for stall attribution.
        slot.pc = min_parked;
        slot.active_mask = 0;
        return Pick::Blocked;
    }

    // Active set: live threads converged at min PC.
    uint32_t active_mask = 0;
    uint32_t live_mask = 0;
    for (unsigned l = 0; l < kWarpSize; ++l) {
        if (warp[l].state == ThreadCtx::St::Exited)
            continue;
        live_mask |= 1u << l;
        if (warp[l].state == ThreadCtx::St::Ready && warp[l].pc == minpc)
            active_mask |= 1u << l;
    }
    slot.pc = minpc;
    slot.active_mask = active_mask;
    slot.converged = active_mask == live_mask;
    return Pick::Issue;
}

void
WarpScheduler::advance(unsigned w, uint32_t active_mask, uint64_t next_pc)
{
    ThreadCtx *warp = &threads_[w * kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l) {
        if ((active_mask >> l) & 1)
            warp[l].pc = next_pc;
    }
}

WarpScheduler::BarrierSnapshot
WarpScheduler::barrierSnapshot() const
{
    BarrierSnapshot s;
    s.min_pc = std::numeric_limits<uint64_t>::max();
    uint32_t prev_warp = std::numeric_limits<uint32_t>::max();
    std::vector<uint64_t> pcs; // distinct parked PCs (typically 1-2)
    for (uint32_t i = 0; i < nthreads_; ++i) {
        const ThreadCtx &t = threads_[i];
        if (t.state == ThreadCtx::St::Exited) {
            ++s.exited;
        } else if (t.state == ThreadCtx::St::Barrier) {
            ++s.waiting;
            s.min_pc = std::min(s.min_pc, t.pc);
            if (std::find(pcs.begin(), pcs.end(), t.pc) == pcs.end())
                pcs.push_back(t.pc);
            uint32_t w = i / kWarpSize;
            if (w != prev_warp) {
                s.stuck_warps.push_back(w);
                prev_warp = w;
            }
        }
    }
    s.distinct_pcs = static_cast<uint32_t>(pcs.size());
    if (s.waiting == 0)
        s.min_pc = 0;
    return s;
}

bool
WarpScheduler::releaseBarrier()
{
    bool released = false;
    for (ThreadCtx &t : threads_) {
        if (t.state == ThreadCtx::St::Barrier) {
            t.state = ThreadCtx::St::Ready;
            released = true;
        }
    }
    return released;
}

} // namespace nvbit::sim
