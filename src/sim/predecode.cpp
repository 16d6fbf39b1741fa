#include "sim/predecode.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace nvbit::sim {

PredecodeStatus
decodeAt(const mem::DeviceMemory &mem, isa::ArchFamily fam, mem::DevPtr pc,
         isa::Instruction &out)
{
    try {
        auto bytes = mem.view(pc, isa::instrBytes(fam));
        return isa::decode(fam, bytes.data(), out)
                   ? PredecodeStatus::Valid
                   : PredecodeStatus::Illegal;
    } catch (const mem::DeviceMemory::MemFault &) {
        return PredecodeStatus::Unmapped;
    }
}

CodeCache::CodeCache(const mem::DeviceMemory &mem, isa::ArchFamily fam)
    : mem_(mem), fam_(fam), ib_(isa::instrBytes(fam)),
      ib_shift_(std::countr_zero(ib_)),
      slots_((mem.size() + kPageBytes - 1) / kPageBytes)
{
    static_assert(kPageBytes % 16 == 0 && (kPageBytes & (kPageBytes - 1)) == 0,
                  "page size must be a power of two holding whole "
                  "instructions of either family");
}

PredecodedImage *
CodeCache::buildPage(mem::DevPtr base) const
{
    auto page = new PredecodedImage;
    page->base = base;
    page->entries.resize(kPageBytes / ib_);
    page->trace_slots =
        std::vector<std::atomic<const Trace *>>(page->entries.size());
    for (size_t i = 0; i < page->entries.size(); ++i) {
        PredecodedEntry &e = page->entries[i];
        e.status = decodeAt(mem_, fam_, base + i * ib_, e.in);
    }
    return page;
}

const PredecodedImage *
CodeCache::acquire(mem::DevPtr pc)
{
    size_t slot = pc / kPageBytes;
    if (slot >= slots_.size())
        return nullptr;
    PredecodedImage *page = slots_[slot].load(std::memory_order_acquire);
    if (page)
        return page;
    std::lock_guard<std::mutex> lk(fill_mu_);
    page = slots_[slot].load(std::memory_order_relaxed);
    if (page)
        return page;
    page = buildPage(pageBase(pc));
    owned_[slot] = std::unique_ptr<PredecodedImage>(page);
    pages_built_.fetch_add(1, std::memory_order_relaxed);
    slots_[slot].store(page, std::memory_order_release);
    return page;
}

const Trace *
CodeCache::compileSlot(const PredecodedImage &page, mem::DevPtr pc)
{
    std::atomic<const Trace *> &slot =
        page.trace_slots[(pc - page.base) >> ib_shift_];
    std::lock_guard<std::mutex> lk(fill_mu_);
    // A retired page still compiles: its traces then match the entries
    // the SM holding it fetches from, until the next launch boundary.
    const Trace *tr = slot.load(std::memory_order_relaxed);
    if (tr)
        return tr;
    std::unique_ptr<Trace> built = compileTrace(page, pc, probes_);
    tr = built ? built.get() : noTrace();
    if (built) {
        page.traces.push_back(std::move(built));
        traces_built_.fetch_add(1, std::memory_order_relaxed);
    }
    slot.store(tr, std::memory_order_release);
    return tr;
}

void
CodeCache::retireLocked(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    size_t first = addr / kPageBytes;
    size_t last = (addr + bytes - 1) / kPageBytes;
    if (first >= slots_.size())
        return;
    last = std::min(last, slots_.size() - 1);
    for (size_t slot = first; slot <= last; ++slot) {
        if (!slots_[slot].load(std::memory_order_relaxed))
            continue;
        slots_[slot].store(nullptr, std::memory_order_release);
        auto it = owned_.find(slot);
        NVBIT_ASSERT(it != owned_.end(), "code cache slot %zu untracked",
                     slot);
        retired_.push_back(std::move(it->second));
        owned_.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
CodeCache::invalidateRange(mem::DevPtr addr, size_t bytes)
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    retireLocked(addr, bytes);
}

void
CodeCache::invalidateAll()
{
    invalidateRange(0, slots_.size() * kPageBytes);
}

void
CodeCache::prewarm(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    for (mem::DevPtr p = pageBase(addr); p < addr + bytes; p += kPageBytes)
        acquire(p);
}

void
CodeCache::collectRetired()
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    retired_.clear();
}

void
CodeCache::registerProbe(const InlineProbe &probe)
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    probes_[probe.jmp_pc] = probe;
    retireLocked(probe.jmp_pc, ib_);
}

void
CodeCache::clearProbesInRange(mem::DevPtr addr, size_t bytes)
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    auto lo = probes_.lower_bound(addr);
    auto hi = probes_.lower_bound(addr + bytes);
    if (lo == hi)
        return;
    probes_.erase(lo, hi);
    retireLocked(addr, bytes);
}

size_t
CodeCache::probeCount() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    return probes_.size();
}

size_t
CodeCache::residentPages() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    return owned_.size();
}

size_t
CodeCache::residentTraces() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    size_t n = 0;
    for (const auto &[slot, page] : owned_)
        n += page->traces.size();
    return n;
}

} // namespace nvbit::sim
