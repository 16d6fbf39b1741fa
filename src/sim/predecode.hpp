/**
 * @file
 * The code cache: page-grained arrays of decoded instructions plus the
 * superblock traces compiled from them.
 *
 * The interpreter hot loop used to call isa::decode on raw bytes for
 * every dynamic instruction.  The code cache applies NVBit's central
 * amortisation lesson (instrumented functions are generated once and
 * reused across launches, paper §4) to the execution layer: each 4 KiB
 * page of device memory is decoded at most once and every SM then
 * fetches `isa::Instruction` records by PC index.  With the trace
 * engine on, the page also holds the traces compiled from its entries
 * (sim/trace_compiler.hpp), one slot per instruction, so both derived
 * forms of the code live and die together.
 *
 * Coherence follows real-hardware instruction-cache semantics: pages
 * are retired when the *host side* writes device memory (module load,
 * trampoline patching, code swapping — wired up through
 * mem::DeviceMemory's write observer plus explicit calls from the
 * NVBit core) or when the inline-probe registry changes, while
 * device-side stores do NOT invalidate.  Code that writes its own
 * instructions must request an explicit flush, exactly as on the real
 * device.
 */
#ifndef NVBIT_SIM_PREDECODE_HPP
#define NVBIT_SIM_PREDECODE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/arch.hpp"
#include "mem/device_memory.hpp"
#include "sim/trace_compiler.hpp"

namespace nvbit::sim {

/** Outcome of decoding one instruction slot. */
enum class PredecodeStatus : uint8_t {
    Valid,    ///< `in` holds the decoded instruction
    Illegal,  ///< bytes exist but the opcode field is out of range
    Unmapped, ///< the slot extends beyond mapped device memory
};

/**
 * Decode the instruction at @p pc from device memory into @p out.  The
 * one decoder behind both the page builder and per-instruction byte
 * decoding, so the two agree on every trap.
 */
PredecodeStatus decodeAt(const mem::DeviceMemory &mem, isa::ArchFamily fam,
                         mem::DevPtr pc, isa::Instruction &out);

/** One decoded instruction slot. */
struct PredecodedEntry {
    isa::Instruction in{};
    PredecodeStatus status = PredecodeStatus::Unmapped;
};

/**
 * One code page: entries indexed by (pc - base) / instrBytes, and the
 * traces compiled from them.
 */
struct PredecodedImage {
    mem::DevPtr base = 0;
    std::vector<PredecodedEntry> entries;
    /**
     * One trace slot per entry: null = never compiled, CodeCache's
     * "not worthwhile" sentinel, or the trace entered there.  Filled
     * lazily by CodeCache::trace under its fill mutex.
     */
    mutable std::vector<std::atomic<const Trace *>> trace_slots;
    /** The compiled traces, owned by the page (fill mutex held). */
    mutable std::vector<std::unique_ptr<Trace>> traces;
};

/**
 * Device-wide code cache.
 *
 * Lookup is lock-free (one atomic pointer load per page, one more per
 * trace slot); building a missing page or compiling a missing trace
 * takes a mutex with double-checked locking so parallel SMs that fault
 * on the same page decode it once.  Invalidation moves pages, with
 * their traces, to a retired list instead of freeing them, because an
 * SM thread may still hold a raw pointer from a previous fetch; retired
 * pages are reclaimed via collectRetired() at the next launch boundary,
 * when no execution threads exist.
 *
 * The cache also owns the inline-probe registry: the NVBit core
 * registers an InlineProbe for every instrumentation callsite whose
 * tool function matches a declared inline shape, and traces compiled
 * afterwards inline it.  A registry change retires the pages it covers,
 * like a code write.
 */
class CodeCache
{
  public:
    /** Page granularity.  Divisible by both instruction widths. */
    static constexpr size_t kPageBytes = 4096;

    CodeCache(const mem::DeviceMemory &mem, isa::ArchFamily fam);

    /** @return the page base address containing @p pc. */
    static mem::DevPtr
    pageBase(mem::DevPtr pc)
    {
        return pc & ~static_cast<mem::DevPtr>(kPageBytes - 1);
    }

    /**
     * Get the predecoded page containing @p pc, building it on first
     * touch.  @return nullptr when @p pc lies entirely outside device
     * memory.  The pointer stays valid until the next collectRetired().
     */
    const PredecodedImage *acquire(mem::DevPtr pc);

    /**
     * The trace entered at the aligned @p pc of @p page, compiled on
     * first touch from the page's entries and the probe registry.
     * @return nullptr when no worthwhile trace starts there (the
     * negative result is cached too).  Valid as long as @p page is.
     */
    const Trace *
    trace(const PredecodedImage &page, mem::DevPtr pc)
    {
        const Trace *tr = page.trace_slots[(pc - page.base) >> ib_shift_]
                              .load(std::memory_order_acquire);
        if (!tr)
            tr = compileSlot(page, pc);
        return tr == noTrace() ? nullptr : tr;
    }

    /** Retire pages overlapping [addr, addr+bytes). */
    void invalidateRange(mem::DevPtr addr, size_t bytes);

    /** Retire every page (full icache flush). */
    void invalidateAll();

    /** Eagerly build every page overlapping [addr, addr+bytes). */
    void prewarm(mem::DevPtr addr, size_t bytes);

    /**
     * Free retired pages.  Call only when no simulation threads are
     * running (e.g. at the start of a launch).
     */
    void collectRetired();

    /**
     * Register an inlineable instrumentation callsite.  Replaces any
     * probe previously registered at the same pc and retires the page
     * covering it so its traces recompile with the probe inlined.
     */
    void registerProbe(const InlineProbe &probe);

    /** Drop probes whose callsite lies in [addr, addr+bytes). */
    void clearProbesInRange(mem::DevPtr addr, size_t bytes);

    /** Registered inline-probe callsites (test introspection). */
    size_t probeCount() const;

    /** Pages decoded since construction (monotonic, includes rebuilds). */
    uint64_t pagesBuilt() const { return pages_built_.load(); }
    /** Traces compiled since construction (includes recompiles). */
    uint64_t tracesBuilt() const { return traces_built_.load(); }
    /** Pages retired by invalidation since construction. */
    uint64_t invalidations() const { return invalidations_.load(); }
    /** Pages currently resident. */
    size_t residentPages() const;
    /** Compiled traces on resident pages (sentinels excluded). */
    size_t residentTraces() const;

  private:
    /** "Compiled, nothing worthwhile here" trace-slot marker. */
    static const Trace *
    noTrace()
    {
        return reinterpret_cast<const Trace *>(uintptr_t{1});
    }

    PredecodedImage *buildPage(mem::DevPtr base) const;
    /** Slow path of trace(): compile the slot under fill_mu_. */
    const Trace *compileSlot(const PredecodedImage &page, mem::DevPtr pc);
    /** Retire live pages overlapping [addr, addr+bytes) (fill_mu_ held). */
    void retireLocked(mem::DevPtr addr, size_t bytes);

    const mem::DeviceMemory &mem_;
    isa::ArchFamily fam_;
    size_t ib_;
    unsigned ib_shift_; ///< log2(ib_)

    /** One slot per device page; nullptr = not resident. */
    std::vector<std::atomic<PredecodedImage *>> slots_;
    mutable std::mutex fill_mu_;
    /** Live pages, keyed by slot index (guarded by fill_mu_). */
    std::unordered_map<size_t, std::unique_ptr<PredecodedImage>> owned_;
    /** Invalidated pages awaiting reclamation (guarded by fill_mu_). */
    std::vector<std::unique_ptr<PredecodedImage>> retired_;
    /** Inline probes keyed by callsite pc (guarded by fill_mu_). */
    std::map<uint64_t, InlineProbe> probes_;

    std::atomic<uint64_t> pages_built_{0};
    std::atomic<uint64_t> traces_built_{0};
    std::atomic<uint64_t> invalidations_{0};
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_PREDECODE_HPP
