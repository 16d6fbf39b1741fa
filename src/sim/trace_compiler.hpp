/**
 * @file
 * Trace compiler: superblock discovery and handler pre-binding.
 *
 * The per-instruction engine re-derives everything about an
 * instruction on every dynamic execution: fetch, guard-predicate
 * evaluation and operand-shape decoding.  The trace compiler applies
 * the paper's amortisation lesson one level up from the predecode
 * cache: a straight-line *superblock* (entry pc up
 * to and including the first control-flow / barrier / exit
 * instruction) is compiled once into an array of pre-bound entries
 * that the SM replays with computed-goto threaded dispatch
 * (sim/trace_exec.cpp).
 *
 * Three entry kinds exist:
 *
 *  - Op: one instruction executed through the regular interpreter,
 *    but with fetch, shape checks and the RAW-stall test resolved at
 *    build time.
 *  - Strip: a run of simple always-executing 32-bit ALU instructions
 *    executed as sim/alu.hpp table rows over all 32 lanes at once,
 *    operands pointing straight at the warp's SoA register rows
 *    (CuLifter-style operand-shape specialisation, resolved once at
 *    build time by aluShape).
 *  - Probe: an NVBit instrumentation callsite (the patched
 *    jump-to-trampoline) whose tool function matches a declared
 *    inline-probe shape; the ballot/leader/atomic-add semantics are
 *    executed directly by the SM instead of interpreting the whole
 *    save/marshal/call/restore trampoline (paper Figures 5/8).
 *
 * The compiler reads a CodeCache page's predecoded entries, never
 * device memory, and its traces live in that page (sim/predecode.hpp):
 * a trace never spans a page, so invalidating the page's bytes retires
 * its decoded entries and its traces together.  A trace contains no
 * instruction that can change a thread's PC or state except as its
 * final entry, so the entry guard "every live lane is Ready and
 * converged at the entry pc" holds for the whole trace.
 */
#ifndef NVBIT_SIM_TRACE_COMPILER_HPP
#define NVBIT_SIM_TRACE_COMPILER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "isa/instruction.hpp"
#include "sim/alu.hpp"

namespace nvbit::sim {

/** One pre-bound strip operation: a table row plus operand rows. */
struct StripOp {
    AluOp h = AluOp::Mov;
    isa::Opcode op = isa::Opcode::NOP; ///< stats attribution
    /**
     * Operand rows.  Below WarpRegFile::kRows they name a row of the
     * executing warp's register file (RZ reads zero, the sink row takes
     * discarded results); from kRows on, row kRows + k is the run's
     * constant row k.  The destination is always a register row.
     */
    uint16_t d = WarpRegFile::kSinkRow;
    uint16_t a = isa::kRegZ;
    uint16_t b = isa::kRegZ;
    uint16_t c = isa::kRegZ;
    uint8_t aux = 0; ///< the row's modifier (see NVBIT_ALU_OPS)
    /** GPR this op architecturally writes (kRegZ when none); the RAW
     *  stall chain and WarpScheduler::lastDst are maintained from it. */
    uint8_t arch_dst = isa::kRegZ;
    /** Reads the previous issue slot's destination (precomputed). */
    bool raw_stall = false;
    uint64_t pc = 0;
};

/** A run of strip ops plus the constant rows its immediates read. */
struct StripRun {
    std::vector<StripOp> ops;
    /** Immediates splatted across lanes at build time, kWarpSize words
     *  per row, deduplicated by value. */
    std::vector<uint32_t> const_rows;
};

/**
 * One inlined instrumentation callsite, registered by the NVBit core
 * when a tool's probe matches a declared inline shape
 * (nvbit_declare_inline_probe).  Executed by the trace engine as:
 *
 *   P = popcount(ballot_guard ? ballot(orig guard, active) : active)
 *   warp_counter   += scale                        (always)
 *   thread_counter += P * scale                    (when P != 0)
 *   [*table_ptr + index * 8] += P * scale          (when P != 0)
 *
 * which is exactly what the leader-elected popc/atomic-add trampoline
 * bodies of instr_count / bbv_profiler compute, so tool-visible
 * counter values are identical to the trampoline path.
 */
struct InlineProbe {
    uint64_t jmp_pc = 0;        ///< pc of the patched JMP
    uint64_t tramp_target = 0;  ///< its target (staleness check)
    isa::Instruction orig{};    ///< the displaced original instruction
    bool ballot_guard = false;  ///< P counts guard-passing lanes
    uint64_t warp_counter = 0;  ///< device address of a u64 (0 = none)
    uint64_t thread_counter = 0;///< device address of a u64 (0 = none)
    uint64_t table_ptr = 0;     ///< address of a u64 *pointer* to a
                                ///< u64 table (0 = none)
    uint32_t index = 0;         ///< table index (captured imm arg)
    uint64_t scale = 1;         ///< multiplier (captured imm arg or 1)
};

enum class TraceEntryKind : uint8_t {
    Op,            ///< one interpreter-executed instruction
    OpTerminal,    ///< ditto, ends the trace (control flow/EXIT/BAR)
    Strip,         ///< StripRun (index in `idx`)
    Probe,         ///< inline probe + its original instruction
    ProbeTerminal, ///< ditto, original is control flow/EXIT/BAR
};

struct TraceEntry {
    TraceEntryKind kind = TraceEntryKind::Op;
    /** First instruction of the entry reads the previous issue slot's
     *  destination (entry 0: evaluated dynamically at trace entry). */
    bool raw_stall = false;
    /** Charge a BranchResolve cycle after executing (Op kinds). */
    bool is_cf = false;
    uint16_t idx = 0; ///< strip / probe index
    isa::Instruction in{};
    uint64_t pc = 0;
};

/** One compiled superblock. */
struct Trace {
    uint64_t entry_pc = 0;
    /** Issue slots the full trace consumes (strip ops and probe
     *  originals included; quantum-budget accounting). */
    uint32_t n_instrs = 0;
    /** First instruction (the entry probe's JMP for probe-led traces);
     *  the executor evaluates the trace's first RAW stall dynamically
     *  against WarpScheduler::lastDst with it. */
    isa::Instruction first_in{};
    std::vector<TraceEntry> entries;
    std::vector<StripRun> strips;
    std::vector<InlineProbe> probes;
};

struct PredecodedImage;

/**
 * Compile the superblock entered at the aligned @p pc of @p page from
 * the page's predecoded entries.  @p probes is the inline-probe
 * registry keyed by callsite pc; a probe is inlined only while its
 * callsite still holds the JMP to its trampoline.  @return nullptr when
 * no worthwhile trace starts there (an illegal or unmapped entry, an
 * immediate terminator, or fewer than two instructions with no probe
 * to inline).
 */
std::unique_ptr<Trace>
compileTrace(const PredecodedImage &page, uint64_t pc,
             const std::map<uint64_t, InlineProbe> &probes);

} // namespace nvbit::sim

#endif // NVBIT_SIM_TRACE_COMPILER_HPP
