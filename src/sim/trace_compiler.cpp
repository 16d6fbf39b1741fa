#include "sim/trace_compiler.hpp"

#include <algorithm>

#include "sim/predecode.hpp"

namespace nvbit::sim {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Upper bound on instructions per trace. */
constexpr unsigned kMaxTraceInstrs = 256;
/** Minimum eligible-op run length worth strip formation. */
constexpr unsigned kMinStripRun = 4;

/** Ends the superblock after executing (state/PC can change). */
bool
isTerminal(const Instruction &in)
{
    return in.isControlFlow() || in.op == Opcode::EXIT ||
           in.op == Opcode::BAR;
}

/** One decoded superblock instruction before entry formation. */
struct RawInstr {
    Instruction in;
    uint64_t pc = 0;
    const InlineProbe *probe = nullptr;
    bool shaped = false; ///< always-executing table row: strip-eligible
    AluShape shape;
};

/**
 * The probe registered at @p pc, or null.  Staleness guard: the
 * callsite must still be the JMP that targets the probe's trampoline
 * (code swaps restore the original bytes without unregistering).
 */
const InlineProbe *
probeAt(const std::map<uint64_t, InlineProbe> &probes, uint64_t pc,
        const Instruction &in)
{
    auto it = probes.find(pc);
    if (it == probes.end() ||
        static_cast<uint64_t>(in.imm) * isa::kJmpScale !=
            it->second.tramp_target)
        return nullptr;
    return &it->second;
}

} // namespace

std::unique_ptr<Trace>
compileTrace(const PredecodedImage &page, uint64_t pc,
             const std::map<uint64_t, InlineProbe> &probes)
{
    const size_t n_entries = page.entries.size();
    const uint64_t ib = CodeCache::kPageBytes / n_entries; // entry width

    // --- Pass 1: collect the superblock from the page ----------------
    std::vector<RawInstr> raw;
    bool has_probe = false;
    for (size_t k = (pc - page.base) / ib;
         k < n_entries && raw.size() < kMaxTraceInstrs; ++k) {
        const PredecodedEntry &pe = page.entries[k];
        if (pe.status != PredecodeStatus::Valid)
            break; // illegal/unmapped: side-exit, trap untraced
        RawInstr r;
        r.pc = page.base + k * ib;
        r.in = pe.in;
        if (r.in.op == Opcode::JMP && r.in.alwaysExecutes()) {
            if (const InlineProbe *pr = probeAt(probes, r.pc, r.in)) {
                // A barrier parks threads at their post-advance pc.
                // Inlined, that is the callsite; through the
                // trampoline, it is inside the trampoline — and warps
                // of the same block may take either path (divergent
                // warps fall back per-instruction), which the
                // divergent-barrier detector would flag as two
                // distinct barriers.  Never inline a BAR callsite.
                if (pr->orig.op == Opcode::BAR)
                    break;
                r.probe = pr;
                raw.push_back(r);
                has_probe = true;
                if (isTerminal(pr->orig))
                    break;
                continue;
            }
        }
        // S2R of an out-of-range special register throws with the
        // thread's (post-advance) pc; the trace engine defers PC
        // updates, so leave that case to the per-instruction path.
        if (r.in.op == Opcode::S2R &&
            (r.in.imm < 0 ||
             r.in.imm >=
                 static_cast<int64_t>(isa::SpecialReg::NumSpecialRegs)))
            break;
        r.shaped = r.in.alwaysExecutes() && aluShape(r.in, r.shape);
        raw.push_back(r);
        if (isTerminal(r.in))
            break;
    }
    if (raw.empty() || (raw.size() < 2 && !has_probe))
        return nullptr;

    // --- Pass 2: entry formation with strip runs ---------------------
    auto tr = std::make_unique<Trace>();
    tr->entry_pc = pc;
    tr->first_in = raw.front().in;
    uint8_t prev_dst = isa::kRegZ; // entry 0's stall is dynamic
    bool first = true;
    auto rawStall = [&](const Instruction &in) {
        bool st = !first && prev_dst != isa::kRegZ && in.readsGpr(prev_dst);
        first = false;
        return st;
    };

    size_t i = 0;
    const size_t n = raw.size();
    while (i < n) {
        const RawInstr &r = raw[i];
        if (r.probe) {
            TraceEntry e;
            e.kind = isTerminal(r.probe->orig)
                         ? TraceEntryKind::ProbeTerminal
                         : TraceEntryKind::Probe;
            e.raw_stall = rawStall(r.in); // the JMP reads no GPR
            e.idx = static_cast<uint16_t>(tr->probes.size());
            e.in = r.in;
            e.pc = r.pc;
            tr->probes.push_back(*r.probe);
            tr->entries.push_back(e);
            // JMP writes nothing; the displaced original chains next.
            prev_dst = r.probe->orig.writesGpr() ? r.probe->orig.rd
                                                 : isa::kRegZ;
            tr->n_instrs += 2;
            ++i;
            continue;
        }
        if (r.shaped) {
            // Greedy maximal run; immediates become constant rows.
            StripRun run;
            std::vector<uint32_t> consts;
            auto row = [&](const AluSrc &src) -> uint16_t {
                if (!src.is_const)
                    return src.reg;
                auto it = std::find(consts.begin(), consts.end(), src.cval);
                if (it == consts.end())
                    it = consts.insert(consts.end(), src.cval);
                return static_cast<uint16_t>(WarpRegFile::kRows +
                                             (it - consts.begin()));
            };
            size_t j = i;
            while (j < n && raw[j].shaped) {
                const AluShape &s = raw[j].shape;
                StripOp op;
                op.h = s.op;
                op.op = raw[j].in.op;
                op.d = s.d;
                op.a = row(s.a);
                op.b = row(s.b);
                op.c = row(s.c);
                op.aux = s.aux;
                op.arch_dst =
                    raw[j].in.writesGpr() ? raw[j].in.rd : isa::kRegZ;
                op.raw_stall = rawStall(raw[j].in);
                op.pc = raw[j].pc;
                run.ops.push_back(op);
                prev_dst = op.arch_dst;
                ++j;
            }
            if (run.ops.size() >= kMinStripRun) {
                for (uint32_t v : consts)
                    run.const_rows.insert(run.const_rows.end(), kWarpSize, v);
                TraceEntry e;
                e.kind = TraceEntryKind::Strip;
                e.raw_stall = run.ops.front().raw_stall;
                e.idx = static_cast<uint16_t>(tr->strips.size());
                e.pc = raw[i].pc;
                tr->n_instrs += static_cast<uint32_t>(run.ops.size());
                tr->strips.push_back(std::move(run));
                tr->entries.push_back(e);
                i = j;
                continue;
            }
            // Short run: fall through as generic entries, reusing the
            // stall chain already computed above.
            for (size_t k = i; k < j; ++k) {
                TraceEntry e;
                e.kind = TraceEntryKind::Op;
                e.raw_stall = run.ops[k - i].raw_stall;
                e.in = raw[k].in;
                e.pc = raw[k].pc;
                tr->entries.push_back(e);
                ++tr->n_instrs;
            }
            i = j;
            continue;
        }
        TraceEntry e;
        e.kind = isTerminal(r.in) ? TraceEntryKind::OpTerminal
                                  : TraceEntryKind::Op;
        e.raw_stall = rawStall(r.in);
        e.is_cf = r.in.isControlFlow();
        e.in = r.in;
        e.pc = r.pc;
        tr->entries.push_back(e);
        ++tr->n_instrs;
        prev_dst = r.in.writesGpr() ? r.in.rd : isa::kRegZ;
        ++i;
    }
    return tr;
}

} // namespace nvbit::sim
