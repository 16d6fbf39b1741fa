/**
 * @file
 * Tests for the trace-compiled threaded-code execution engine.
 *
 * Five groups:
 *  1. Traces in the code cache: superblock compilation, the negative
 *     ("not worthwhile") sentinel, and pointer stability.
 *  2. Invalidation protocol: code swaps (the simulator-level analogue
 *     of nvbit_insert_call re-instrumentation) and probe-registry
 *     changes retire a page's decoded entries and traces together; the
 *     registry empties on module unload.
 *  3. Traced-engine differentials on adversarial shapes: superblocks
 *     longer than the scheduler quantum (side-exit and resume) and
 *     warps that diverge at the trace terminal.
 *  4. Probe inlining vs trampoline equivalence through the full NVBit
 *     stack: identical tool counters with traces on and off.
 *  5. The ALU table on edge operands: every row, every compare op and
 *     the immediate forms give the same registers and predicates in the
 *     per-instruction engine and in strip runs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "isa/abi.hpp"
#include "sim/alu.hpp"
#include "sim/gpu.hpp"
#include "sim/predecode.hpp"
#include "sim/trace_compiler.hpp"
#include "tools/instr_count.hpp"

namespace nvbit {
namespace {

using isa::Instruction;
using isa::Opcode;

class TraceTestBase : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("NVBIT_SIM_EXEC");
        unsetenv("NVBIT_SIM_PREDECODE");
        unsetenv("NVBIT_SIM_TRACES");
    }
    void TearDown() override { cudrv::resetDriver(); }

    sim::GpuConfig
    smallConfig(bool traces)
    {
        sim::GpuConfig cfg;
        cfg.num_sms = 2;
        cfg.mem_bytes = 8 << 20;
        cfg.use_traces = traces;
        return cfg;
    }

    uint64_t
    place(sim::GpuDevice &gpu, const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu.family(), prog);
        mem::DevPtr p = gpu.memory().alloc(bytes.size(), 16);
        gpu.memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    /** n IADDs accumulating into R4, then STG the sum and EXIT. */
    std::vector<Instruction>
    accumulateProgram(mem::DevPtr buf, unsigned n)
    {
        std::vector<Instruction> prog;
        prog.push_back(isa::makeMovImm(4, 0));
        for (unsigned i = 0; i < n; ++i)
            prog.push_back(isa::makeIAddImm(4, 4, 1));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7,
                               static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeStore(Opcode::STG, 6, 0, 4));
        prog.push_back(isa::makeExit());
        return prog;
    }

    sim::LaunchParams
    oneWarp(uint64_t entry)
    {
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 32;
        return lp;
    }
};

// ---------------------------------------------------------------------
// 1. Trace compilation into code-cache pages
// ---------------------------------------------------------------------

class TraceCacheTest : public TraceTestBase
{};

TEST_F(TraceCacheTest, CompilesSuperblockAndCachesNegativeResult)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    std::vector<Instruction> prog = accumulateProgram(buf, 16);
    uint64_t entry = place(gpu, prog);
    const size_t ib = isa::instrBytes(gpu.family());

    sim::CodeCache cache(gpu.memory(), gpu.family());
    auto traceAt = [&](uint64_t pc) {
        const sim::PredecodedImage *page = cache.acquire(pc);
        EXPECT_NE(page, nullptr);
        return cache.trace(*page, pc);
    };
    const sim::Trace *tr = traceAt(entry);
    ASSERT_NE(tr, nullptr);
    EXPECT_EQ(tr->entry_pc, entry);
    EXPECT_GE(tr->n_instrs, 16u);
    EXPECT_EQ(cache.tracesBuilt(), 1u);
    EXPECT_EQ(cache.residentTraces(), 1u);

    // A second lookup is a cache hit on the same object.
    EXPECT_EQ(traceAt(entry), tr);
    EXPECT_EQ(cache.tracesBuilt(), 1u);

    // A lone terminal cannot form a worthwhile trace; the negative
    // result is cached (no recompile attempt on re-touch).
    uint64_t exit_pc = entry + (prog.size() - 1) * ib;
    EXPECT_EQ(traceAt(exit_pc), nullptr);
    EXPECT_EQ(traceAt(exit_pc), nullptr);
    EXPECT_EQ(cache.tracesBuilt(), 1u);
}

TEST_F(TraceCacheTest, TracedLaunchPopulatesDeviceCache)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    uint64_t entry = place(gpu, accumulateProgram(buf, 16));

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 16u);
    EXPECT_GE(gpu.codeCache().tracesBuilt(), 1u);
    EXPECT_GE(gpu.codeCache().residentTraces(), 1u);
}

// ---------------------------------------------------------------------
// 2. Invalidation protocol
// ---------------------------------------------------------------------

TEST_F(TraceCacheTest, CodeSwapInvalidatesCompiledTraces)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    uint64_t entry = place(gpu, accumulateProgram(buf, 8));

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    const sim::CodeCache &cc = gpu.codeCache();
    uint64_t inv0 = cc.invalidations();
    uint64_t built0 = cc.tracesBuilt();
    EXPECT_GE(cc.residentTraces(), 1u);

    // Swap the first instruction (MOV R4, 0 -> MOV R4, 100): the exact
    // write path nvbit_insert_call's trampoline patching uses.  The
    // write observer must retire the covering page with its traces.
    uint8_t enc[16];
    isa::encode(gpu.family(), isa::makeMovImm(4, 100), enc);
    gpu.memory().write(entry, enc, isa::instrBytes(gpu.family()));
    EXPECT_GT(cc.invalidations(), inv0);
    EXPECT_EQ(cc.residentTraces(), 0u);

    // The relaunch recompiles and observes the new code.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 108u);
    EXPECT_GT(cc.tracesBuilt(), built0);
}

TEST_F(TraceCacheTest, HostWriteRetiresEntriesAndTracesAsOneInvalidation)
{
    // The same patched program on a traced and an untraced device.
    auto run = [&](bool traces, bool check_cache) {
        sim::GpuDevice gpu(smallConfig(traces));
        mem::DevPtr buf = gpu.memory().alloc(4);
        uint64_t entry = place(gpu, accumulateProgram(buf, 8));
        gpu.launch(oneWarp(entry));

        const sim::CodeCache &cc = gpu.codeCache();
        const uint64_t inv0 = cc.invalidations();
        const size_t pages0 = cc.residentPages();
        if (check_cache) {
            EXPECT_GE(pages0, 1u);
            EXPECT_GE(cc.residentTraces(), 1u);
        }
        uint8_t enc[16];
        isa::encode(gpu.family(), isa::makeMovImm(4, 100), enc);
        gpu.memory().write(entry, enc, isa::instrBytes(gpu.family()));
        if (check_cache) {
            // One page held both forms of the code: one retirement.
            EXPECT_EQ(cc.invalidations(), inv0 + 1);
            EXPECT_EQ(cc.residentPages(), pages0 - 1);
            EXPECT_EQ(cc.residentTraces(), 0u);
        }
        sim::LaunchStats st = gpu.launch(oneWarp(entry));
        return std::make_pair(gpu.memory().read32(buf), st);
    };
    auto [traced_sum, traced] = run(true, true);
    auto [plain_sum, plain] = run(false, false);
    EXPECT_EQ(traced_sum, 108u);
    EXPECT_EQ(plain_sum, 108u);
    EXPECT_EQ(traced.warp_instrs, plain.warp_instrs);
    EXPECT_EQ(traced.thread_instrs, plain.thread_instrs);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.decode_cache_hits, plain.decode_cache_hits);
    EXPECT_EQ(traced.decode_cache_misses, plain.decode_cache_misses);
}

TEST_F(TraceCacheTest, ProbeRegistryChangesRetireCoveringTraces)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    mem::DevPtr counter = gpu.memory().alloc(8);
    gpu.memory().write32(counter, 0);
    gpu.memory().write32(counter + 4, 0);

    // Program with a probe-shaped callsite: the IADD at slot 2 is
    // displaced into a fake trampoline and its callsite patched to a
    // JMP, exactly as the core's generate() does.
    std::vector<Instruction> prog = accumulateProgram(buf, 8);
    const size_t ib = isa::instrBytes(gpu.family());
    uint64_t entry = place(gpu, prog);
    uint64_t callsite = entry + 2 * ib;

    // Fake trampoline: the displaced IADD, then JMP back.
    std::vector<Instruction> tramp;
    tramp.push_back(isa::makeIAddImm(4, 4, 1));
    tramp.push_back(isa::makeJmpAbs(callsite + ib));
    auto tb = isa::encodeAll(gpu.family(), tramp);
    mem::DevPtr tramp_base =
        gpu.memory().alloc(tb.size(), isa::kJmpScale);
    gpu.memory().write(tramp_base, tb.data(), tb.size());

    uint8_t enc[16];
    isa::encode(gpu.family(), isa::makeJmpAbs(tramp_base), enc);
    gpu.memory().write(callsite, enc, ib);

    // Baseline traced run through the trampoline.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);

    // Registering an inline probe at the callsite retires the covering
    // page so its traces recompile inlined.
    const sim::CodeCache &cc = gpu.codeCache();
    uint64_t inv0 = cc.invalidations();
    sim::InlineProbe p;
    p.jmp_pc = callsite;
    p.tramp_target = tramp_base;
    p.orig = isa::makeIAddImm(4, 4, 1);
    p.warp_counter = counter;
    gpu.registerInlineProbe(p);
    EXPECT_GT(cc.invalidations(), inv0);
    EXPECT_EQ(cc.probeCount(), 1u);

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    // The warp counter advanced once per launch through the inlined
    // probe body.
    EXPECT_EQ(gpu.memory().read32(counter), 1u);

    // Module unload / re-instrumentation clears the registry.
    uint64_t inv1 = cc.invalidations();
    gpu.clearInlineProbes(entry, prog.size() * ib);
    EXPECT_EQ(cc.probeCount(), 0u);
    EXPECT_GT(cc.invalidations(), inv1);

    // Back through the trampoline; results unchanged, counter frozen.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    EXPECT_EQ(gpu.memory().read32(counter), 1u);
}

// ---------------------------------------------------------------------
// 3. Traced-engine differentials on adversarial control shapes
// ---------------------------------------------------------------------

class TracedEngineTest : public TraceTestBase
{
  protected:
    struct RunOut {
        uint32_t result = 0;
        sim::LaunchStats stats;
    };

    RunOut
    runBoth(const std::vector<Instruction> &prog_tail, bool traces,
            uint32_t block = 32)
    {
        sim::GpuDevice gpu(smallConfig(traces));
        mem::DevPtr buf = gpu.memory().alloc(4 * 64);
        std::vector<Instruction> prog;
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7,
                               static_cast<uint32_t>(buf >> 32));
        prog.insert(prog.end(), prog_tail.begin(), prog_tail.end());
        uint64_t entry = place(gpu, prog);
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = block;
        RunOut out;
        out.stats = gpu.launch(lp);
        out.result = gpu.memory().read32(buf);
        return out;
    }

    void
    expectIdentical(const RunOut &a, const RunOut &b)
    {
        EXPECT_EQ(a.result, b.result);
        EXPECT_EQ(a.stats.thread_instrs, b.stats.thread_instrs);
        EXPECT_EQ(a.stats.warp_instrs, b.stats.warp_instrs);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(a.stats.decode_cache_hits, b.stats.decode_cache_hits);
        EXPECT_EQ(a.stats.decode_cache_misses,
                  b.stats.decode_cache_misses);
        for (size_t i = 0; i < a.stats.cycles_by_reason.size(); ++i)
            EXPECT_EQ(a.stats.cycles_by_reason[i],
                      b.stats.cycles_by_reason[i])
                << "cycles_by_reason[" << i << "]";
    }
};

TEST_F(TracedEngineTest, SideExitResumesAfterQuantumExhaustion)
{
    // 200 straight-line IADDs: longer than the scheduler quantum, so
    // the traced engine must side-exit mid-trace on budget exhaustion,
    // flush the deferred PC advance, and resume exactly where the
    // per-instruction engine would.
    std::vector<Instruction> tail;
    tail.push_back(isa::makeMovImm(4, 0));
    for (int i = 0; i < 200; ++i)
        tail.push_back(isa::makeIAddImm(4, 4, 1));
    tail.push_back(isa::makeStore(Opcode::STG, 6, 0, 4));
    tail.push_back(isa::makeExit());

    RunOut base = runBoth(tail, false);
    RunOut traced = runBoth(tail, true);
    EXPECT_EQ(traced.result, 200u);
    expectIdentical(base, traced);
}

TEST_F(TracedEngineTest, DivergentTerminalRewindsBitIdentically)
{
    // Lanes diverge at the trace's terminal branch (odd lanes take
    // it), re-execute the tail region divergently, and reconverge at
    // the store.  Traced and per-instruction engines must agree on
    // results, cycle totals, and the full stall breakdown.
    const size_t ib = isa::instrBytes(isa::ArchFamily::SM7x);
    std::vector<Instruction> tail;
    tail.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    tail.push_back(isa::makeMovImm(5, 0));
    for (int i = 0; i < 6; ++i)
        tail.push_back(isa::makeIAddImm(5, 5, 1));
    Instruction setp; // P0 = (laneid & 1) != 0 via ISETP on R4
    setp.op = Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::GT),
        isa::DType::U32);
    setp.rd = 0;
    setp.ra = 4;
    setp.imm = 15; // lanes 16..31 take the branch
    tail.push_back(setp);
    // Taken lanes skip one extra IADD.
    tail.push_back(isa::makeBra(static_cast<int64_t>(ib), 0, false));
    tail.push_back(isa::makeIAddImm(5, 5, 100));
    tail.push_back(isa::makeStore(Opcode::STG, 6, 0, 5));
    tail.push_back(isa::makeExit());

    RunOut base = runBoth(tail, false);
    RunOut traced = runBoth(tail, true);
    expectIdentical(base, traced);
}

// ---------------------------------------------------------------------
// 4. Probe inlining vs trampoline through the full stack
// ---------------------------------------------------------------------

class ProbeInlineTest : public TraceTestBase
{};

TEST_F(ProbeInlineTest, InlineCountsMatchTrampolineCounts)
{
    const char *kKernel = R"(
.visible .entry accum(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    ld.param.u32 %r2, [n];
    mov.u32 %r3, 0;
LOOP:
    add.u32 %r3, %r3, %r1;
    sub.u32 %r2, %r2, 1;
    setp.gt.u32 %p1, %r2, 0;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [out];
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
)";
    auto app = [&] {
        using namespace cudrv;
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "accum"), "get");
        CUdeviceptr out;
        checkCu(cuMemAlloc(&out, 64 * 4), "alloc");
        uint32_t n = 40;
        void *params[] = {&out, &n};
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, nullptr,
                               params, nullptr),
                "launch");
    };

    auto countsWith = [&](const char *traces, bool per_bb) {
        setenv("NVBIT_SIM_TRACES", traces, 1);
        cudrv::resetDriver();
        tools::InstrCountTool tool(
            per_bb ? tools::InstrCountTool::Mode::PerBasicBlock
                   : tools::InstrCountTool::Mode::PerInstruction);
        uint64_t threads = 0, warps = 0;
        runApp(tool, [&] {
            app();
            threads = tool.threadInstrs();
            warps = tool.warpInstrs();
        });
        unsetenv("NVBIT_SIM_TRACES");
        cudrv::resetDriver();
        return std::pair<uint64_t, uint64_t>{threads, warps};
    };

    for (bool per_bb : {false, true}) {
        SCOPED_TRACE(per_bb ? "per-basic-block" : "per-instruction");
        auto tramp = countsWith("0", per_bb);
        auto inlined = countsWith("1", per_bb);
        EXPECT_GT(tramp.first, 0u);
        EXPECT_EQ(tramp.first, inlined.first) << "thread-level count";
        EXPECT_EQ(tramp.second, inlined.second) << "warp-level count";
    }
}

// ---------------------------------------------------------------------
// 5. ALU table: per-instruction engine vs strip runs on edge operands
// ---------------------------------------------------------------------

/** One operand per lane: NaNs, signed zeros, infinities, integer
 *  extremes, shift counts >= 32 and the F2I saturation bounds. */
constexpr uint32_t kEdge[32] = {
    0x7fc00000u, 0xffc00000u, 0x00000000u, 0x80000000u, // NaN, -NaN, +-0
    0x7f800000u, 0xff800000u, 0x7fffffffu, 0xffffffffu, // +-inf, max, -1
    0x4f000000u, 0x4effffffu, 0xcf000000u, 0xcf000001u, // +-2^31 bounds
    0x4f800000u, 0x4f7fffffu, 0xbf800000u, 0x3f000000u, // 2^32 bounds
    0x3fc00000u, 32u,         33u,         31u,         // 1.5f, shifts
    63u,         255u,        0x00800000u, 0x00000001u, // normal, denorm
    0x40490fdbu, 0xc0490fdbu, 0x80000001u, 0x7f7fffffu, // +-pi, FLT_MAX
    7u,          0xdeadbeefu, 0x12345678u, 0x7fu,
};

class AluTableDiffTest : public TraceTestBase
{
  protected:
    // Source registers (loaded per lane), the predicate seed, and the
    // per-variant destinations stored to the output.
    static constexpr uint8_t kA = 20, kB = 21, kC = 22, kPSeed = 23;
    static constexpr unsigned kLanes = 32;

    /** ALU instruction with the given modifier and immediate. */
    static Instruction
    alu(Opcode op, uint8_t mod = 0, int64_t imm = 0)
    {
        Instruction in;
        in.op = op;
        in.mod = mod;
        in.imm = imm;
        return in;
    }

    static bool
    isSetp(const Instruction &in)
    {
        return in.op == Opcode::ISETP || in.op == Opcode::FSETP;
    }

    /**
     * Four variants of @p t with distinct operand aliasing: plain,
     * swapped sources, one register read twice, and the destination
     * overwriting a source.  Setp variants write P0, P3, P6 and PT.
     */
    static std::vector<Instruction>
    variants(const Instruction &t)
    {
        struct Regs {
            uint8_t rd, ra, rb, rc, pd;
        };
        const Regs rs[4] = {{24, kA, kB, kC, 0},
                            {25, kB, kA, kC, 3},
                            {26, kA, kA, kB, 6},
                            {kA, kA, kB, kC, isa::kPredT}};
        std::vector<Instruction> out;
        for (const Regs &r : rs) {
            Instruction in = t;
            in.rd = isSetp(t) ? r.pd : r.rd;
            in.ra = r.ra;
            in.rb = r.rb;
            in.rc = r.rc;
            out.push_back(in);
        }
        return out;
    }

    struct Result {
        std::vector<uint32_t> words; ///< 5 rows of 32 lanes
        bool on_strip = false;       ///< variant 0 compiles into a strip
    };

    /**
     * Load a, b, c and a predicate seed per lane, run the four
     * variants of @p t between R2P and P2R, and store R24, R25, R26,
     * the overwritten source R20 and the predicate byte.
     */
    Result
    run(const Instruction &t, bool traces)
    {
        sim::GpuConfig cfg = smallConfig(traces);
        cfg.family = isa::ArchFamily::SM7x; // 64-bit immediates
        sim::GpuDevice gpu(cfg);
        const uint32_t row = kLanes * 4;
        mem::DevPtr buf = gpu.memory().alloc(9 * row);
        std::vector<uint32_t> in(4 * kLanes);
        for (unsigned l = 0; l < kLanes; ++l) {
            in[l] = kEdge[l];
            in[kLanes + l] = kEdge[(l * 7 + 3) % kLanes];
            in[2 * kLanes + l] = kEdge[(l * 13 + 5) % kLanes];
            in[3 * kLanes + l] = (l * 37u) & 0x7Fu;
        }
        gpu.memory().write(buf, in.data(), in.size() * 4);

        std::vector<Instruction> prog;
        prog.push_back(isa::makeMovImm(11, 4));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeS2R(8, isa::SpecialReg::LANEID));
        Instruction addr = alu(Opcode::IMAD,
                               isa::modSetDType(0, isa::DType::U64));
        addr.rd = 12; // R12:R13 = laneid * 4 + buf
        addr.ra = 8;
        addr.rb = 11;
        addr.rc = 6;
        prog.push_back(addr);
        for (uint8_t k = 0; k < 4; ++k)
            prog.push_back(isa::makeLoad(Opcode::LDG, kA + k, 12,
                                         static_cast<int32_t>(k * row)));
        prog.push_back(isa::makeR2P(kPSeed));
        const size_t first = prog.size();
        for (const Instruction &v : variants(t))
            prog.push_back(v);
        prog.push_back(isa::makeP2R(27));
        const uint8_t outs[5] = {24, 25, 26, kA, 27};
        for (unsigned k = 0; k < 5; ++k)
            prog.push_back(isa::makeStore(
                Opcode::STG, 12, static_cast<int32_t>((4 + k) * row),
                outs[k]));
        prog.push_back(isa::makeExit());

        const uint64_t entry = place(gpu, prog);
        gpu.launch(oneWarp(entry));
        Result r;
        r.words.resize(5 * kLanes);
        gpu.memory().read(buf + 4 * row, r.words.data(),
                          r.words.size() * 4);

        sim::CodeCache cc(gpu.memory(), gpu.family());
        const sim::Trace *tr = cc.trace(*cc.acquire(entry), entry);
        const uint64_t pc0 = entry + first * isa::instrBytes(gpu.family());
        if (tr)
            for (const sim::StripRun &run : tr->strips)
                for (const sim::StripOp &op : run.ops)
                    r.on_strip = r.on_strip || op.pc == pc0;
        return r;
    }
};

TEST_F(AluTableDiffTest, EveryRowMatchesAcrossEnginesOnEdgeOperands)
{
    using isa::CmpOp;
    using isa::DType;
    const uint8_t imm = isa::kModImmSrc2;
    const uint8_t mx = isa::kModMnmxMax;
    const uint8_t s32 = isa::modSetDType(0, DType::S32);
    const uint8_t u32 = isa::modSetDType(0, DType::U32);
    const int64_t kImms[] = {33, -1, INT32_MIN, 0x7f800000};

    struct Case {
        Instruction in;
        bool strip = true; ///< expected on the strip path
    };
    std::vector<Case> cases;
    auto add = [&](Instruction in, bool strip = true) {
        cases.push_back({in, strip});
    };
    // Register forms of every two-/three-source row.
    for (Opcode op : {Opcode::IADD, Opcode::ISUB, Opcode::IMUL,
                      Opcode::AND, Opcode::OR, Opcode::XOR, Opcode::SHL,
                      Opcode::FADD, Opcode::FMUL, Opcode::IMAD,
                      Opcode::FFMA, Opcode::NOT, Opcode::POPC})
        add(alu(op));
    add(alu(Opcode::SHR, u32));
    add(alu(Opcode::SHR, s32));
    for (uint8_t m : {uint8_t(0), mx}) {
        add(alu(Opcode::IMNMX, u32 | m));
        add(alu(Opcode::IMNMX, s32 | m));
        add(alu(Opcode::FMNMX, m));
    }
    for (isa::MufuOp f :
         {isa::MufuOp::RCP, isa::MufuOp::SQRT, isa::MufuOp::RSQ,
          isa::MufuOp::EX2, isa::MufuOp::LG2, isa::MufuOp::SIN,
          isa::MufuOp::COS})
        add(alu(Opcode::MUFU, isa::modSetMufu(0, f)));
    for (uint8_t dt : {u32, s32}) {
        add(alu(Opcode::I2F, dt));
        add(alu(Opcode::F2I, dt));
    }
    add(alu(Opcode::MOV));
    add(alu(Opcode::MOV, imm, INT32_MIN));
    add(alu(Opcode::LUI, 0, 0xffff));
    for (uint8_t p : {uint8_t(0), uint8_t(5), isa::kPredT})
        for (bool neg : {false, true})
            add(alu(Opcode::SEL, isa::modSetSelPred(0, p, neg)));
    add(alu(Opcode::P2R));
    add(alu(Opcode::R2P));
    // Immediate second sources, shift counts >= 32 included.
    for (int64_t v : kImms) {
        for (Opcode op : {Opcode::IADD, Opcode::ISUB, Opcode::IMUL,
                          Opcode::AND, Opcode::OR, Opcode::XOR,
                          Opcode::SHL, Opcode::FADD, Opcode::FMUL,
                          Opcode::FMNMX})
            add(alu(op, imm, v));
        add(alu(Opcode::SHR, s32 | imm, v));
        add(alu(Opcode::IMNMX, s32 | imm | mx, v));
    }
    // Every compare op, register and immediate forms.
    for (CmpOp c : {CmpOp::LT, CmpOp::EQ, CmpOp::LE, CmpOp::GT, CmpOp::NE,
                    CmpOp::GE}) {
        const uint8_t m = isa::modSetCmp(0, c);
        const uint8_t mi = isa::modSetCmp(isa::kModSetpImm, c);
        add(alu(Opcode::ISETP, isa::modSetSetpDType(m, DType::U32)));
        add(alu(Opcode::ISETP, isa::modSetSetpDType(m, DType::S32)));
        add(alu(Opcode::FSETP, m));
        add(alu(Opcode::ISETP, isa::modSetSetpDType(mi, DType::U32),
                0xffffffffll));
        add(alu(Opcode::ISETP, isa::modSetSetpDType(mi, DType::U32), -1));
        // FSETP converts the immediate numerically (3 -> 3.0f).
        add(alu(Opcode::FSETP, mi, 3));
        add(alu(Opcode::FSETP, mi, -(1ll << 40)));
        // ISETP.S32 compares the full signed immediate: inside int32
        // range it is a table row, outside it stays off the strip path.
        add(alu(Opcode::ISETP, isa::modSetSetpDType(mi, DType::S32),
                INT32_MIN));
        add(alu(Opcode::ISETP, isa::modSetSetpDType(mi, DType::S32),
                0x80000000ll),
            false);
        add(alu(Opcode::ISETP, isa::modSetSetpDType(mi, DType::S32),
                -(1ll << 40)),
            false);
    }

    std::set<sim::AluOp> rows;
    std::set<std::pair<sim::AluOp, uint8_t>> cmps;
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(isa::opcodeName(c.in.op)) + " mod=" +
                     std::to_string(c.in.mod) +
                     " imm=" + std::to_string(c.in.imm));
        sim::AluShape shape;
        if (sim::aluShape(c.in, shape)) {
            rows.insert(shape.op);
            if (isSetp(c.in))
                cmps.emplace(shape.op, static_cast<uint8_t>(
                                           sim::setpCmp(shape.aux)));
        }
        Result base = run(c.in, false);
        Result traced = run(c.in, true);
        EXPECT_EQ(traced.on_strip, c.strip);
        ASSERT_EQ(base.words.size(), traced.words.size());
        for (size_t i = 0; i < base.words.size(); ++i)
            EXPECT_EQ(base.words[i], traced.words[i])
                << "output row " << i / kLanes << " lane " << i % kLanes;
    }
    EXPECT_EQ(rows.size(), static_cast<size_t>(sim::AluOp::NumOps))
        << "a table row has no case";
    EXPECT_EQ(cmps.size(), 3u * 6u) << "a compare op has no case";
}

TEST_F(AluTableDiffTest, EdgeOperandSpotChecks)
{
    // Both engines could agree on a wrong answer; pin a few values.
    auto lanes = [&](const Instruction &in) {
        Result r = run(in, true);
        EXPECT_TRUE(r.on_strip);
        EXPECT_EQ(r.words, run(in, false).words);
        return std::vector<uint32_t>(r.words.begin(),
                                     r.words.begin() + kLanes);
    };
    const uint8_t s32 = isa::modSetDType(0, isa::DType::S32);
    const uint8_t u32 = isa::modSetDType(0, isa::DType::U32);
    auto f2i_s = lanes(alu(Opcode::F2I, s32));
    EXPECT_EQ(f2i_s[0], 0u);           // NaN
    EXPECT_EQ(f2i_s[4], 0x7fffffffu);  // +inf saturates
    EXPECT_EQ(f2i_s[5], 0x80000000u);  // -inf saturates
    EXPECT_EQ(f2i_s[8], 0x7fffffffu);  // 2^31
    EXPECT_EQ(f2i_s[9], 2147483520u);  // largest float below 2^31
    EXPECT_EQ(f2i_s[10], 0x80000000u); // -2^31
    auto f2i_u = lanes(alu(Opcode::F2I, u32));
    EXPECT_EQ(f2i_u[12], 0xffffffffu); // 2^32 saturates
    EXPECT_EQ(f2i_u[14], 0u);          // -1.0f clamps to 0
    // Shift counts use the low five bits: 33 shifts by 1.
    auto shl = lanes(alu(Opcode::SHL, isa::kModImmSrc2, 33));
    for (unsigned l = 0; l < kLanes; ++l)
        EXPECT_EQ(shl[l], kEdge[l] << 1) << l;
}

} // namespace
} // namespace nvbit
