/**
 * @file
 * Microbenchmarks (google-benchmark) for the substrate and the NVBit
 * core primitives whose costs compose the paper's Section 5.2
 * decomposition: encoding/decoding, disassembly, PTX compilation,
 * module (de)serialisation, code-swap memcpys, cache-model lookups and
 * raw simulator execution throughput.
 *
 * Besides the google-benchmark suite, main() runs a direct comparison
 * of the execution-engine configurations ({serial, parallel} x
 * {byte-decode, predecode}, sampled, traced) and writes the timings,
 * decode-cache hit/miss counts and a host fingerprint to
 * BENCH_micro_core.json.
 */
#include <benchmark/benchmark.h>
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_json.hpp"
#include "common/timer.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "driver/module_image.hpp"
#include "isa/arch.hpp"
#include "ptx/compiler.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"

namespace {

using namespace nvbit;

std::vector<isa::Instruction>
sampleProgram(size_t n)
{
    std::vector<isa::Instruction> prog;
    for (size_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            prog.push_back(isa::makeIAddImm(4, 5, static_cast<int>(i)));
            break;
          case 1:
            prog.push_back(isa::makeLoad(isa::Opcode::LDG, 6, 8,
                                         static_cast<int>(i) * 4));
            break;
          case 2:
            prog.push_back(isa::makeMovImm(7, 123));
            break;
          default:
            prog.push_back(isa::makeBra(-8, 2, false));
            break;
        }
    }
    return prog;
}

void
BM_EncodeDecode(benchmark::State &state)
{
    auto fam = static_cast<isa::ArchFamily>(state.range(0));
    auto prog = sampleProgram(1024);
    auto bytes = isa::encodeAll(fam, prog);
    const size_t ib = isa::instrBytes(fam);
    for (auto _ : state) {
        isa::Instruction out;
        for (size_t i = 0; i < prog.size(); ++i) {
            isa::decode(fam, bytes.data() + i * ib, out);
            benchmark::DoNotOptimize(out);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_EncodeDecode)->Arg(0)->Arg(1);

void
BM_Disassemble(benchmark::State &state)
{
    auto prog = sampleProgram(1024);
    for (auto _ : state) {
        for (const auto &in : prog) {
            std::string s = in.toString();
            benchmark::DoNotOptimize(s);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_Disassemble);

const char *kPtxSample = R"(
.visible .entry k(.param .u64 A, .param .u64 B, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [A];
    mul.wide.u32 %rd2, %r3, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    mul.f32 %f2, %f1, 2.0;
    ld.param.u64 %rd4, [B];
    add.u64 %rd5, %rd4, %rd2;
    st.global.f32 [%rd5], %f2;
DONE:
    exit;
}
)";

void
BM_PtxCompile(benchmark::State &state)
{
    for (auto _ : state) {
        ptx::CompiledModule m =
            ptx::compile(kPtxSample, isa::ArchFamily::SM5x);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_PtxCompile);

void
BM_ModuleSerializeRoundTrip(benchmark::State &state)
{
    ptx::CompiledModule m =
        ptx::compile(kPtxSample, isa::ArchFamily::SM5x);
    for (auto _ : state) {
        std::vector<uint8_t> img = cudrv::serializeModule(m);
        cudrv::ModuleData out;
        bool ok = cudrv::deserializeModule(img.data(), img.size(), out);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_ModuleSerializeRoundTrip);

void
BM_CodeSwapMemcpy(benchmark::State &state)
{
    // Paper: swap cost == cudaMemcpy of the function's code bytes.
    sim::GpuConfig cfg;
    cfg.mem_bytes = 16 << 20;
    sim::GpuDevice gpu(cfg);
    size_t bytes = static_cast<size_t>(state.range(0));
    mem::DevPtr p = gpu.memory().alloc(bytes, 16);
    std::vector<uint8_t> host(bytes, 0xAB);
    for (auto _ : state) {
        gpu.memory().write(p, host.data(), bytes);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CodeSwapMemcpy)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

void
BM_CacheModel(benchmark::State &state)
{
    sim::Cache cache({128 * 1024, 4, 128});
    uint64_t addr = 0;
    for (auto _ : state) {
        addr += 128 * 7;
        benchmark::DoNotOptimize(cache.access(addr & ~uint64_t{127}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModel);

/**
 * Place the throughput kernel (64 ALU ops in a counted loop of 256
 * iterations) into @p gpu and return its launch parameters
 * (block 256, grid 4).
 */
sim::LaunchParams
placeLoopKernel(sim::GpuDevice &gpu, uint32_t block = 256)
{
    std::vector<isa::Instruction> prog;
    prog.push_back(isa::makeMovImm(4, 0));
    prog.push_back(isa::makeMovImm(5, 256));
    size_t loop_start = prog.size();
    for (int i = 0; i < 64; ++i)
        prog.push_back(isa::makeIAddImm(4, 4, 1));
    prog.push_back(isa::makeIAddImm(5, 5, -1));
    isa::Instruction setp;
    setp.op = isa::Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::GT),
        isa::DType::U32);
    setp.rd = 0;
    setp.ra = 5;
    setp.imm = 0;
    prog.push_back(setp);
    int64_t back = -static_cast<int64_t>(
        (prog.size() + 1 - loop_start) *
        isa::instrBytes(gpu.family()));
    prog.push_back(isa::makeBra(back, 0, false));
    prog.push_back(isa::makeExit());

    auto bytes = isa::encodeAll(gpu.family(), prog);
    mem::DevPtr entry = gpu.memory().alloc(bytes.size(), 16);
    gpu.memory().write(entry, bytes.data(), bytes.size());

    sim::LaunchParams lp;
    lp.entry_pc = entry;
    lp.block[0] = block;
    lp.grid[0] = 4;
    return lp;
}

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Raw warp-instruction execution rate of the SIMT engine.
    sim::GpuConfig cfg;
    cfg.mem_bytes = 16 << 20;
    sim::GpuDevice gpu(cfg);
    sim::LaunchParams lp = placeLoopKernel(gpu);

    uint64_t warp_instrs = 0;
    uint64_t hits = 0, misses = 0;
    for (auto _ : state) {
        sim::LaunchStats st = gpu.launch(lp);
        warp_instrs += st.warp_instrs;
        hits += st.decode_cache_hits;
        misses += st.decode_cache_misses;
    }
    state.SetItemsProcessed(static_cast<int64_t>(warp_instrs));
    state.counters["thread_instr_rate"] = benchmark::Counter(
        static_cast<double>(warp_instrs) * 32.0,
        benchmark::Counter::kIsRate);
    state.counters["decode_cache_hits"] =
        benchmark::Counter(static_cast<double>(hits));
    state.counters["decode_cache_misses"] =
        benchmark::Counter(static_cast<double>(misses));
}
BENCHMARK(BM_SimulatorThroughput);

// ---------------------------------------------------------------------
// Engine-configuration comparison (BENCH_micro_core.json)
// ---------------------------------------------------------------------

struct EngineResult {
    const char *name;
    const char *kernel;
    sim::ExecMode mode;
    bool predecode;
    bool traces = false;
    double ms_per_launch = 0.0;
    double warp_mips = 0.0;
    uint64_t warp_instrs = 0;
    uint64_t decode_cache_hits = 0;
    uint64_t decode_cache_misses = 0;
    uint64_t pages_built = 0;
};

EngineResult
runEngine(const char *name, sim::ExecMode mode, bool predecode,
          uint32_t block, const char *kernel, int reps,
          uint64_t sample_period = 0, bool traces = false)
{
    sim::GpuConfig cfg;
    cfg.mem_bytes = 16 << 20;
    cfg.exec_mode = mode;
    cfg.use_predecode = predecode;
    cfg.use_traces = traces;
    cfg.pc_sample_period = sample_period;
    sim::GpuDevice gpu(cfg);
    sim::LaunchParams lp = placeLoopKernel(gpu, block);

    gpu.launch(lp); // warm-up (predecode pages, pool threads, traces)

    // Min over repetitions: robust against scheduler noise on a
    // loaded machine (any one launch can only be slowed down).
    EngineResult r{name, kernel, mode, predecode, traces, 0, 0, 0, 0, 0, 0};
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < reps; ++i) {
        uint64_t t0 = nowNs();
        sim::LaunchStats st = gpu.launch(lp);
        uint64_t elapsed = nowNs() - t0;
        if (elapsed < best)
            best = elapsed;
        r.warp_instrs = st.warp_instrs;
        r.decode_cache_hits = st.decode_cache_hits;
        r.decode_cache_misses = st.decode_cache_misses;
    }
    r.ms_per_launch = static_cast<double>(best) / 1e6;
    r.warp_mips = static_cast<double>(r.warp_instrs) /
                  (static_cast<double>(best) / 1e3);
    r.pages_built = gpu.codeCache().pagesBuilt();
    return r;
}

/**
 * The host as a JSON object: online CPUs, CPU model and build type.
 * Absolute warp-MIPS rows compare only between runs that share it.
 */
std::string
hostFingerprint()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    return "{\"nproc\": " + std::to_string(nproc) + ", \"cpu\": " +
           bench::jStr(cpu) + ", \"build\": " +
           bench::jStr(MICRO_CORE_BUILD_TYPE) + "}";
}

void
emitEngineComparison()
{
    // Two kernels: "throughput" is backend-bound (32 active lanes per
    // warp instruction, execution dominates); "frontend" runs one lane
    // per warp so fetch+decode is a large fraction of the per-warp-
    // instruction cost — it isolates what the predecode cache removes.
    const EngineResult results[] = {
        runEngine("serial_bytedecode", sim::ExecMode::Serial, false, 256,
                  "throughput", 5),
        runEngine("serial_predecode", sim::ExecMode::Serial, true, 256,
                  "throughput", 5),
        runEngine("parallel_bytedecode", sim::ExecMode::Parallel, false,
                  256, "throughput", 5),
        runEngine("parallel_predecode", sim::ExecMode::Parallel, true,
                  256, "throughput", 5),
        runEngine("serial_bytedecode", sim::ExecMode::Serial, false, 1,
                  "frontend", 40),
        runEngine("serial_predecode", sim::ExecMode::Serial, true, 1,
                  "frontend", 40),
        // PC sampling enabled on the default engine: the disabled cost
        // must stay one relaxed load in the scheduler hot loop, so the
        // throughput ratio vs row [3] bounds the sampling machinery.
        runEngine("parallel_predecode_sampled", sim::ExecMode::Parallel,
                  true, 256, "throughput", 5, 1000),
        // Trace-compiled threaded-code engine: superblocks of the hot
        // loop body execute as pre-bound handler arrays.  The serial
        // row against row [1] is the trace_speedup acceptance ratio.
        runEngine("serial_traced", sim::ExecMode::Serial, true, 256,
                  "throughput", 5, 0, true),
        runEngine("parallel_traced", sim::ExecMode::Parallel, true, 256,
                  "throughput", 5, 0, true),
    };

    std::printf("\nExecution-engine comparison (loop kernel, grid 4)\n");
    std::printf("%-12s %-22s %12s %12s %14s %14s\n", "kernel", "engine",
                "ms/launch", "warp MIPS", "decode hits",
                "decode misses");
    for (const auto &r : results)
        std::printf("%-12s %-22s %12.3f %12.2f %14llu %14llu\n",
                    r.kernel, r.name, r.ms_per_launch, r.warp_mips,
                    static_cast<unsigned long long>(r.decode_cache_hits),
                    static_cast<unsigned long long>(r.decode_cache_misses));

    const char *path = "BENCH_micro_core.json";
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"host\": %s,\n  \"engine_comparison\": [\n",
                 hostFingerprint().c_str());
    size_t n = sizeof(results) / sizeof(results[0]);
    for (size_t i = 0; i < n; ++i) {
        const auto &r = results[i];
        std::fprintf(
            f,
            "    {\"engine\": \"%s\", \"kernel\": \"%s\", "
            "\"exec_mode\": \"%s\", "
            "\"predecode\": %s, \"traces\": %s, \"ms_per_launch\": %.3f, "
            "\"warp_mips\": %.2f, \"warp_instrs\": %llu, "
            "\"decode_cache_hits\": %llu, "
            "\"decode_cache_misses\": %llu, \"pages_built\": %llu}%s\n",
            r.name, r.kernel,
            r.mode == sim::ExecMode::Serial ? "serial" : "parallel",
            r.predecode ? "true" : "false", r.traces ? "true" : "false",
            r.ms_per_launch, r.warp_mips,
            static_cast<unsigned long long>(r.warp_instrs),
            static_cast<unsigned long long>(r.decode_cache_hits),
            static_cast<unsigned long long>(r.decode_cache_misses),
            static_cast<unsigned long long>(r.pages_built),
            i + 1 < n ? "," : "");
    }
    auto ratio = [](const EngineResult &a, const EngineResult &b) {
        return b.ms_per_launch > 0 ? a.ms_per_launch / b.ms_per_launch
                                   : 0.0;
    };
    double sp_default = ratio(results[0], results[3]);
    double sp_pre_tp = ratio(results[0], results[1]);
    double sp_pre_fe = ratio(results[4], results[5]);
    double samp_ovh = ratio(results[6], results[3]);
    double sp_trace = ratio(results[1], results[7]);
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_default_vs_reference\": %.3f,\n"
                 "  \"speedup_predecode_throughput\": %.3f,\n"
                 "  \"speedup_predecode_frontend\": %.3f,\n"
                 "  \"sampling_overhead_throughput\": %.3f,\n"
                 "  \"trace_speedup\": %.3f\n}\n",
                 sp_default, sp_pre_tp, sp_pre_fe, samp_ovh, sp_trace);
    std::fclose(f);
    std::printf("wrote %s (predecode speedup: %.2fx throughput kernel, "
                "%.2fx frontend kernel; default engine vs reference: "
                "%.2fx; trace speedup: %.2fx)\n",
                path, sp_pre_tp, sp_pre_fe, sp_default, sp_trace);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    emitEngineComparison();
    return 0;
}
