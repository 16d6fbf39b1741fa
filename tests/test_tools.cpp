/**
 * @file
 * Tests for the bundled NVBit tools, validated against the simulator's
 * native statistics (oracles) and host-side reference computations.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "tools/instr_count.hpp"
#include "tools/mem_divergence.hpp"
#include "tools/mem_trace.hpp"
#include "tools/opcode_histogram.hpp"
#include "tools/wfft_emulator.hpp"

namespace nvbit::tools {
namespace {

using namespace cudrv;

/** Strided-load kernel: out[i] = in[i * stride] (words). */
const char *kStrideKernel = R"(
.visible .entry stride_read(.param .u64 in, .param .u64 out,
                            .param .u32 stride, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    ld.param.u32 %r5, [stride];
    mul.lo.u32 %r6, %r3, %r5;
    ld.param.u64 %rd1, [in];
    mul.wide.u32 %rd2, %r6, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    ld.param.u64 %rd4, [out];
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd6, %rd4, %rd5;
    st.global.f32 [%rd6], %f1;
DONE:
    exit;
}
)";

struct StrideApp {
    uint32_t n = 256;
    uint32_t stride = 1;
    sim::LaunchStats stats;
    CUfunction fn = nullptr;

    void
    operator()() const
    {
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kStrideKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "stride_read"), "get");
        CUdeviceptr in, out;
        checkCu(cuMemAlloc(&in, static_cast<size_t>(n) * stride * 4 + 4),
                "alloc");
        checkCu(cuMemAlloc(&out, n * 4), "alloc");
        void *params[] = {&in, &out,
                          const_cast<uint32_t *>(&stride),
                          const_cast<uint32_t *>(&n)};
        checkCu(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                               nullptr, params, nullptr),
                "launch");
        const_cast<StrideApp *>(this)->stats = lastLaunchStats();
        const_cast<StrideApp *>(this)->fn = fn;
    }
};

class PassiveTool : public NvbitTool
{};

class ToolsTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetDriver(); }
    void TearDown() override { resetDriver(); }
};

TEST_F(ToolsTest, InstrCountMatchesOracleOnDivergentKernel)
{
    StrideApp app;
    app.n = 300; // partial last warp -> divergence at the guard
    sim::LaunchStats native;
    {
        PassiveTool p;
        runApp(p, [&] {
            app();
            native = app.stats;
        });
    }
    InstrCountTool tool;
    uint64_t threads = 0, warps = 0;
    runApp(tool, [&] {
        app();
        threads = tool.threadInstrs();
        warps = tool.warpInstrs();
    });
    EXPECT_EQ(threads, native.thread_instrs);
    EXPECT_EQ(warps, native.warp_instrs);
}

/** Exposes which functions the tool still counts as instrumented. */
class SeenProbeTool : public InstrCountTool
{
  public:
    using InstrCountTool::alreadyInstrumented;
};

TEST_F(ToolsTest, InstrCountToolReusedAcrossRunsCountsEveryRun)
{
    // One tool object over two runApp rounds.  resetDriver frees round
    // 1's kernel without callbacks, so round 2's kernel can reuse its
    // CUfunc_st address; it must still be instrumented.  Whether the
    // allocator reuses the address is not up to the test, so it also
    // checks that the dead function is forgotten by the time the
    // driver is initialised again.
    StrideApp app;
    SeenProbeTool tool;
    uint64_t counts[2] = {0, 0};
    CUfunction round1 = nullptr;
    for (uint64_t &c : counts)
        runApp(tool, [&] {
            checkCu(cuInit(0), "init");
            if (round1 != nullptr) {
                EXPECT_FALSE(tool.alreadyInstrumented(round1));
            }
            app();
            EXPECT_TRUE(tool.alreadyInstrumented(app.fn));
            c = tool.threadInstrs();
            round1 = app.fn;
        });
    EXPECT_GT(counts[0], 0u);
    EXPECT_EQ(counts[1], counts[0]);
}

TEST_F(ToolsTest, ToolForgetsFunctionsOfUnloadedModulesAndDestroyedContexts)
{
    StrideApp app;
    SeenProbeTool tool;
    runApp(tool, [&] {
        app();
        CUfunction fn = app.fn;
        ASSERT_TRUE(tool.alreadyInstrumented(fn));
        checkCu(cuModuleUnload(fn->mod), "unload");
        EXPECT_FALSE(tool.alreadyInstrumented(fn));

        app();
        fn = app.fn;
        ASSERT_TRUE(tool.alreadyInstrumented(fn));
        CUcontext ctx = nullptr;
        checkCu(cuCtxGetCurrent(&ctx), "current");
        checkCu(cuCtxDestroy(ctx), "destroy");
        EXPECT_FALSE(tool.alreadyInstrumented(fn));
    });
}

TEST_F(ToolsTest, MemDivergenceCoalescedIsFourSectorsPerAccess)
{
    StrideApp app;
    app.n = 256;
    app.stride = 1;
    MemDivergenceTool tool;
    uint64_t instrs = 0, sectors = 0;
    runApp(tool, [&] {
        app();
        instrs = tool.memInstrs();
        sectors = tool.uniqueSectors();
    });
    // 8 warps x (1 load + 1 store), all fully coalesced: 32 lanes x
    // 4 bytes span 128 B = 4 distinct 32-byte sectors per access.
    EXPECT_EQ(instrs, 16u);
    EXPECT_EQ(sectors, 64u);
}

TEST_F(ToolsTest, MemDivergenceMatchesSimulatorOracle)
{
    for (uint32_t stride : {1u, 2u, 8u, 32u, 33u}) {
        StrideApp app;
        app.n = 256;
        app.stride = stride;
        sim::LaunchStats native;
        {
            PassiveTool p;
            runApp(p, [&] {
                app();
                native = app.stats;
            });
        }
        MemDivergenceTool tool;
        uint64_t instrs = 0, sectors = 0;
        runApp(tool, [&] {
            app();
            instrs = tool.memInstrs();
            sectors = tool.uniqueSectors();
        });
        EXPECT_EQ(instrs, native.global_mem_warp_instrs)
            << "stride " << stride;
        EXPECT_EQ(sectors, native.unique_sectors_sum)
            << "stride " << stride;
    }
}

TEST_F(ToolsTest, FunctionFilterExcludesKernels)
{
    StrideApp app;
    MemDivergenceTool tool;
    tool.setFunctionFilter([](CUfunction) { return false; });
    uint64_t instrs = 1;
    runApp(tool, [&] {
        app();
        instrs = tool.memInstrs();
    });
    EXPECT_EQ(instrs, 0u);
}

TEST_F(ToolsTest, HistogramFullModeMatchesOraclePerOpcode)
{
    StrideApp app;
    app.n = 500;
    sim::LaunchStats native;
    {
        PassiveTool p;
        runApp(p, [&] {
            app();
            native = app.stats;
        });
    }
    OpcodeHistogramTool tool(OpcodeHistogramTool::Mode::Full);
    OpcodeCounts counts{};
    runApp(tool, [&] {
        app();
        counts = tool.counts();
    });
    for (size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts[i], native.thread_instrs_by_op[i])
            << isa::opcodeName(static_cast<isa::Opcode>(i));
    }
    auto top = tool.topN(5);
    ASSERT_FALSE(top.empty());
    EXPECT_GE(top[0].second, top.back().second);
}

TEST_F(ToolsTest, HistogramSamplingIsExactForGridDeterminedControlFlow)
{
    // Launch the same kernel many times with two distinct configs;
    // sampling instruments one launch per config and must reproduce
    // the exact histogram (paper: 0% error when control flow is a
    // function of the grid dimensions only).
    auto multiLaunch = [] {
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kStrideKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "stride_read"), "get");
        CUdeviceptr in, out;
        checkCu(cuMemAlloc(&in, 4096 * 4), "alloc");
        checkCu(cuMemAlloc(&out, 4096 * 4), "alloc");
        uint32_t stride = 1;
        for (int rep = 0; rep < 5; ++rep) {
            for (uint32_t n : {256u, 1024u}) {
                void *params[] = {&in, &out, &stride, &n};
                checkCu(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128,
                                       1, 1, 0, nullptr, params,
                                       nullptr),
                        "launch");
            }
        }
    };

    OpcodeCounts exact{};
    {
        OpcodeHistogramTool full(OpcodeHistogramTool::Mode::Full);
        runApp(full, [&] {
            multiLaunch();
            exact = full.counts();
        });
    }
    OpcodeHistogramTool sampled(
        OpcodeHistogramTool::Mode::SampleGridDim);
    OpcodeCounts approx{};
    uint64_t inst = 0, total = 0;
    runApp(sampled, [&] {
        multiLaunch();
        approx = sampled.counts();
        inst = sampled.instrumentedLaunches();
        total = sampled.totalLaunches();
    });
    EXPECT_EQ(total, 10u);
    EXPECT_EQ(inst, 2u); // one per unique grid configuration
    EXPECT_EQ(approx, exact);
    EXPECT_EQ(OpcodeHistogramTool::shareErrorPct(exact, approx), 0.0);
}

// --- WFFT32 emulation -------------------------------------------------------

const char *kFftKernel = R"(
.visible .entry fftk(.param .u64 re_in, .param .u64 im_in,
                     .param .u64 re_out, .param .u64 im_out)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<12>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd1, %r1, 4;
    ld.param.u64 %rd2, [re_in];
    add.u64 %rd3, %rd2, %rd1;
    ld.global.u32 %r2, [%rd3];
    ld.param.u64 %rd4, [im_in];
    add.u64 %rd5, %rd4, %rd1;
    ld.global.u32 %r3, [%rd5];
    // Pack (im:re) into one 64-bit register pair.
    cvt.u64.u32 %rd6, %r2;
    cvt.u64.u32 %rd7, %r3;
    shl.b64 %rd7, %rd7, 32;
    add.u64 %rd8, %rd6, %rd7;
    // The hypothetical warp-wide FFT instruction.
    proxyop.b64 %rd9, %rd8, 32;
    // Unpack and store.
    cvt.u32.u64 %r4, %rd9;
    shr.u64 %rd10, %rd9, 32;
    cvt.u32.u64 %r5, %rd10;
    ld.param.u64 %rd2, [re_out];
    add.u64 %rd3, %rd2, %rd1;
    st.global.u32 [%rd3], %r4;
    ld.param.u64 %rd4, [im_out];
    add.u64 %rd5, %rd4, %rd1;
    st.global.u32 [%rd5], %r5;
    exit;
}
)";

TEST_F(ToolsTest, WfftEmulationMatchesHostDft)
{
    std::vector<float> re(32), im(32);
    for (int i = 0; i < 32; ++i) {
        re[i] = std::cos(0.3f * static_cast<float>(i)) +
                0.1f * static_cast<float>(i);
        im[i] = std::sin(0.15f * static_cast<float>(i));
    }

    std::vector<float> out_re(32), out_im(32);
    WfftEmulatorTool tool;
    runApp(tool, [&] {
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kFftKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "fftk"), "get");
        CUdeviceptr dri, dii, dro, dio;
        checkCu(cuMemAlloc(&dri, 128), "a");
        checkCu(cuMemAlloc(&dii, 128), "a");
        checkCu(cuMemAlloc(&dro, 128), "a");
        checkCu(cuMemAlloc(&dio, 128), "a");
        checkCu(cuMemcpyHtoD(dri, re.data(), 128), "h2d");
        checkCu(cuMemcpyHtoD(dii, im.data(), 128), "h2d");
        void *params[] = {&dri, &dii, &dro, &dio};
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0, nullptr,
                               params, nullptr),
                "launch");
        checkCu(cuMemcpyDtoH(out_re.data(), dro, 128), "d2h");
        checkCu(cuMemcpyDtoH(out_im.data(), dio, 128), "d2h");
    });
    EXPECT_EQ(tool.proxiesEmulated(), 1);

    // Host reference DFT: X[k] = sum_n x[n] * exp(-2*pi*i*k*n/32).
    for (int k = 0; k < 32; ++k) {
        std::complex<double> acc{0.0, 0.0};
        for (int n = 0; n < 32; ++n) {
            double ang = -2.0 * M_PI * k * n / 32.0;
            acc += std::complex<double>(re[n], im[n]) *
                   std::complex<double>(std::cos(ang), std::sin(ang));
        }
        EXPECT_NEAR(out_re[k], acc.real(), 1e-3) << "bin " << k;
        EXPECT_NEAR(out_im[k], acc.imag(), 1e-3) << "bin " << k;
    }
}

TEST_F(ToolsTest, MemTraceCapturesEveryAccessAddress)
{
    StrideApp app;
    app.n = 64;
    app.stride = 2;
    MemTraceTool tool;
    std::vector<uint64_t> trace;
    tool.setConsumer([&](const std::vector<uint64_t> &addrs) {
        trace.insert(trace.end(), addrs.begin(), addrs.end());
    });
    runApp(tool, [&] { app(); });

    // 64 threads x (1 load + 1 store), none dropped.
    EXPECT_EQ(tool.recorded(), 128u);
    EXPECT_EQ(tool.dropped(), 0u);
    ASSERT_EQ(trace.size(), 128u);

    // The load addresses must be stride-2 words apart: collect the
    // differences between sorted unique addresses.
    std::sort(trace.begin(), trace.end());
    // All addresses are 4-byte aligned.
    for (uint64_t a : trace)
        EXPECT_EQ(a % 4, 0u);
}

} // namespace
} // namespace nvbit::tools
