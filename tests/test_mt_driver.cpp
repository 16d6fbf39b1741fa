/**
 * @file
 * Multi-tenant driver-service suite: streams, events, async copies,
 * legacy null-stream ordering, bounded-queue backpressure, fault-domain
 * isolation (watchdog -> sticky error -> reset recovery), GPU pooling,
 * per-tenant metrics, a threads-x-contexts stress test (run under TSan
 * in CI), engine-config determinism and the adversarial-tenant chaos
 * campaign.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "driver/internal.hpp"
#include "obs/metrics.hpp"
#include "tools/fault_injection.hpp"
#include "tools/instr_count.hpp"

namespace nvbit::cudrv {
namespace {

const char *kVecAdd = R"(
.visible .entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C,
                       .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r4, %r1, %r2, %tid.x;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    mul.wide.u32 %rd4, %r4, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd6, %rd2, %rd4;
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    add.u64 %rd7, %rd3, %rd4;
    st.global.f32 [%rd7], %f3;
DONE:
    exit;
}
)";

/** out[0] = sum(0..n-1), by a serial loop — a deliberately slow
 *  single-thread kernel for queue-occupancy tests. */
const char *kSlowSum = R"(
.visible .entry slowsum(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, 0;
    mov.u32 %r2, 0;
LOOP:
    add.u32 %r1, %r1, %r2;
    add.u32 %r2, %r2, 1;
    ld.param.u32 %r3, [n];
    setp.lt.u32 %p1, %r2, %r3;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

/** Infinite loop: only the cycle watchdog ends it. */
const char *kHang = R"(
.visible .entry hang()
{
LOOP:
    bra LOOP;
    exit;
}
)";

CUfunction
loadKernel(const char *ptx, const char *name)
{
    CUmodule mod = nullptr;
    EXPECT_EQ(cuModuleLoadData(&mod, ptx, 0), CUDA_SUCCESS);
    CUfunction fn = nullptr;
    EXPECT_EQ(cuModuleGetFunction(&fn, mod, name), CUDA_SUCCESS);
    return fn;
}

class MtDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetDriver();
        obs::MetricsRegistry::instance().reset();
        checkCu(cuInit(0), "cuInit");
        checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
    }

    void
    TearDown() override
    {
        resetDriver();
        ::unsetenv("NVBIT_SIM_STREAM_QUEUE_DEPTH");
        ::unsetenv("NVBIT_SIM_GPU_POOL");
        ::unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
        ::unsetenv("NVBIT_SIM_COLD_LAUNCH");
        ::unsetenv("NVBIT_SIM_EXEC");
        ::unsetenv("NVBIT_SIM_PREDECODE");
        ::unsetenv("NVBIT_SIM_TRACES");
    }

    /** Run vecadd(n) on @p stream and return the output vector. */
    std::vector<float>
    runVecAdd(CUfunction fn, CUstream stream, uint32_t n)
    {
        std::vector<float> a(n), b(n), c(n, 0.0f);
        for (uint32_t i = 0; i < n; ++i) {
            a[i] = static_cast<float>(i);
            b[i] = 2.0f * static_cast<float>(i);
        }
        CUdeviceptr da, db, dc;
        checkCu(cuMemAlloc(&da, n * 4), "alloc");
        checkCu(cuMemAlloc(&db, n * 4), "alloc");
        checkCu(cuMemAlloc(&dc, n * 4), "alloc");
        checkCu(cuMemcpyHtoD(da, a.data(), n * 4), "htod");
        checkCu(cuMemcpyHtoD(db, b.data(), n * 4), "htod");
        void *params[] = {&da, &db, &dc, &n};
        checkCu(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                               stream, params, nullptr),
                "launch");
        if (stream)
            checkCu(cuStreamSynchronize(stream), "sync");
        checkCu(cuMemcpyDtoH(c.data(), dc, n * 4), "dtoh");
        checkCu(cuMemFree(da), "free");
        checkCu(cuMemFree(db), "free");
        checkCu(cuMemFree(dc), "free");
        return c;
    }

    CUcontext ctx_ = nullptr;
};

TEST_F(MtDriverTest, StreamLifecycleAndQuery)
{
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(cuStreamQuery(s), CUDA_SUCCESS);      // idle
    EXPECT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS); // idle sync
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
    // Destroyed handles are invalid everywhere.
    EXPECT_EQ(cuStreamSynchronize(s), CUDA_ERROR_INVALID_HANDLE);
    EXPECT_EQ(cuStreamQuery(s), CUDA_ERROR_INVALID_HANDLE);
    EXPECT_EQ(cuStreamDestroy(s), CUDA_ERROR_INVALID_HANDLE);
}

TEST_F(MtDriverTest, EventLifecycleQueryAndElapsed)
{
    CUevent e1 = nullptr, e2 = nullptr;
    ASSERT_EQ(cuEventCreate(&e1, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuEventCreate(&e2, 0), CUDA_SUCCESS);
    // Never-recorded events are trivially complete (CUDA semantics)…
    EXPECT_EQ(cuEventQuery(e1), CUDA_SUCCESS);
    EXPECT_EQ(cuEventSynchronize(e1), CUDA_SUCCESS);
    // …but elapsed time needs both to have completed a record.
    float ms = -1.0f;
    EXPECT_EQ(cuEventElapsedTime(&ms, e1, e2), CUDA_ERROR_NOT_READY);

    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    ASSERT_EQ(cuEventRecord(e1, nullptr), CUDA_SUCCESS);
    (void)runVecAdd(fn, nullptr, 256);
    ASSERT_EQ(cuEventRecord(e2, nullptr), CUDA_SUCCESS);
    ASSERT_EQ(cuEventSynchronize(e2), CUDA_SUCCESS);
    ASSERT_EQ(cuEventElapsedTime(&ms, e1, e2), CUDA_SUCCESS);
    EXPECT_GE(ms, 0.0f);

    ASSERT_EQ(cuEventDestroy(e1), CUDA_SUCCESS);
    EXPECT_EQ(cuEventRecord(e1, nullptr), CUDA_ERROR_INVALID_HANDLE);
    ASSERT_EQ(cuEventDestroy(e2), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, EventRecordThenImmediateDestroyIsSafe)
{
    // cuEventRecord immediately followed by cuEventDestroy is a legal
    // CUDA sequence even while the record op is still queued or being
    // retired by a worker: the event must never be dereferenced after
    // the destroy (regression: use-after-free caught under ASan/TSan).
    CUfunction fn = loadKernel(kSlowSum, "slowsum");
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    CUdeviceptr out;
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    uint32_t n = 50000;
    void *params[] = {&out, &n};
    // Occupy the stream so records queue behind real work.
    ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, s, params,
                             nullptr),
              CUDA_SUCCESS);
    for (int i = 0; i < 16; ++i) {
        CUevent ev = nullptr;
        ASSERT_EQ(cuEventCreate(&ev, 0), CUDA_SUCCESS);
        ASSERT_EQ(cuEventRecord(ev, s), CUDA_SUCCESS);
        ASSERT_EQ(cuEventDestroy(ev), CUDA_SUCCESS);
    }
    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
    ASSERT_EQ(cuMemFree(out), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, ConcurrentEventRecordAndDestroyIsSafe)
{
    // Record and destroy racing from two host threads: every record
    // either lands (the generation is completed for waiters) or fails
    // with CUDA_ERROR_INVALID_HANDLE — it must never touch the freed
    // event (regression: enqueue validated the handle in one lock
    // acquisition and dereferenced it in another).
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    for (int round = 0; round < 100; ++round) {
        CUevent ev = nullptr;
        ASSERT_EQ(cuEventCreate(&ev, 0), CUDA_SUCCESS);
        std::thread recorder([&] {
            for (int i = 0; i < 8; ++i) {
                CUresult r = cuEventRecord(ev, s);
                if (r != CUDA_SUCCESS &&
                    r != CUDA_ERROR_INVALID_HANDLE)
                    std::abort();
            }
        });
        std::thread destroyer([&] { (void)cuEventDestroy(ev); });
        recorder.join();
        destroyer.join();
    }
    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, StreamDestroyDropsQueuedWaitGates)
{
    // cuStreamDestroy retires the handle and drops queued
    // cuStreamWaitEvent gates so the drain is bounded by real device
    // work — a wait pending behind an incomplete record must not wedge
    // the destroy (real CUDA never blocks destruction on event
    // dependencies).
    CUfunction fn = loadKernel(kSlowSum, "slowsum");
    CUstream prod = nullptr, cons = nullptr;
    ASSERT_EQ(cuStreamCreate(&prod, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamCreate(&cons, 0), CUDA_SUCCESS);
    CUevent ev = nullptr;
    ASSERT_EQ(cuEventCreate(&ev, 0), CUDA_SUCCESS);
    CUdeviceptr out;
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    uint32_t n = 200000;
    void *params[] = {&out, &n};
    ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, prod, params,
                             nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuEventRecord(ev, prod), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamWaitEvent(cons, ev, 0), CUDA_SUCCESS);
    // The consumer's head wait gates on a record still queued behind
    // the slow producer kernel; destruction must complete anyway.
    ASSERT_EQ(cuStreamDestroy(cons), CUDA_SUCCESS);
    EXPECT_EQ(cuStreamQuery(cons), CUDA_ERROR_INVALID_HANDLE);
    ASSERT_EQ(cuStreamSynchronize(prod), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(prod), CUDA_SUCCESS);
    ASSERT_EQ(cuEventDestroy(ev), CUDA_SUCCESS);
    ASSERT_EQ(cuMemFree(out), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, MemFreeRoutesToOwningGpu)
{
    // With a GPU pool, cuMemFree targets the GPU that owns the
    // allocation, not the caller's current context: pool GPUs are
    // independent address spaces, so freeing through the wrong slot
    // could release an unrelated live allocation at the same base.
    resetDriver();
    ::setenv("NVBIT_SIM_GPU_POOL", "2", 1);
    checkCu(cuInit(0), "cuInit");
    CUcontext c0 = nullptr, c1 = nullptr;
    checkCu(cuCtxCreate(&c0, 0, 0), "ctx0");
    checkCu(cuCtxCreate(&c1, 0, 1), "ctx1"); // current is now c1
    const size_t g0_base =
        detail::gpuSlot(0).gpu->memory().bytesAllocated();
    const size_t g1_base =
        detail::gpuSlot(1).gpu->memory().bytesAllocated();
    CUdeviceptr d;
    checkCu(cuMemAlloc(&d, 4096), "alloc on gpu 1");
    EXPECT_GT(detail::gpuSlot(1).gpu->memory().bytesAllocated(),
              g1_base);
    // Free while bound to a context on the *other* GPU.
    checkCu(cuCtxSetCurrent(c0), "switch");
    checkCu(cuMemFree(d), "free from foreign context");
    EXPECT_EQ(detail::gpuSlot(0).gpu->memory().bytesAllocated(),
              g0_base);
    EXPECT_EQ(detail::gpuSlot(1).gpu->memory().bytesAllocated(),
              g1_base);
    checkCu(cuCtxDestroy(c1), "dtor");
    checkCu(cuCtxDestroy(c0), "dtor");
    checkCu(cuCtxCreate(&ctx_, 0, 0), "ctx"); // TearDown expects one
}

TEST_F(MtDriverTest, AsyncCopyRoundtripOnExplicitStream)
{
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    const uint32_t n = 1024;
    std::vector<uint32_t> src(n), dst(n, 0);
    for (uint32_t i = 0; i < n; ++i)
        src[i] = i * 2654435761u;
    CUdeviceptr d;
    ASSERT_EQ(cuMemAlloc(&d, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoDAsync(d, src.data(), n * 4, s), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoHAsync(dst.data(), d, n * 4, s), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    EXPECT_EQ(src, dst);

    // Copy engines surface faults at synchronisation, poison-free for
    // other contexts but sticky for the misused stream's result.
    ASSERT_EQ(cuMemcpyDtoHAsync(dst.data(), 0xFFFFFFFF0000ull, 64, s),
              CUDA_SUCCESS);
    EXPECT_EQ(cuStreamSynchronize(s), CUDA_ERROR_ILLEGAL_ADDRESS);
    // The deferred error is consumed by that synchronisation.
    EXPECT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, WaitEventOrdersCrossStreamConsumer)
{
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    CUstream prod = nullptr, cons = nullptr;
    ASSERT_EQ(cuStreamCreate(&prod, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamCreate(&cons, 0), CUDA_SUCCESS);
    CUevent ready = nullptr;
    ASSERT_EQ(cuEventCreate(&ready, 0), CUDA_SUCCESS);

    const uint32_t n = 512;
    std::vector<float> a(n, 1.0f), b(n, 2.0f), out(n, 0.0f);
    CUdeviceptr da, db, dc, dd;
    ASSERT_EQ(cuMemAlloc(&da, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&db, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dc, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dd, n * 4), CUDA_SUCCESS);

    // Producer: c = a + b on stream `prod`, then record `ready`.
    ASSERT_EQ(cuMemcpyHtoDAsync(da, a.data(), n * 4, prod), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoDAsync(db, b.data(), n * 4, prod), CUDA_SUCCESS);
    uint32_t nn = n;
    void *p1[] = {&da, &db, &dc, &nn};
    ASSERT_EQ(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                             prod, p1, nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuEventRecord(ready, prod), CUDA_SUCCESS);

    // Consumer: d = c + c on stream `cons`, gated on `ready`.
    ASSERT_EQ(cuStreamWaitEvent(cons, ready, 0), CUDA_SUCCESS);
    void *p2[] = {&dc, &dc, &dd, &nn};
    ASSERT_EQ(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                             cons, p2, nullptr),
              CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoHAsync(out.data(), dd, n * 4, cons),
              CUDA_SUCCESS);
    ASSERT_EQ(cuStreamSynchronize(cons), CUDA_SUCCESS);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(out[i], 6.0f) << i;

    // Nonzero flags are rejected; destroyed events are invalid.
    EXPECT_EQ(cuStreamWaitEvent(cons, ready, 1),
              CUDA_ERROR_INVALID_VALUE);
    ASSERT_EQ(cuEventDestroy(ready), CUDA_SUCCESS);
    EXPECT_EQ(cuStreamWaitEvent(cons, ready, 0),
              CUDA_ERROR_INVALID_HANDLE);
    ASSERT_EQ(cuStreamDestroy(prod), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(cons), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, LegacyNullStreamBarriersExplicitStreams)
{
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);

    const uint32_t n = 512;
    std::vector<float> a(n, 1.0f), b(n, 2.0f), out(n, 0.0f);
    CUdeviceptr da, db, dc, dd;
    ASSERT_EQ(cuMemAlloc(&da, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&db, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dc, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&dd, n * 4), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoDAsync(da, a.data(), n * 4, s), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyHtoDAsync(db, b.data(), n * 4, s), CUDA_SUCCESS);
    uint32_t nn = n;
    void *p1[] = {&da, &db, &dc, &nn};
    ASSERT_EQ(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0, s,
                             p1, nullptr),
              CUDA_SUCCESS);

    // A null-stream launch must not start before the explicit stream's
    // earlier work completed — so it can consume dc directly.
    void *p2[] = {&dc, &dc, &dd, &nn};
    ASSERT_EQ(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1, 0,
                             nullptr, p2, nullptr),
              CUDA_SUCCESS);
    // Legacy launch is synchronous: the result is visible right now.
    ASSERT_EQ(cuMemcpyDtoH(out.data(), dd, n * 4), CUDA_SUCCESS);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(out[i], 6.0f) << i;
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, BackpressureFailsFastAndRetrySucceeds)
{
    // Rebuild the service with a 4-deep queue.
    resetDriver();
    ::setenv("NVBIT_SIM_STREAM_QUEUE_DEPTH", "4", 1);
    checkCu(cuInit(0), "cuInit");
    checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");

    CUfunction slow = loadKernel(kSlowSum, "slowsum");
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    CUdeviceptr out;
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    uint32_t iters = 2000000; // keeps the worker busy while we spam
    void *params[] = {&out, &iters};

    // Head-of-line blocker, then fill the queue to its cap.
    ASSERT_EQ(cuLaunchKernel(slow, 1, 1, 1, 1, 1, 1, 0, s, params,
                             nullptr),
              CUDA_SUCCESS);
    uint32_t host = 0;
    int rejected = 0;
    for (int i = 0; i < 64; ++i) {
        CUresult r = cuMemcpyDtoHAsync(&host, out, 4, s);
        if (r == CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES) {
            ++rejected;
        } else {
            ASSERT_EQ(r, CUDA_SUCCESS);
        }
    }
    EXPECT_GT(rejected, 0) << "bounded queue never pushed back";

    // Retry-after contract: synchronise, then the same op succeeds.
    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    ASSERT_EQ(cuMemcpyDtoHAsync(&host, out, 4, s), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    // slowsum(n) = n*(n-1)/2 (mod 2^32).
    const uint64_t n64 = iters;
    EXPECT_EQ(host, static_cast<uint32_t>(n64 * (n64 - 1) / 2));

    // Rejections are accounted to the tenant.
    EXPECT_GE(obs::MetricsRegistry::instance().value(
                  "driver.tenant0.queue_rejects"),
              static_cast<uint64_t>(rejected));
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, EventMarkersAreExemptFromBackpressure)
{
    // A stream filled to its queue depth behind an unsatisfied wait
    // still accepts event markers (CUDA never fails a record or a wait
    // for queue depth) while async work is pushed back.  The service is
    // paused, so nothing drains and the queue contents are exact.
    resetDriver();
    ::setenv("NVBIT_SIM_STREAM_QUEUE_DEPTH", "4", 1);
    checkCu(cuInit(0), "cuInit");
    checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
    CUfunction fn = loadKernel(kSlowSum, "slowsum");
    CUstream prod = nullptr, s = nullptr;
    ASSERT_EQ(cuStreamCreate(&prod, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    CUevent gate = nullptr, mark = nullptr;
    ASSERT_EQ(cuEventCreate(&gate, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuEventCreate(&mark, 0), CUDA_SUCCESS);
    CUdeviceptr out;
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    uint32_t iters = 10;
    void *params[] = {&out, &iters};

    detail::StreamService &svc = detail::StreamService::instance();
    svc.pause();
    ASSERT_EQ(cuEventRecord(gate, prod), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamWaitEvent(s, gate, 0), CUDA_SUCCESS);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, s, params,
                                 nullptr),
                  CUDA_SUCCESS)
            << i;
    // Full: 1 wait + 3 launches.
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, s, params, nullptr),
              CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES);
    EXPECT_EQ(cuEventRecord(mark, s), CUDA_SUCCESS);
    EXPECT_EQ(cuStreamWaitEvent(s, gate, 0), CUDA_SUCCESS);
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, s, params, nullptr),
              CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES);
    svc.unpause();

    ASSERT_EQ(cuStreamSynchronize(s), CUDA_SUCCESS);
    EXPECT_EQ(cuEventQuery(mark), CUDA_SUCCESS);
    ASSERT_EQ(cuEventDestroy(gate), CUDA_SUCCESS);
    ASSERT_EQ(cuEventDestroy(mark), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(prod), CUDA_SUCCESS);
    ASSERT_EQ(cuStreamDestroy(s), CUDA_SUCCESS);
    ASSERT_EQ(cuMemFree(out), CUDA_SUCCESS);
}

TEST_F(MtDriverTest, ConcurrentFirstContextsUnderAToolAreSafe)
{
    // Two tenants' first cuCtxCreate under an attached tool both reach
    // the core's one-time tool-function load; it must run once, and
    // both contexts must then run instrumented kernels.
    resetDriver();
    for (int round = 0; round < 8; ++round) {
        tools::InstrCountTool tool;
        runApp(tool, [&] {
            checkCu(cuInit(0), "cuInit");
            CUcontext c[2] = {nullptr, nullptr};
            std::atomic<int> ready{0};
            auto create = [&](int i) {
                ready.fetch_add(1);
                while (ready.load() < 2)
                    std::this_thread::yield();
                if (cuCtxCreate(&c[i], 0, 0) != CUDA_SUCCESS)
                    std::abort();
            };
            std::thread t0(create, 0), t1(create, 1);
            t0.join();
            t1.join();
            for (CUcontext ctx : c) {
                checkCu(cuCtxSetCurrent(ctx), "cuCtxSetCurrent");
                tool.reset();
                std::vector<float> out =
                    runVecAdd(loadKernel(kVecAdd, "vecadd"), nullptr, 64);
                EXPECT_FLOAT_EQ(out[63], 3.0f * 63);
                EXPECT_GT(tool.threadInstrs(), 0u);
            }
            checkCu(cuCtxDestroy(c[0]), "cuCtxDestroy");
            checkCu(cuCtxDestroy(c[1]), "cuCtxDestroy");
        });
    }
}

TEST_F(MtDriverTest, TeardownWithPendingAsyncOpsDrainsCleanly)
{
    CUfunction slow = loadKernel(kSlowSum, "slowsum");
    CUstream s = nullptr;
    ASSERT_EQ(cuStreamCreate(&s, 0), CUDA_SUCCESS);
    CUdeviceptr out;
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    uint32_t iters = 1000000;
    void *params[] = {&out, &iters};
    uint32_t host = 0;
    ASSERT_EQ(cuLaunchKernel(slow, 1, 1, 1, 1, 1, 1, 0, s, params,
                             nullptr),
              CUDA_SUCCESS);
    for (int i = 0; i < 8; ++i)
        (void)cuMemcpyDtoHAsync(&host, out, 4, s);

    // Destroy with queued copies and a likely in-flight launch: queued
    // ops are cancelled, the in-flight one is drained, nothing leaks
    // or deadlocks (stream.hpp documents the mirrored event_groups
    // teardown contract).
    ASSERT_EQ(cuCtxDestroy(ctx_), CUDA_SUCCESS);
    EXPECT_EQ(cuCtxDestroy(ctx_), CUDA_ERROR_INVALID_CONTEXT);

    // The service stays healthy for new tenants.
    checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    std::vector<float> c = runVecAdd(fn, nullptr, 128);
    for (uint32_t i = 0; i < 128; ++i)
        ASSERT_FLOAT_EQ(c[i], 3.0f * i) << i;

    // resetDriver with pending work must also drain/cancel cleanly.
    CUfunction slow2 = loadKernel(kSlowSum, "slowsum");
    CUstream s2 = nullptr;
    ASSERT_EQ(cuStreamCreate(&s2, 0), CUDA_SUCCESS);
    ASSERT_EQ(cuMemAlloc(&out, 4), CUDA_SUCCESS);
    void *params2[] = {&out, &iters};
    ASSERT_EQ(cuLaunchKernel(slow2, 1, 1, 1, 1, 1, 1, 0, s2, params2,
                             nullptr),
              CUDA_SUCCESS);
    resetDriver();
    checkCu(cuInit(0), "cuInit");
    checkCu(cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
}

TEST_F(MtDriverTest, WatchdogHangIsIsolatedAndRecoverable)
{
    resetDriver();
    ::setenv("NVBIT_SIM_WATCHDOG_CYCLES", "200000", 1);
    checkCu(cuInit(0), "cuInit");

    CUcontext victim = nullptr, attacker = nullptr;
    checkCu(cuCtxCreate(&victim, 0, 0), "ctx");
    CUfunction vfn = loadKernel(kVecAdd, "vecadd");
    checkCu(cuCtxCreate(&attacker, 0, 0), "ctx");
    CUfunction hang = loadKernel(kHang, "hang");

    // The attacker hangs; the watchdog kills the launch, the error is
    // sticky on the attacker's context only.
    std::atomic<int> victim_rounds{0};
    std::thread victim_thread([&] {
        cuCtxSetCurrent(victim);
        for (int i = 0; i < 3; ++i) {
            std::vector<float> c = runVecAdd(vfn, nullptr, 128);
            for (uint32_t k = 0; k < 128; ++k)
                ASSERT_FLOAT_EQ(c[k], 3.0f * k);
            ++victim_rounds;
        }
    });
    cuCtxSetCurrent(attacker);
    EXPECT_EQ(cuLaunchKernel(hang, 1, 1, 1, 32, 1, 1, 0, nullptr,
                             nullptr, nullptr),
              CUDA_ERROR_LAUNCH_TIMEOUT);
    EXPECT_EQ(cuCtxSynchronize(), CUDA_ERROR_LAUNCH_TIMEOUT); // sticky
    victim_thread.join();
    EXPECT_EQ(victim_rounds.load(), 3);

    // The victim context never saw the poison.
    cuCtxSetCurrent(victim);
    EXPECT_EQ(cuCtxSynchronize(), CUDA_SUCCESS);

    // Escalation end: the attacker recovers via reset, scoped to its
    // own context.
    cuCtxSetCurrent(attacker);
    CUexceptionInfo info;
    ASSERT_EQ(cuCtxGetExceptionInfo(attacker, &info), CUDA_SUCCESS);
    EXPECT_EQ(info.exc.code, sim::TrapCode::WatchdogTimeout);
    ASSERT_EQ(cuDevicePrimaryCtxReset(0), CUDA_SUCCESS);
    EXPECT_EQ(cuCtxSynchronize(), CUDA_SUCCESS);
    EXPECT_EQ(cuCtxGetExceptionInfo(attacker, &info),
              CUDA_ERROR_NOT_FOUND);

    checkCu(cuCtxDestroy(victim), "dtor");
    checkCu(cuCtxDestroy(attacker), "dtor");
    checkCu(cuCtxCreate(&ctx_, 0, 0), "ctx"); // for TearDown symmetry
}

TEST_F(MtDriverTest, GpuPoolMultiplexesDevices)
{
    resetDriver();
    ::setenv("NVBIT_SIM_GPU_POOL", "2", 1);
    checkCu(cuInit(0), "cuInit");
    int count = 0;
    ASSERT_EQ(cuDeviceGetCount(&count), CUDA_SUCCESS);
    ASSERT_EQ(count, 2);

    // Tenants on different devices run concurrently and correctly.
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int dev = 0; dev < 2; ++dev) {
        threads.emplace_back([&, dev] {
            CUcontext ctx = nullptr;
            checkCu(cuCtxCreate(&ctx, 0, dev), "ctx");
            CUfunction fn = loadKernel(kVecAdd, "vecadd");
            for (int round = 0; round < 2; ++round) {
                std::vector<float> c = runVecAdd(fn, nullptr, 256);
                bool good = true;
                for (uint32_t i = 0; i < 256; ++i)
                    good = good && c[i] == 3.0f * i;
                if (good)
                    ++ok;
            }
            checkCu(cuCtxDestroy(ctx), "dtor");
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), 4);
    EXPECT_EQ(cuCtxCreate(&ctx_, 0, 5), CUDA_ERROR_INVALID_VALUE);
    checkCu(cuCtxCreate(&ctx_, 0, 1), "ctx");
}

TEST_F(MtDriverTest, PerTenantMetricsAreAccounted)
{
    CUfunction fn = loadKernel(kVecAdd, "vecadd");
    (void)runVecAdd(fn, nullptr, 256);
    (void)runVecAdd(fn, nullptr, 256);

    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    EXPECT_EQ(mr.value("driver.tenant0.launches"), 2u);
    EXPECT_GT(mr.value("driver.tenant0.cycles"), 0u);
    EXPECT_EQ(mr.value("driver.tenant0.faults"), 0u);
    obs::HistogramSnapshot h;
    ASSERT_TRUE(mr.histogram("driver.tenant0.launch_latency_us", h));
    EXPECT_EQ(h.total, 2u);
    EXPECT_GT(h.sum, 0u);

    // Per-context totals are the per-tenant accounting surface the
    // bench/chaos tools read.
    sim::LaunchStats st = contextTotalStats(ctx_);
    EXPECT_GT(st.thread_instrs, 0u);
}

TEST_F(MtDriverTest, ThreadsTimesContextsStressIsRaceFree)
{
    // N threads x M contexts each, mixed traffic: sync launches,
    // async-stream launches, async copies, events.  Primarily a TSan
    // target (the tsan CI stage runs this suite); the functional
    // assertion is that every round's result is correct.
    const int kThreads = 4;
    const int kCtxPerThread = 2;
    const int kRounds = 3;
    std::atomic<int> good_rounds{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int m = 0; m < kCtxPerThread; ++m) {
                CUcontext ctx = nullptr;
                checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
                CUfunction fn = loadKernel(kVecAdd, "vecadd");
                CUstream s = nullptr;
                checkCu(cuStreamCreate(&s, 0), "stream");
                CUevent ev = nullptr;
                checkCu(cuEventCreate(&ev, 0), "event");
                for (int r = 0; r < kRounds; ++r) {
                    CUstream use = (r % 2 == 0) ? s : nullptr;
                    std::vector<float> c = runVecAdd(fn, use, 128);
                    checkCu(cuEventRecord(ev, s), "record");
                    checkCu(cuEventSynchronize(ev), "esync");
                    bool good = true;
                    for (uint32_t i = 0; i < 128; ++i)
                        good = good && c[i] == 3.0f * i;
                    if (good)
                        ++good_rounds;
                }
                checkCu(cuCtxDestroy(ctx), "dtor");
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(good_rounds.load(), kThreads * kCtxPerThread * kRounds);
}

// --- Chaos campaign -------------------------------------------------------

using tools::FaultCampaignRunner;

TEST(MtChaosTest, VictimsSurviveAdversarialTenantsBitIdentical)
{
    resetDriver();
    FaultCampaignRunner::ChaosConfig cfg;
    cfg.victims = 2;
    cfg.faulters = 1;
    cfg.hangers = 1;
    cfg.spammers = 1;
    cfg.rounds = 3;
    cfg.elems = 512;
    auto report = FaultCampaignRunner::runChaos(cfg);
    ASSERT_EQ(report.tenants.size(), 5u);
    EXPECT_TRUE(report.victimsHealthy()) << report.toJson();
    EXPECT_TRUE(report.adversariesContained()) << report.toJson();
    // The report is valid JSON-ish with the headline fields present.
    std::string j = report.toJson();
    EXPECT_NE(j.find("\"victims_healthy\": true"), std::string::npos);
    EXPECT_NE(j.find("\"role\": \"faulter\""), std::string::npos);
}

TEST(MtChaosTest, VictimsBitIdenticalAcrossAllSixEngineConfigs)
{
    resetDriver();
    struct EngineCfg {
        const char *exec;
        const char *predecode;
        const char *traces;
    };
    const EngineCfg configs[] = {
        {"serial", "0", "0"},   {"serial", "1", "0"},
        {"serial", "1", "1"},   {"parallel", "0", "0"},
        {"parallel", "1", "0"}, {"parallel", "1", "1"},
    };
    for (const EngineCfg &ec : configs) {
        ::setenv("NVBIT_SIM_EXEC", ec.exec, 1);
        ::setenv("NVBIT_SIM_PREDECODE", ec.predecode, 1);
        ::setenv("NVBIT_SIM_TRACES", ec.traces, 1);
        FaultCampaignRunner::ChaosConfig cfg;
        cfg.victims = 1;
        cfg.faulters = 1;
        cfg.hangers = 1;
        cfg.spammers = 0;
        cfg.rounds = 2;
        cfg.elems = 256;
        auto report = FaultCampaignRunner::runChaos(cfg);
        EXPECT_TRUE(report.victimsHealthy())
            << "exec=" << ec.exec << " predecode=" << ec.predecode
            << " traces=" << ec.traces << "\n"
            << report.toJson();
    }
    ::unsetenv("NVBIT_SIM_EXEC");
    ::unsetenv("NVBIT_SIM_PREDECODE");
    ::unsetenv("NVBIT_SIM_TRACES");
}

} // namespace
} // namespace nvbit::cudrv
