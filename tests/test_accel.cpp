/**
 * @file
 * Numerical validation of the pre-compiled accelerated libraries
 * (simBLAS / simDNN) against host references, plus checks that they
 * behave like closed binaries (instrumentable, no PTX in the image).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "accel/simblas.hpp"
#include "accel/simdnn.hpp"
#include "driver/api.hpp"
#include "driver/module_image.hpp"
#include "tools/instr_count.hpp"

// The simBLAS images ptxc embeds at build time (as test_simblas.bin).
extern const unsigned char simblas_image_sm5x[];
extern const size_t simblas_image_sm5x_len;
extern const unsigned char simblas_image_sm7x[];
extern const size_t simblas_image_sm7x_len;

namespace nvbit::accel {
namespace {

using namespace cudrv;

class AccelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetDriver();
        checkCu(cuInit(0), "init");
        checkCu(cuCtxCreate(&ctx_, 0, 0), "ctx");
    }

    void TearDown() override { resetDriver(); }

    CUdeviceptr
    upload(const std::vector<float> &v)
    {
        CUdeviceptr p;
        checkCu(cuMemAlloc(&p, v.size() * 4), "alloc");
        checkCu(cuMemcpyHtoD(p, v.data(), v.size() * 4), "h2d");
        return p;
    }

    std::vector<float>
    download(CUdeviceptr p, size_t n)
    {
        std::vector<float> v(n);
        checkCu(cuMemcpyDtoH(v.data(), p, n * 4), "d2h");
        return v;
    }

    std::vector<float>
    randomVec(size_t n, uint32_t seed)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<float> d(-1.0f, 1.0f);
        std::vector<float> v(n);
        for (float &x : v)
            x = d(rng);
        return v;
    }

    CUcontext ctx_ = nullptr;
};

TEST_F(AccelTest, SgemmMatchesHostReference)
{
    const uint32_t m = 37, n = 29, k = 45; // deliberately non-multiples
    auto a = randomVec(m * k, 1);
    auto b = randomVec(k * n, 2);
    CUdeviceptr da = upload(a), db = upload(b);
    CUdeviceptr dc;
    checkCu(cuMemAlloc(&dc, m * n * 4), "alloc");

    SimBlas blas;
    blas.sgemm(da, db, dc, m, n, k);
    auto c = download(dc, m * n);

    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            float ref = 0.0f;
            for (uint32_t kk = 0; kk < k; ++kk)
                ref += a[i * k + kk] * b[kk * n + j];
            ASSERT_NEAR(c[i * n + j], ref, 1e-3f)
                << "C[" << i << "][" << j << "]";
        }
    }
}

TEST_F(AccelTest, SgemmTnMatchesHostReference)
{
    const uint32_t m = 24, n = 18, k = 33;
    auto a = randomVec(k * m, 3); // A is K x M (transposed storage)
    auto b = randomVec(k * n, 4);
    CUdeviceptr da = upload(a), db = upload(b);
    CUdeviceptr dc;
    checkCu(cuMemAlloc(&dc, m * n * 4), "alloc");

    SimBlas blas;
    blas.sgemmTN(da, db, dc, m, n, k);
    auto c = download(dc, m * n);

    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            float ref = 0.0f;
            for (uint32_t kk = 0; kk < k; ++kk)
                ref += a[kk * m + i] * b[kk * n + j];
            ASSERT_NEAR(c[i * n + j], ref, 1e-3f);
        }
    }
}

TEST_F(AccelTest, SaxpyAndSscal)
{
    const uint32_t n = 1000;
    auto x = randomVec(n, 5);
    auto y = randomVec(n, 6);
    CUdeviceptr dx = upload(x), dy = upload(y);

    SimBlas blas;
    blas.saxpy(2.5f, dx, dy, n);
    blas.sscal(0.5f, dy, n);
    auto out = download(dy, n);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_NEAR(out[i], 0.5f * (2.5f * x[i] + y[i]), 1e-4f) << i;
}

TEST_F(AccelTest, Conv2dMatchesHostReference)
{
    const uint32_t h = 12, w = 14, ci = 3, co = 4, kh = 3, kw = 3;
    const uint32_t oh = h - kh + 1, ow = w - kw + 1;
    auto in = randomVec(ci * h * w, 7);
    auto wt = randomVec(co * ci * kh * kw, 8);
    CUdeviceptr din = upload(in), dw = upload(wt);
    CUdeviceptr dout;
    checkCu(cuMemAlloc(&dout, co * oh * ow * 4), "alloc");

    SimDnn dnn;
    dnn.conv2d(din, dw, dout, h, w, ci, co, kh, kw);
    auto out = download(dout, co * oh * ow);

    for (uint32_t c = 0; c < co; ++c) {
        for (uint32_t y = 0; y < oh; ++y) {
            for (uint32_t x = 0; x < ow; ++x) {
                float ref = 0.0f;
                for (uint32_t cc = 0; cc < ci; ++cc)
                    for (uint32_t ky = 0; ky < kh; ++ky)
                        for (uint32_t kx = 0; kx < kw; ++kx)
                            ref += in[cc * h * w + (y + ky) * w +
                                      (x + kx)] *
                                   wt[c * ci * kh * kw +
                                      cc * kh * kw + ky * kw + kx];
                ASSERT_NEAR(out[c * oh * ow + y * ow + x], ref, 1e-3f)
                    << c << "," << y << "," << x;
            }
        }
    }
}

TEST_F(AccelTest, ReluBiasMaxpool)
{
    const uint32_t c = 2, h = 8, w = 8;
    std::vector<float> buf(c * h * w);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = (i % 3 == 0) ? -1.0f * static_cast<float>(i)
                              : static_cast<float>(i);
    std::vector<float> bias = {0.5f, -0.25f};
    CUdeviceptr dbuf = upload(buf), dbias = upload(bias);

    SimDnn dnn;
    dnn.biasAdd(dbuf, dbias, c, h * w);
    dnn.relu(dbuf, c * h * w);
    CUdeviceptr dout;
    checkCu(cuMemAlloc(&dout, c * (h / 2) * (w / 2) * 4), "alloc");
    dnn.maxpool2(dbuf, dout, c, h, w);
    auto out = download(dout, c * (h / 2) * (w / 2));

    // Host reference.
    std::vector<float> ref(buf);
    for (uint32_t cc = 0; cc < c; ++cc)
        for (uint32_t i = 0; i < h * w; ++i)
            ref[cc * h * w + i] =
                std::max(0.0f, ref[cc * h * w + i] + bias[cc]);
    for (uint32_t cc = 0; cc < c; ++cc) {
        for (uint32_t y = 0; y < h / 2; ++y) {
            for (uint32_t x = 0; x < w / 2; ++x) {
                float mx = std::max(
                    std::max(ref[cc * h * w + 2 * y * w + 2 * x],
                             ref[cc * h * w + 2 * y * w + 2 * x + 1]),
                    std::max(
                        ref[cc * h * w + (2 * y + 1) * w + 2 * x],
                        ref[cc * h * w + (2 * y + 1) * w + 2 * x + 1]));
                ASSERT_FLOAT_EQ(out[cc * (h / 2) * (w / 2) +
                                    y * (w / 2) + x],
                                mx);
            }
        }
    }
}

TEST_F(AccelTest, LibraryShipsAsBinaryImageWithLineInfo)
{
    SimBlas blas;
    // The module loaded is a binary image (not JIT-compiled PTX), and
    // it still carries source correlation like real cuBLAS with
    // -lineinfo builds.
    CUfunction fn;
    ASSERT_EQ(cuModuleGetFunction(&fn, blas.module(),
                                  "simblas_sgemm_nn"),
              CUDA_SUCCESS);
    EXPECT_FALSE(fn->line_info.empty());
    EXPECT_GT(fn->num_regs, 8u);
    EXPECT_GT(fn->code_size, 100u);
}

TEST_F(AccelTest, ImageWithParamSlotOutsideBank0IsRejected)
{
    std::vector<uint8_t> image(simblas_image_sm5x,
                               simblas_image_sm5x + simblas_image_sm5x_len);
    if (device().family() == isa::ArchFamily::SM7x)
        image.assign(simblas_image_sm7x,
                     simblas_image_sm7x + simblas_image_sm7x_len);
    ModuleData md;
    ASSERT_TRUE(deserializeModule(image.data(), image.size(), md));
    auto fn = std::find_if(md.functions.begin(), md.functions.end(),
                           [](const FuncImage &f) {
                               return f.name == "simblas_sgemm_nn";
                           });
    ASSERT_NE(fn, md.functions.end());
    const uint32_t param_bytes = fn->param_bytes;

    // simblas_sgemm_nn's parameter records: name (u32 length, bytes),
    // kind (u8), bank0_offset (u32).  Find A (u64) followed by B.
    const uint8_t rec_a[] = {1, 0, 0, 0, 'A', 1};
    const uint8_t rec_b[] = {1, 0, 0, 0, 'B', 1};
    size_t at = 0;
    for (; at + 16 <= image.size(); ++at)
        if (std::equal(rec_a, rec_a + 6, image.begin() + at) &&
            std::equal(rec_b, rec_b + 6, image.begin() + at + 10))
            break;
    ASSERT_LE(at + 16, image.size()) << "parameter A record not found";
    const size_t kind_at = at + 5, offset_at = at + 6;

    auto loadWith = [&](size_t pos, uint32_t v, size_t width) {
        std::vector<uint8_t> patched = image;
        for (size_t i = 0; i < width; ++i)
            patched[pos + i] = static_cast<uint8_t>(v >> (8 * i));
        CUmodule mod = nullptr;
        return cuModuleLoadData(&mod, patched.data(), patched.size());
    };
    // The last slot a u64 fits in loads; one byte further, or far past
    // param_bytes, would overflow constant bank 0 at launch.
    EXPECT_EQ(loadWith(offset_at, param_bytes - 8, 4), CUDA_SUCCESS);
    EXPECT_EQ(loadWith(offset_at, param_bytes - 7, 4),
              CUDA_ERROR_INVALID_IMAGE);
    EXPECT_EQ(loadWith(offset_at, 1u << 20, 4), CUDA_ERROR_INVALID_IMAGE);
    EXPECT_EQ(loadWith(offset_at, 0xfffffffcu, 4),
              CUDA_ERROR_INVALID_IMAGE);
    // An unknown ParamKind has no size at all.
    EXPECT_EQ(loadWith(kind_at, 7, 1), CUDA_ERROR_INVALID_IMAGE);
}

TEST_F(AccelTest, LaunchRejectsImageSharedAndLocalSizesPastDeviceLimits)
{
    std::vector<uint8_t> image(simblas_image_sm5x,
                               simblas_image_sm5x + simblas_image_sm5x_len);
    if (device().family() == isa::ArchFamily::SM7x)
        image.assign(simblas_image_sm7x,
                     simblas_image_sm7x + simblas_image_sm7x_len);

    // simblas_sgemm_nn's function record: name (u32 length, bytes),
    // is_entry (u8), then u32 num_regs, frame_bytes, shared_bytes.
    const std::string name = "simblas_sgemm_nn";
    std::vector<uint8_t> rec = {static_cast<uint8_t>(name.size()), 0, 0, 0};
    rec.insert(rec.end(), name.begin(), name.end());
    auto at = std::search(image.begin(), image.end(), rec.begin(), rec.end());
    ASSERT_NE(at, image.end()) << "function record not found";
    const size_t frame_at = (at - image.begin()) + rec.size() + 1 + 4;
    const size_t shared_at = frame_at + 4;

    const uint64_t smem = device().config().smem_per_sm;
    uint64_t zeros[6] = {};
    void *params[] = {&zeros[0], &zeros[1], &zeros[2],
                      &zeros[3], &zeros[4], &zeros[5]};
    auto launchWith = [&](uint32_t frame, uint32_t shared,
                          unsigned dyn_shared) {
        std::vector<uint8_t> patched = image;
        for (size_t i = 0; i < 4; ++i) {
            patched[frame_at + i] = static_cast<uint8_t>(frame >> (8 * i));
            patched[shared_at + i] = static_cast<uint8_t>(shared >> (8 * i));
        }
        ModuleData md;
        EXPECT_TRUE(deserializeModule(patched.data(), patched.size(), md));
        for (const FuncImage &f : md.functions)
            if (f.name == name) {
                EXPECT_EQ(f.frame_bytes, frame);
                EXPECT_EQ(f.shared_bytes, shared);
                EXPECT_EQ(f.params.size(), 6u);
            }
        CUmodule mod = nullptr;
        CUfunction fn = nullptr;
        checkCu(cuModuleLoadData(&mod, patched.data(), patched.size()),
                "load");
        checkCu(cuModuleGetFunction(&fn, mod, name.c_str()), "function");
        CUresult r = cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, dyn_shared,
                                    nullptr, params, nullptr);
        checkCu(cuModuleUnload(mod), "unload");
        return r;
    };

    // Per-thread local bytes (frame + the launch stack margin) past
    // 512 KiB: 64 threads of ~4 GiB each could never be allocated.
    EXPECT_EQ(launchWith(0xfffff000u, 0, 0), CUDA_ERROR_INVALID_VALUE);
    // Static + dynamic shared bytes whose 32-bit sum wraps to 4 KiB.
    EXPECT_EQ(launchWith(0, 0xfffff000u, 0x2000), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launchWith(0, static_cast<uint32_t>(smem), 1),
              CUDA_ERROR_INVALID_VALUE);
    // Exactly at both limits the launch runs (m = n = k = 0).
    EXPECT_EQ(launchWith(512 * 1024 - 512, static_cast<uint32_t>(smem), 0),
              CUDA_SUCCESS);
}

} // namespace
} // namespace nvbit::accel
