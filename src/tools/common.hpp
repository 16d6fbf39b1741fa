/**
 * @file
 * Shared infrastructure for the bundled NVBit tools: a base class that
 * instruments every kernel (and its related functions) the first time
 * it is launched, which is the pattern all the paper's example tools
 * follow ("the dynamic instrumentation of a binary is typically done
 * when the kernel is launched for the first time").
 */
#ifndef NVBIT_TOOLS_COMMON_HPP
#define NVBIT_TOOLS_COMMON_HPP

#include <functional>
#include <map>

#include "core/nvbit.hpp"
#include "driver/internal.hpp"

namespace nvbit::tools {

/**
 * Tool base: instruments functions lazily at first launch.
 * Subclasses implement instrumentFunction(); an optional filter
 * restricts which functions are instrumented (used e.g. to exclude
 * pre-compiled libraries and reproduce what a compiler-based approach
 * could see — paper Section 6.1).
 */
class LaunchInstrumentingTool : public NvbitTool
{
  public:
    using FuncFilter = std::function<bool(CUfunction)>;

    /** Only functions for which @p filter returns true are touched. */
    void setFunctionFilter(FuncFilter filter)
    {
        filter_ = std::move(filter);
    }

    void
    nvbit_at_cuda_driver_call(CUcontext ctx, bool is_exit,
                              CallbackId cbid, const char *name,
                              void *params, CUresult *status) override
    {
        if (cbid == CallbackId::cuLaunchKernel) {
            auto *p = static_cast<cudrv::cuLaunchKernel_params *>(params);
            if (!is_exit) {
                instrumentAtFirstLaunch(ctx, p->f);
                onLaunchEntry(ctx, p);
            } else {
                onLaunchExit(ctx, p, *status);
            }
        } else if (!is_exit) {
            forgetDeadFunctions(cbid, params);
        }
        onDriverCall(ctx, is_exit, cbid, name, params, status);
    }

  protected:
    /** Apply instrumentation to one not-yet-seen function. */
    virtual void instrumentFunction(CUcontext ctx, CUfunction f) = 0;

    /** Hook before the launch proceeds (e.g. sampling decisions). */
    virtual void onLaunchEntry(CUcontext, cudrv::cuLaunchKernel_params *)
    {}

    /** Hook after the launch completed. */
    virtual void onLaunchExit(CUcontext, cudrv::cuLaunchKernel_params *,
                              CUresult)
    {}

    /** Hook for any other driver API traffic. */
    virtual void onDriverCall(CUcontext, bool, CallbackId, const char *,
                              void *, CUresult *)
    {}

    bool
    passesFilter(CUfunction f) const
    {
        return !filter_ || filter_(f);
    }

    bool
    alreadyInstrumented(CUfunction f) const
    {
        return seen_.count(f) != 0;
    }

  private:
    /** Where a seen function lives, recorded while it is alive, so it
     *  can be forgotten without touching it once it is freed. */
    struct SeenFunc {
        cudrv::CUmodule mod;
        CUcontext ctx;
    };

    void
    instrumentAtFirstLaunch(CUcontext ctx, CUfunction f)
    {
        std::vector<CUfunction> funcs =
            nvbit_get_related_functions(ctx, f);
        funcs.push_back(f);
        for (CUfunction g : funcs) {
            if (!seen_.try_emplace(g, SeenFunc{g->mod, g->mod->ctx})
                     .second)
                continue;
            if (passesFilter(g))
                instrumentFunction(ctx, g);
        }
    }

    /**
     * A freed CUfunc_st's address can come back as a new kernel, which
     * must not be skipped as already instrumented.  Functions die with
     * their module (cuModuleUnload), their context (cuCtxDestroy), or
     * in resetDriver, which runs no callbacks: the next cuInit that
     * finds the driver uninitialised is when those are forgotten.
     */
    void
    forgetDeadFunctions(CallbackId cbid, void *params)
    {
        if (cbid == CallbackId::cuModuleUnload) {
            cudrv::CUmodule mod =
                static_cast<cudrv::cuModuleUnload_params *>(params)->module;
            std::erase_if(seen_,
                          [&](const auto &e) { return e.second.mod == mod; });
        } else if (cbid == CallbackId::cuCtxDestroy) {
            CUcontext c =
                static_cast<cudrv::cuCtxDestroy_params *>(params)->ctx;
            std::erase_if(seen_,
                          [&](const auto &e) { return e.second.ctx == c; });
        } else if (cbid == CallbackId::cuInit && cudrv::deviceCount() == 0) {
            seen_.clear();
        }
    }

    FuncFilter filter_;
    std::map<CUfunction, SeenFunc> seen_;
};

} // namespace nvbit::tools

#endif // NVBIT_TOOLS_COMMON_HPP
