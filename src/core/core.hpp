/**
 * @file
 * The NVBit core (paper Section 5, Figure 3): Driver Interposer, Tool
 * Functions Loader, HAL, Instruction Lifter, Code Generator and Code
 * Loader/Unloader, behind the user API declared in nvbit.hpp.
 */
#ifndef NVBIT_CORE_CORE_HPP
#define NVBIT_CORE_CORE_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hal.hpp"
#include "core/nvbit.hpp"
#include "driver/internal.hpp"

namespace nvbit::core {

/** One requested injection (nvbit_insert_call + its arguments). */
struct CallRequest {
    enum class ArgKind : uint8_t {
        GuardPred,
        RegVal,
        Imm32,
        Imm64,
        CBank,
        ActiveMask
    };
    struct Arg {
        ArgKind kind;
        uint64_t v0 = 0;
        uint64_t v1 = 0;
    };

    std::string func_name;
    ipoint_t where = IPOINT_BEFORE;
    std::vector<Arg> args;
};

/** Instrumentation requests attached to one instruction. */
struct InstrRequests {
    std::vector<CallRequest> before;
    std::vector<CallRequest> after;
    bool remove_orig = false;

    bool
    empty() const
    {
        return before.empty() && after.empty() && !remove_orig;
    }
};

/** Per-CUfunction state kept by the core. */
struct FuncState {
    cudrv::CUfunction func = nullptr;
    cudrv::CUcontext ctx = nullptr;

    // Instruction Lifter products.
    bool lifted = false;
    std::vector<std::unique_ptr<Instr>> instrs;
    std::vector<Instr *> instr_ptrs;
    bool has_icf = false;
    bool bb_built = false;
    std::vector<std::vector<Instr *>> basic_blocks;

    // Instrumentation requests, by instruction index.
    std::map<uint32_t, InstrRequests> requests;
    /** Target of subsequent nvbit_add_call_arg_* calls. */
    CallRequest *last_call = nullptr;

    // Code Generator products.
    bool generated = false;
    bool dirty = false;
    std::vector<uint8_t> original_code;
    std::vector<uint8_t> instrumented_code;
    uint64_t tramp_base = 0;
    size_t tramp_bytes = 0;
    /**
     * Layout of each emitted trampoline within the bulk region, kept
     * for fault attribution: a faulting pc inside a span maps back to
     * the instrumented application instruction (`instr_idx`), and the
     * offset of the relocated original instruction distinguishes an
     * app-origin fault from one raised by injected tool machinery.
     */
    struct TrampSpan {
        size_t offset = 0;        ///< byte offset within the region
        size_t bytes = 0;         ///< span length in bytes
        uint32_t instr_idx = 0;   ///< instrumented app instruction
        size_t orig_slot_off = 0; ///< offset of the relocated original
        bool has_orig = false;    ///< false under nvbit_remove_orig
    };
    std::vector<TrampSpan> tramp_spans;
    uint32_t instr_num_regs = 0;   ///< launch regs when instrumented
    uint32_t instr_stack_bytes = 0;///< launch stack when instrumented

    // Code Loader/Unloader state.
    bool enable_desired = true;
    bool instrumented_resident = false;
    uint32_t orig_launch_regs = 0;
    uint32_t orig_launch_stack = 0;
};

/** The singleton core; the free functions in nvbit.hpp call into it. */
class NvbitCore
{
  public:
    static NvbitCore &instance();

    // --- Tool injection ----------------------------------------------
    void inject(NvbitTool *tool);
    void uninject();
    NvbitTool *tool() { return tool_; }

    // --- Inspection API ------------------------------------------------
    FuncState &stateOf(cudrv::CUcontext ctx, cudrv::CUfunction f);
    const std::vector<Instr *> &getInstrs(cudrv::CUcontext ctx,
                                          cudrv::CUfunction f);
    std::vector<std::vector<Instr *>>
    getBasicBlocks(cudrv::CUcontext ctx, cudrv::CUfunction f);
    std::vector<cudrv::CUfunction>
    getRelatedFunctions(cudrv::CUcontext ctx, cudrv::CUfunction f);

    // --- Instrumentation API ------------------------------------------
    void insertCall(const Instr *i, const char *fname, ipoint_t where);
    void addCallArg(const Instr *i, CallRequest::Arg arg);
    void removeOrig(const Instr *i);

    // --- Control API ----------------------------------------------------
    void enableInstrumented(cudrv::CUcontext ctx, cudrv::CUfunction f,
                            bool enable, bool apply_related);
    void resetInstrumented(cudrv::CUcontext ctx, cudrv::CUfunction f);

    // --- Tool globals ----------------------------------------------------
    cudrv::CUdeviceptr toolGlobal(const char *name);

    // --- Inline probes ---------------------------------------------------
    void declareInlineProbe(const std::string &name,
                            const nvbit_probe_desc &desc);

    const JitStats &jitStats() const { return jit_; }

    /**
     * Ablation knob: when set, trampolines save the full register
     * file (largest bucket) instead of the minimum computed from the
     * register requirements of the original and injected code.
     */
    void setForceFullSave(bool v) { force_full_save_ = v; }

  private:
    NvbitCore() = default;

    static void interposerThunk(void *user, cudrv::CUcontext ctx,
                                bool is_exit, CallbackId cbid,
                                const char *name, void *params,
                                CUresult *status);
    void onDriverCall(cudrv::CUcontext ctx, bool is_exit,
                      CallbackId cbid, const char *name, void *params,
                      CUresult *status);

    /** Tool Functions Loader: builtins + tool device functions. */
    void initForContext(cudrv::CUcontext ctx);

    /** Instruction Lifter. */
    void lift(FuncState &st);

    /** Code Generator: build trampolines + instrumented code copy. */
    void generate(FuncState &st);

    /** Code Loader/Unloader: make the desired version resident. */
    void applyResidency(FuncState &st);

    /** Recompute launch register/stack requirements for @p f. */
    void updateLaunchRequirements(cudrv::CUfunction f);

    /** Handle a kernel launch (entry side). */
    void onLaunchEntry(cudrv::cuLaunchKernel_params *p);

    /**
     * Fault attribution (exit side of a failed launch): classify the
     * pending exception as tool- vs app-origin, map trampoline pcs
     * back to instrumented app instructions, then fire the tool's
     * nvbit_at_exception callback.
     */
    void attributeException(cudrv::CUcontext ctx);

    /**
     * Classify @p pc as tool- vs app-origin using the trampoline span
     * maps and tool-module/builtin code ranges, mapping trampoline pcs
     * (and, via @p ret_stack, tool-function pcs) back to the original
     * app instruction.  Shared by fault attribution and the
     * obs::Profiler origin resolver.  When @p label is non-null and
     * the pc lives in code no module covers (a trampoline or builtin
     * routine), a symbolic name and its base are stored there.
     */
    void resolvePcOrigin(uint64_t pc,
                         const std::vector<uint64_t> &ret_stack,
                         bool &tool, uint64_t &app_pc,
                         std::string *label = nullptr,
                         uint64_t *label_base = nullptr) const;

    /** Drop all state for functions of a module being unloaded. */
    void onModuleUnload(cudrv::CUmodule mod);

    FuncState *owningState(const Instr *i);

    /** Emit argument-marshalling code for one call request. */
    void marshalArgs(const CallRequest &req, const Instr &instr,
                     unsigned save_k,
                     std::vector<isa::Instruction> &out);

    /** Pick the save/restore bucket for an instruction's requests. */
    unsigned pickSaveBucket(const FuncState &st,
                            const InstrRequests &reqs) const;

    NvbitTool *tool_ = nullptr;
    bool injected_ = false;
    bool force_full_save_ = false;

    std::unique_ptr<Hal> hal_;
    /** Guards the one-time initForContext load. */
    std::mutex init_mu_;
    cudrv::CUcontext init_ctx_ = nullptr;
    cudrv::CUmodule tool_module_ = nullptr;

    /** Builtin routine name -> device address. */
    std::map<std::string, cudrv::CUdeviceptr> builtin_syms_;
    /** Device ranges of the builtin routines (for fault attribution). */
    std::vector<std::pair<cudrv::CUdeviceptr, size_t>> builtin_ranges_;
    std::map<unsigned, cudrv::CUdeviceptr> save_addr_;
    std::map<unsigned, cudrv::CUdeviceptr> restore_addr_;

    std::map<cudrv::CUfunction, std::unique_ptr<FuncState>> fstate_;
    std::map<const Instr *, FuncState *> instr_owner_;

    /** Owned copy of one nvbit_probe_desc (string lifetimes). */
    struct ProbeDecl {
        bool ballot_guard = false;
        std::string warp_counter;
        std::string thread_counter;
        std::string table_ptr;
        int index_arg = -1;
        int scale_arg = -1;
    };
    /** Declared inlinable tool functions (nvbit_declare_inline_probe). */
    std::map<std::string, ProbeDecl> probe_decls_;

    JitStats jit_;
    /** Guards jit_ reads and writes on the driver-callback path. */
    std::mutex jit_mu_;
};

} // namespace nvbit::core

#endif // NVBIT_CORE_CORE_HPP
