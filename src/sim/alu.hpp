/**
 * @file
 * The 32-bit ALU: one definition of every lane operation.
 *
 * NVBIT_ALU_OPS is an X-macro table with one row per operation: a name
 * and one scalar statement over the lane's source values `a`, `b`, `c`
 * (uint32_t), the op's build-time modifier `aux`, the lane's
 * destination word `d` and its predicate byte `p`.  aluShape() is the
 * single decoder from an instruction (opcode, dtype, immediate form) to
 * a row plus operands.  Two engines expand the same rows:
 *
 *  - the interpreter runs a row over the lanes of its exec mask;
 *  - the trace engine runs strips of rows over all 32 lanes with
 *    computed-goto dispatch, operands pointing straight at the warp's
 *    register rows (sim/trace_exec.cpp).
 *
 * 64-bit register-pair forms, memory, control flow and warp
 * collectives are not table rows; the interpreter's switch runs them.
 */
#ifndef NVBIT_SIM_ALU_HPP
#define NVBIT_SIM_ALU_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "isa/instruction.hpp"
#include "sim/warp_scheduler.hpp"

namespace nvbit::sim {

inline float
asF32(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

inline uint32_t
asBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

/**
 * Bits of a float result, with every NaN made the canonical 0x7fffffff
 * that NVIDIA GPUs produce.  The host FPU propagates one operand's NaN
 * payload, and which one depends on how the compiler ordered the
 * operands, so without this the two engines could disagree.
 */
inline uint32_t
f32Result(float f)
{
    return std::isnan(f) ? 0x7fffffffu : asBits(f);
}

/** FMNMX: a NaN operand yields the other; -0 orders below +0. */
inline uint32_t
fMinMax(uint32_t a, uint32_t b, bool want_max)
{
    const float fa = asF32(a), fb = asF32(b);
    if (fa == fb) // equal values, +0 == -0 included: order by sign bit
        return want_max ? (a & b) : (a | b);
    return f32Result(want_max ? std::fmax(fa, fb) : std::fmin(fa, fb));
}

/** f32 -> integer conversion with defined saturation semantics. */
inline int64_t
f2iClamp(float f, bool is_signed)
{
    if (std::isnan(f))
        return 0;
    if (is_signed) {
        if (f >= 2147483647.0f)
            return 2147483647;
        if (f <= -2147483648.0f)
            return -2147483648ll;
        return static_cast<int64_t>(f);
    }
    if (f >= 4294967295.0f)
        return 4294967295ll;
    if (f <= 0.0f)
        return 0;
    return static_cast<int64_t>(f);
}

/** Compare in T: unsigned, signed, or float (NaN compares unordered). */
template <typename T>
inline bool
cmpApply(isa::CmpOp c, T a, T b)
{
    switch (c) {
      case isa::CmpOp::LT: return a < b;
      case isa::CmpOp::EQ: return a == b;
      case isa::CmpOp::LE: return a <= b;
      case isa::CmpOp::GT: return a > b;
      case isa::CmpOp::NE: return a != b;
      case isa::CmpOp::GE: return a >= b;
    }
    return false;
}

/** Multi-function unit. */
inline float
mufuApply(isa::MufuOp op, float a)
{
    switch (op) {
      case isa::MufuOp::RCP: return 1.0f / a;
      case isa::MufuOp::SQRT: return std::sqrt(a);
      case isa::MufuOp::RSQ: return 1.0f / std::sqrt(a);
      case isa::MufuOp::EX2: return std::exp2(a);
      case isa::MufuOp::LG2: return std::log2(a);
      case isa::MufuOp::SIN: return std::sin(a);
      case isa::MufuOp::COS: return std::cos(a);
    }
    return 0.0f;
}

/** Setp rows' aux: compare op in [2:0], destination predicate in [5:3]. */
inline uint8_t
setpAux(isa::CmpOp c, uint8_t pd)
{
    return static_cast<uint8_t>(static_cast<unsigned>(c) | (pd << 3));
}

inline isa::CmpOp
setpCmp(uint8_t aux)
{
    return static_cast<isa::CmpOp>(aux & 0x7u);
}

inline uint8_t
setpDst(uint8_t aux)
{
    return static_cast<uint8_t>(aux >> 3);
}

inline int32_t
s32(uint32_t v)
{
    return static_cast<int32_t>(v);
}

/**
 * The table.  Mnmx/FMnmx aux: want-max flag; Mufu: MufuOp; Setp: see
 * setpAux; Sel: source predicate in [2:0], negate in [3].
 */
#define NVBIT_ALU_OPS(X)                                                   \
    X(Mov, d = a)                                                          \
    X(IAdd, d = a + b)                                                     \
    X(ISub, d = a - b)                                                     \
    X(IMul, d = a * b)                                                     \
    X(IMad, d = a * b + c)                                                 \
    X(And, d = a & b)                                                      \
    X(Or, d = a | b)                                                       \
    X(Xor, d = a ^ b)                                                      \
    X(Not, d = ~a)                                                         \
    X(Shl, d = a << (b & 31))                                              \
    X(ShrU, d = a >> (b & 31))                                             \
    X(ShrS, d = static_cast<uint32_t>(s32(a) >> (b & 31)))                 \
    X(MnmxU, d = aux ? std::max(a, b) : std::min(a, b))                    \
    X(MnmxS, d = static_cast<uint32_t>(aux ? std::max(s32(a), s32(b))      \
                                           : std::min(s32(a), s32(b))))    \
    X(Popc, d = static_cast<uint32_t>(std::popcount(a)))                   \
    X(FAdd, d = f32Result(asF32(a) + asF32(b)))                            \
    X(FMul, d = f32Result(asF32(a) * asF32(b)))                            \
    X(FFma, d = f32Result(std::fma(asF32(a), asF32(b), asF32(c))))         \
    X(FMnmx, d = fMinMax(a, b, aux != 0))                                  \
    X(Mufu,                                                                \
      d = f32Result(mufuApply(static_cast<isa::MufuOp>(aux), asF32(a))))   \
    X(I2FU, d = asBits(static_cast<float>(a)))                             \
    X(I2FS, d = asBits(static_cast<float>(s32(a))))                        \
    X(F2IU, d = static_cast<uint32_t>(f2iClamp(asF32(a), false)))          \
    X(F2IS, d = static_cast<uint32_t>(f2iClamp(asF32(a), true)))           \
    X(ISetpU, p = withPred(p, setpDst(aux), cmpApply(setpCmp(aux), a, b))) \
    X(ISetpS, p = withPred(p, setpDst(aux),                                \
                           cmpApply(setpCmp(aux), s32(a), s32(b))))        \
    X(FSetp, p = withPred(p, setpDst(aux),                                 \
                          cmpApply(setpCmp(aux), asF32(a), asF32(b))))     \
    X(Sel, d = predBit(p, aux & 0x7u, (aux & 0x8u) != 0) ? a : b)          \
    X(P2R, d = p)                                                          \
    X(R2P, p = static_cast<uint8_t>(a & 0x7F))

/**
 * One lane of a table row.  Expects in scope: row pointers D, A, B, C
 * (kWarpSize words each), the predicate bytes P, `aux` and lane `l`.
 */
#define NVBIT_ALU_LANE(expr)                                               \
    {                                                                      \
        const uint32_t a = A[l], b = B[l], c = C[l];                       \
        uint32_t &d = D[l];                                                \
        uint8_t &p = P[l];                                                 \
        (void)a, (void)b, (void)c, (void)d, (void)p, (void)aux;            \
        expr;                                                              \
    }

enum class AluOp : uint8_t {
#define NVBIT_ALU_ENUM(name, expr) name,
    NVBIT_ALU_OPS(NVBIT_ALU_ENUM)
#undef NVBIT_ALU_ENUM
    NumOps
};

/** One source operand: a register row or an immediate. */
struct AluSrc {
    bool is_const = false;
    uint8_t reg = isa::kRegZ; ///< unused operands read RZ
    uint32_t cval = 0;        ///< immediate, already in the row's bit form
};

/** A table row plus its operands, as decoded from one instruction. */
struct AluShape {
    AluOp op = AluOp::Mov;
    uint8_t aux = 0;
    /** Destination register row (WarpRegFile::kSinkRow when the op
     *  writes no GPR or writes RZ). */
    uint16_t d = WarpRegFile::kSinkRow;
    AluSrc a, b, c;
};

/**
 * The single shape decoder: @return true and fill @p s when @p in is a
 * 32-bit ALU instruction the table covers.  Guard predicates are not
 * considered (the interpreter applies them as the exec mask).
 */
bool aluShape(const isa::Instruction &in, AluShape &s);

} // namespace nvbit::sim

#endif // NVBIT_SIM_ALU_HPP
