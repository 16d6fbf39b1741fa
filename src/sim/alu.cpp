#include "sim/alu.hpp"

namespace nvbit::sim {

using isa::DType;
using isa::Instruction;
using isa::Opcode;

namespace {

AluSrc
srcReg(uint8_t r)
{
    AluSrc s;
    s.reg = r;
    return s;
}

AluSrc
srcConst(uint32_t v)
{
    AluSrc s;
    s.is_const = true;
    s.cval = v;
    return s;
}

/** Second ALU source: immediate constant or Rb. */
AluSrc
srcAlu2(const Instruction &in)
{
    return (in.mod & isa::kModImmSrc2)
               ? srcConst(static_cast<uint32_t>(in.imm))
               : srcReg(in.rb);
}

} // namespace

bool
aluShape(const Instruction &in, AluShape &s)
{
    const DType dt = isa::modGetDType(in.mod);
    s = AluShape{};
    if (in.rd != isa::kRegZ)
        s.d = in.rd;
    switch (in.op) {
      case Opcode::MOV:
        if (dt == DType::U64)
            return false;
        s.op = AluOp::Mov;
        // Alu1 form: the register source is ra.
        s.a = (in.mod & isa::kModImmSrc2)
                  ? srcConst(static_cast<uint32_t>(in.imm))
                  : srcReg(in.ra);
        return true;
      case Opcode::LUI:
        s.op = AluOp::Mov;
        s.a = srcConst(static_cast<uint32_t>(in.imm) << 16);
        return true;
      case Opcode::SEL:
        s.op = AluOp::Sel;
        s.aux = static_cast<uint8_t>(
            isa::modGetSelPred(in.mod) |
            (isa::modGetSelPredNeg(in.mod) ? 0x08u : 0u));
        s.a = srcReg(in.ra);
        s.b = srcReg(in.rb);
        return true;
      case Opcode::SHL:
        if (dt == DType::U64)
            return false;
        s.op = AluOp::Shl;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::SHR:
        if (dt == DType::U64)
            return false;
        s.op = dt == DType::S32 ? AluOp::ShrS : AluOp::ShrU;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
        s.op = in.op == Opcode::AND  ? AluOp::And
               : in.op == Opcode::OR ? AluOp::Or
                                     : AluOp::Xor;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::NOT:
        s.op = AluOp::Not;
        s.a = srcReg(in.ra);
        return true;
      case Opcode::IADD:
      case Opcode::ISUB:
      case Opcode::IMUL:
        if (dt == DType::U64)
            return false;
        s.op = in.op == Opcode::IADD   ? AluOp::IAdd
               : in.op == Opcode::ISUB ? AluOp::ISub
                                       : AluOp::IMul;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::IMAD:
        if (dt == DType::U64)
            return false; // wide form: pair = u32 * u32 + pair
        s.op = AluOp::IMad;
        s.a = srcReg(in.ra);
        s.b = srcReg(in.rb);
        s.c = srcReg(in.rc);
        return true;
      case Opcode::IMNMX:
        s.op = dt == DType::S32 ? AluOp::MnmxS : AluOp::MnmxU;
        s.aux = (in.mod & isa::kModMnmxMax) ? 1 : 0;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::POPC:
        s.op = AluOp::Popc;
        s.a = srcReg(in.ra);
        return true;
      case Opcode::FADD:
      case Opcode::FMUL:
        s.op = in.op == Opcode::FADD ? AluOp::FAdd : AluOp::FMul;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::FFMA:
        s.op = AluOp::FFma;
        s.a = srcReg(in.ra);
        s.b = srcReg(in.rb);
        s.c = srcReg(in.rc);
        return true;
      case Opcode::FMNMX:
        s.op = AluOp::FMnmx;
        s.aux = (in.mod & isa::kModMnmxMax) ? 1 : 0;
        s.a = srcReg(in.ra);
        s.b = srcAlu2(in);
        return true;
      case Opcode::MUFU:
        s.op = AluOp::Mufu;
        s.aux = static_cast<uint8_t>(isa::modGetMufu(in.mod));
        s.a = srcReg(in.ra);
        return true;
      case Opcode::I2F:
        s.op = dt == DType::S32 ? AluOp::I2FS : AluOp::I2FU;
        s.a = srcReg(in.ra);
        return true;
      case Opcode::F2I:
        s.op = dt == DType::S32 ? AluOp::F2IS : AluOp::F2IU;
        s.a = srcReg(in.ra);
        return true;
      case Opcode::ISETP: {
        const DType sdt = isa::modGetSetpDType(in.mod);
        if (sdt == DType::U64)
            return false;
        s.d = WarpRegFile::kSinkRow;
        s.aux = setpAux(isa::modGetCmp(in.mod), in.rd & 0x7);
        s.a = srcReg(in.ra);
        const bool imm = (in.mod & isa::kModSetpImm) != 0;
        if (sdt == DType::S32) {
            // ISETP.S32 compares the full signed immediate; a 32-bit
            // row represents it exactly only when it fits.
            if (imm &&
                in.imm != static_cast<int64_t>(static_cast<int32_t>(in.imm)))
                return false;
            s.op = AluOp::ISetpS;
        } else {
            s.op = AluOp::ISetpU;
        }
        s.b = imm ? srcConst(static_cast<uint32_t>(in.imm))
                  : srcReg(in.rb);
        return true;
      }
      case Opcode::FSETP:
        s.op = AluOp::FSetp;
        s.d = WarpRegFile::kSinkRow;
        s.aux = setpAux(isa::modGetCmp(in.mod), in.rd & 0x7);
        s.a = srcReg(in.ra);
        // The immediate is converted numerically, not reinterpreted.
        s.b = (in.mod & isa::kModSetpImm)
                  ? srcConst(asBits(static_cast<float>(in.imm)))
                  : srcReg(in.rb);
        return true;
      case Opcode::P2R:
        s.op = AluOp::P2R;
        return true;
      case Opcode::R2P:
        s.op = AluOp::R2P;
        s.d = WarpRegFile::kSinkRow;
        s.a = srcReg(in.ra);
        return true;
      default:
        return false;
    }
}

} // namespace nvbit::sim
