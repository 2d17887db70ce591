#include "isa/inst.h"

#include <array>

namespace facile::isa {

namespace {

const char *
rawName(Mnemonic m)
{
    using M = Mnemonic;
    switch (m) {
      case M::ADD: return "add";
      case M::SUB: return "sub";
      case M::ADC: return "adc";
      case M::SBB: return "sbb";
      case M::AND: return "and";
      case M::OR: return "or";
      case M::XOR: return "xor";
      case M::CMP: return "cmp";
      case M::TEST: return "test";
      case M::MOV: return "mov";
      case M::MOVZX: return "movzx";
      case M::MOVSX: return "movsx";
      case M::LEA: return "lea";
      case M::INC: return "inc";
      case M::DEC: return "dec";
      case M::NEG: return "neg";
      case M::NOT: return "not";
      case M::IMUL: return "imul";
      case M::MUL: return "mul";
      case M::DIV: return "div";
      case M::IDIV: return "idiv";
      case M::SHL: return "shl";
      case M::SHR: return "shr";
      case M::SAR: return "sar";
      case M::ROL: return "rol";
      case M::ROR: return "ror";
      case M::XCHG: return "xchg";
      case M::PUSH: return "push";
      case M::POP: return "pop";
      case M::BSWAP: return "bswap";
      case M::BSF: return "bsf";
      case M::BSR: return "bsr";
      case M::POPCNT: return "popcnt";
      case M::LZCNT: return "lzcnt";
      case M::TZCNT: return "tzcnt";
      case M::NOP: return "nop";
      case M::JCC: return "jcc";
      case M::JMP: return "jmp";
      case M::CALL: return "call";
      case M::RET: return "ret";
      case M::SETCC: return "setcc";
      case M::CMOVCC: return "cmovcc";
      case M::MOVAPS: return "movaps";
      case M::MOVUPS: return "movups";
      case M::MOVAPD: return "movapd";
      case M::MOVSS: return "movss";
      case M::MOVSD: return "movsd";
      case M::ADDPS: return "addps";
      case M::ADDPD: return "addpd";
      case M::ADDSS: return "addss";
      case M::ADDSD: return "addsd";
      case M::SUBPS: return "subps";
      case M::SUBPD: return "subpd";
      case M::SUBSD: return "subsd";
      case M::MULPS: return "mulps";
      case M::MULPD: return "mulpd";
      case M::MULSS: return "mulss";
      case M::MULSD: return "mulsd";
      case M::DIVPS: return "divps";
      case M::DIVPD: return "divpd";
      case M::DIVSS: return "divss";
      case M::DIVSD: return "divsd";
      case M::SQRTPS: return "sqrtps";
      case M::SQRTPD: return "sqrtpd";
      case M::SQRTSD: return "sqrtsd";
      case M::MINPS: return "minps";
      case M::MAXPS: return "maxps";
      case M::ANDPS: return "andps";
      case M::ORPS: return "orps";
      case M::XORPS: return "xorps";
      case M::PXOR: return "pxor";
      case M::PADDD: return "paddd";
      case M::PADDQ: return "paddq";
      case M::PSUBD: return "psubd";
      case M::PAND: return "pand";
      case M::POR: return "por";
      case M::PMULLD: return "pmulld";
      case M::PSLLD: return "pslld";
      case M::PSRLD: return "psrld";
      case M::SHUFPS: return "shufps";
      case M::PUNPCKLDQ: return "punpckldq";
      case M::CVTSI2SD: return "cvtsi2sd";
      case M::CVTTSD2SI: return "cvttsd2si";
      case M::MOVD: return "movd";
      case M::MOVQ: return "movq";
      case M::VMOVAPS: return "vmovaps";
      case M::VMOVUPS: return "vmovups";
      case M::VADDPS: return "vaddps";
      case M::VADDPD: return "vaddpd";
      case M::VADDSD: return "vaddsd";
      case M::VSUBPS: return "vsubps";
      case M::VMULPS: return "vmulps";
      case M::VMULPD: return "vmulpd";
      case M::VMULSD: return "vmulsd";
      case M::VDIVPS: return "vdivps";
      case M::VDIVSD: return "vdivsd";
      case M::VSQRTPD: return "vsqrtpd";
      case M::VANDPS: return "vandps";
      case M::VXORPS: return "vxorps";
      case M::VPXOR: return "vpxor";
      case M::VPADDD: return "vpaddd";
      case M::VPMULLD: return "vpmulld";
      case M::VFMADD231PS: return "vfmadd231ps";
      case M::VFMADD231PD: return "vfmadd231pd";
      case M::VFMADD231SD: return "vfmadd231sd";
      case M::kNumMnemonics: break;
    }
    return "<bad>";
}

} // namespace

std::string
condName(Cond c)
{
    static const std::array<const char *, 16> names = {
        "o", "no", "b", "nb", "e", "ne", "be", "nbe",
        "s", "ns", "p", "np", "l", "nl", "le", "nle"};
    if (c == Cond::None)
        return "";
    return names[static_cast<int>(c)];
}

std::string
mnemonicName(Mnemonic m)
{
    return rawName(m);
}

bool
Inst::isStore() const
{
    if (mnem == Mnemonic::PUSH || mnem == Mnemonic::CALL)
        return true;
    if (mnem == Mnemonic::CMP || mnem == Mnemonic::TEST)
        return false; // memory is only read
    if (ops.empty() || !ops[0].isMem())
        return false;
    // First operand is memory and the instruction writes its destination.
    switch (mnem) {
      case Mnemonic::LEA:
      case Mnemonic::JMP:
      // One-operand multiply/divide: the memory operand is a source;
      // the results go to rDX:rAX.
      case Mnemonic::MUL:
      case Mnemonic::IMUL:
      case Mnemonic::DIV:
      case Mnemonic::IDIV:
        return false;
      default:
        return true;
    }
}

bool
Inst::isLoad() const
{
    if (mnem == Mnemonic::POP || mnem == Mnemonic::RET)
        return true;
    if (mnem == Mnemonic::LEA)
        return false; // address computation only
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!ops[i].isMem())
            continue;
        if (i == 0) {
            // Destination memory: read-modify-write ops also load.
            switch (mnem) {
              case Mnemonic::MOV:
              case Mnemonic::MOVAPS:
              case Mnemonic::MOVUPS:
              case Mnemonic::MOVAPD:
              case Mnemonic::MOVSS:
              case Mnemonic::MOVSD:
              case Mnemonic::VMOVAPS:
              case Mnemonic::VMOVUPS:
              case Mnemonic::MOVD:
              case Mnemonic::MOVQ:
              case Mnemonic::SETCC:
                return false; // pure store
              default:
                return true; // RMW or explicit read (cmp/test/...)
            }
        }
        return true; // source memory operand
    }
    return false;
}

int
Inst::operandWidth() const
{
    if (mnem == Mnemonic::RET)
        return 8;
    if (mnem == Mnemonic::PUSH || mnem == Mnemonic::POP)
        return 8;
    for (const auto &o : ops) {
        if (o.isReg())
            return o.reg.width();
        if (o.isMem())
            return o.mem.width;
    }
    return 0;
}

std::string
toString(const Inst &inst)
{
    std::string s;
    if (inst.mnem == Mnemonic::JCC)
        s = "j" + condName(inst.cc);
    else if (inst.mnem == Mnemonic::SETCC)
        s = "set" + condName(inst.cc);
    else if (inst.mnem == Mnemonic::CMOVCC)
        s = "cmov" + condName(inst.cc);
    else
        s = mnemonicName(inst.mnem);

    for (std::size_t i = 0; i < inst.ops.size(); ++i) {
        s += i == 0 ? " " : ", ";
        const Operand &o = inst.ops[i];
        switch (o.kind) {
          case Operand::Kind::Reg:
            s += regName(o.reg);
            break;
          case Operand::Kind::Mem: {
            static const char *widthPrefix[] = {
                "", "byte ptr ", "word ptr ", "", "dword ptr ",
                "", "", "", "qword ptr "};
            if (o.mem.width <= 8)
                s += widthPrefix[o.mem.width];
            else if (o.mem.width == 16)
                s += "xmmword ptr ";
            else
                s += "ymmword ptr ";
            s += "[" + regName(o.mem.base);
            if (o.mem.index.valid()) {
                s += "+" + regName(o.mem.index);
                if (o.mem.scale > 1)
                    s += "*" + std::to_string(o.mem.scale);
            }
            if (o.mem.disp != 0) {
                s += (o.mem.disp > 0 ? "+" : "") + std::to_string(o.mem.disp);
            }
            s += "]";
            break;
          }
          case Operand::Kind::Imm:
            s += std::to_string(o.imm);
            break;
          case Operand::Kind::None:
            break;
        }
    }
    return s;
}

} // namespace facile::isa
