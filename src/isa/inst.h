/**
 * @file
 * Instruction representation: mnemonics, condition codes, operands,
 * and the Inst struct produced by the builder API and by the decoder.
 */
#ifndef FACILE_ISA_INST_H
#define FACILE_ISA_INST_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "isa/regs.h"
#include "support/inline_vec.h"

namespace facile::isa {

/** Mnemonics of the supported x86-64 subset. */
enum class Mnemonic : std::uint16_t {
    // Scalar integer.
    ADD, SUB, ADC, SBB, AND, OR, XOR, CMP, TEST,
    MOV, MOVZX, MOVSX, LEA,
    INC, DEC, NEG, NOT,
    IMUL, MUL, DIV, IDIV,
    SHL, SHR, SAR, ROL, ROR,
    XCHG, PUSH, POP,
    BSWAP, BSF, BSR, POPCNT, LZCNT, TZCNT,
    NOP,
    JCC, JMP, CALL, RET,
    SETCC, CMOVCC,
    // SSE (legacy encoded).
    MOVAPS, MOVUPS, MOVAPD, MOVSS, MOVSD,
    ADDPS, ADDPD, ADDSS, ADDSD,
    SUBPS, SUBPD, SUBSD,
    MULPS, MULPD, MULSS, MULSD,
    DIVPS, DIVPD, DIVSS, DIVSD,
    SQRTPS, SQRTPD, SQRTSD,
    MINPS, MAXPS,
    ANDPS, ORPS, XORPS,
    PXOR, PADDD, PADDQ, PSUBD, PAND, POR, PMULLD,
    PSLLD, PSRLD, SHUFPS, PUNPCKLDQ,
    CVTSI2SD, CVTTSD2SI, MOVD, MOVQ,
    // AVX (VEX encoded).
    VMOVAPS, VMOVUPS,
    VADDPS, VADDPD, VADDSD,
    VSUBPS, VMULPS, VMULPD, VMULSD,
    VDIVPS, VDIVSD, VSQRTPD,
    VANDPS, VXORPS, VPXOR, VPADDD, VPMULLD,
    VFMADD231PS, VFMADD231PD, VFMADD231SD,
    kNumMnemonics,
};

/** Condition codes for JCC / SETCC / CMOVCC (x86 encoding order). */
enum class Cond : std::uint8_t {
    O = 0, NO, B, NB, E, NE, BE, NBE,
    S, NS, P, NP, L, NL, LE, NLE,
    None = 0xff,
};

/** Memory operand: [base + index*scale + disp], width in bytes. */
struct MemOp
{
    // Widest field first: 12 bytes, no interior padding.
    std::int32_t disp = 0;
    Reg base;            ///< must be a Gpr64 (subset restriction)
    Reg index;           ///< Gpr64 or None
    std::uint8_t scale = 1; ///< 1, 2, 4, or 8
    std::uint8_t width = 8; ///< access width in bytes

    bool operator==(const MemOp &o) const = default;
};

/** One instruction operand (tagged union). */
struct Operand
{
    enum class Kind : std::uint8_t { None, Reg, Mem, Imm };

    // Widest field first: 24 bytes instead of 40 (an Inst holds up to
    // four of these, by value, in every analyzed instruction).
    std::int64_t imm = 0;
    MemOp mem;
    Kind kind = Kind::None;
    Reg reg;
    std::uint8_t immWidth = 0; ///< immediate width in bytes (1, 2, or 4)

    static Operand
    makeReg(Reg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }

    static Operand
    makeMem(MemOp m)
    {
        Operand o;
        o.kind = Kind::Mem;
        o.mem = m;
        return o;
    }

    static Operand
    makeImm(std::int64_t v, int width_bytes)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        o.immWidth = static_cast<std::uint8_t>(width_bytes);
        return o;
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isMem() const { return kind == Kind::Mem; }
    bool isImm() const { return kind == Kind::Imm; }

    bool operator==(const Operand &o) const = default;
};

/**
 * Most operands of any supported instruction: the VEX three-operand
 * forms and IMUL r, r/m, imm.
 */
inline constexpr std::size_t kMaxOperands = 3;

/** An instruction's operands, held inline. */
using Operands = support::InlineVec<Operand, kMaxOperands>;

/** A decoded or constructed instruction. */
struct Inst
{
    Mnemonic mnem = Mnemonic::NOP;
    Cond cc = Cond::None;  ///< for JCC / SETCC / CMOVCC
    Operands ops;

    /** Explicit NOP length request (1..15); encoder pads accordingly. */
    std::uint8_t nopLen = 1;

    Inst() = default;
    /** @throws std::length_error for more than kMaxOperands operands. */
    Inst(Mnemonic m, Operands o) : mnem(m), ops(o) {}
    Inst(Mnemonic m, Cond c, Operands o) : mnem(m), cc(c), ops(o) {}

    bool isBranch() const
    {
        return mnem == Mnemonic::JCC || mnem == Mnemonic::JMP ||
               mnem == Mnemonic::CALL || mnem == Mnemonic::RET;
    }

    bool
    hasMemOperand() const
    {
        for (const auto &o : ops)
            if (o.isMem())
                return true;
        return false;
    }

    /** First memory operand, if any. */
    const MemOp *
    memOperand() const
    {
        for (const auto &o : ops)
            if (o.isMem())
                return &o.mem;
        return nullptr;
    }

    /**
     * True if the destination (first operand) is written to memory.
     * Also true for PUSH / CALL, which store implicitly.
     */
    bool isStore() const;

    /** True if the instruction reads from memory (incl. POP / RET). */
    bool isLoad() const;

    /** Main operand width in bytes (destination width; 0 if N/A). */
    int operandWidth() const;
};

/** Name of a mnemonic, lower case (e.g. "add"). JCC prints as "j<cc>". */
std::string mnemonicName(Mnemonic m);

/** Condition-code suffix, e.g. "e", "ne", "le". */
std::string condName(Cond c);

/** Intel-syntax rendering of an instruction, e.g. "add rax, [rbx+8]". */
std::string toString(const Inst &inst);

} // namespace facile::isa

#endif // FACILE_ISA_INST_H
