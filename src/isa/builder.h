/**
 * @file
 * Convenience builders for instructions and operands.
 *
 * Example:
 *   using namespace facile::isa;
 *   Inst i = make(Mnemonic::ADD, R(RAX), M(mem(RBX, 8)));
 */
#ifndef FACILE_ISA_BUILDER_H
#define FACILE_ISA_BUILDER_H

#include "isa/inst.h"

namespace facile::isa {

/** Register operand. */
inline Operand
R(Reg r)
{
    return Operand::makeReg(r);
}

/** Memory operand. */
inline Operand
M(MemOp m)
{
    return Operand::makeMem(m);
}

/** Immediate operand with explicit encoded width (1, 2, or 4 bytes). */
inline Operand
I(std::int64_t v, int width = 1)
{
    return Operand::makeImm(v, width);
}

/**
 * Immediate with automatically chosen canonical width: imm8 if the value
 * fits, otherwise imm16 for 16-bit destinations and imm32 otherwise.
 */
inline Operand
autoImm(std::int64_t v, int operand_width)
{
    if (v >= -128 && v <= 127)
        return Operand::makeImm(v, 1);
    return Operand::makeImm(v, operand_width == 2 ? 2 : 4);
}

/** [base + disp], with explicit access width in bytes. */
inline MemOp
mem(Reg base, std::int32_t disp = 0, int width = 8)
{
    MemOp m;
    m.base = base;
    m.disp = disp;
    m.width = static_cast<std::uint8_t>(width);
    return m;
}

/** [base + index*scale + disp]. */
inline MemOp
memIdx(Reg base, Reg index, int scale = 1, std::int32_t disp = 0,
       int width = 8)
{
    MemOp m;
    m.base = base;
    m.index = index;
    m.scale = static_cast<std::uint8_t>(scale);
    m.disp = disp;
    m.width = static_cast<std::uint8_t>(width);
    return m;
}

/**
 * Generic instruction builder.
 * @throws std::length_error for more than kMaxOperands operands.
 */
inline Inst
make(Mnemonic m, Operands ops = {})
{
    return Inst(m, ops);
}

/**
 * Conditional instruction builder (JCC / SETCC / CMOVCC).
 * @throws std::length_error for more than kMaxOperands operands.
 */
inline Inst
makeCC(Mnemonic m, Cond cc, Operands ops = {})
{
    return Inst(m, cc, ops);
}

/** NOP of a specific encoded length (1..15 bytes). */
inline Inst
nop(int len = 1)
{
    Inst i(Mnemonic::NOP, {});
    i.nopLen = static_cast<std::uint8_t>(len);
    return i;
}

/** Backward conditional jump (loop back-edge), rel8 = -len. */
inline Inst
backEdge(Cond cc = Cond::NE, int rel = -2)
{
    return makeCC(Mnemonic::JCC, cc, {I(rel, 1)});
}

} // namespace facile::isa

#endif // FACILE_ISA_BUILDER_H
