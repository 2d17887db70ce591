#include "isa/semantics.h"

#include <algorithm>

namespace facile::isa {

namespace {

/** Flag values read by a condition code. */
void
condReads(Cond cc, ValueSet &reads)
{
    switch (cc) {
      case Cond::B:
      case Cond::NB:
        reads.insert(kValCf);
        break;
      case Cond::BE:
      case Cond::NBE:
        reads.insert(kValCf);
        reads.insert(kValFlags);
        break;
      default:
        reads.insert(kValFlags);
        break;
    }
}

/** Collector with convenience helpers; fills a caller-owned RwSets. */
struct Collector
{
    RwSets &rw;

    void
    read(Reg r)
    {
        if (r.valid())
            rw.reads.insert(valueOf(r));
    }

    void readVal(int v) { rw.reads.insert(v); }

    void
    write(Reg r)
    {
        if (r.valid())
            rw.writes.insert(valueOf(r));
    }

    void writeVal(int v) { rw.writes.insert(v); }

    void
    writeFlagsAll()
    {
        writeVal(kValCf);
        writeVal(kValFlags);
    }

    /** Read the address registers of memory operands. */
    void
    readAddrs(const Inst &inst)
    {
        for (const auto &o : inst.ops) {
            if (o.isMem()) {
                read(o.mem.base);
                read(o.mem.index);
            }
        }
    }

    /**
     * Write the destination register; partial (8/16-bit) writes merge
     * with, and therefore read, the old value.
     */
    void
    writeDst(Reg r)
    {
        if (!r.valid())
            return;
        if (r.width() <= 2)
            rw.reads.insert(valueOf(r));
        rw.writes.insert(valueOf(r));
    }
};

bool
sameRegOps(const Inst &inst, std::size_t a, std::size_t b)
{
    return inst.ops.size() > std::max(a, b) && inst.ops[a].isReg() &&
           inst.ops[b].isReg() && inst.ops[a].reg == inst.ops[b].reg;
}

} // namespace

bool
isZeroIdiom(const Inst &inst)
{
    using M = Mnemonic;
    switch (inst.mnem) {
      case M::XOR:
      case M::SUB:
        // 8/16-bit forms still merge the upper bits, so only wider forms
        // break dependencies.
        return sameRegOps(inst, 0, 1) && inst.ops[0].reg.width() >= 4;
      case M::PXOR:
      case M::XORPS:
        return sameRegOps(inst, 0, 1);
      case M::VPXOR:
      case M::VXORPS:
        return sameRegOps(inst, 1, 2);
      default:
        return false;
    }
}

RwSets
instRw(const Inst &inst)
{
    using M = Mnemonic;
    RwSets out;
    Collector c{out};

    auto regOf = [&](std::size_t i) -> Reg {
        return i < inst.ops.size() && inst.ops[i].isReg() ? inst.ops[i].reg
                                                          : Reg{};
    };
    auto readOp = [&](std::size_t i) {
        if (i < inst.ops.size() && inst.ops[i].isReg())
            c.read(inst.ops[i].reg);
    };

    if (isZeroIdiom(inst)) {
        c.rw.depBreaking = true;
        c.write(regOf(0) .valid() ? regOf(0) : regOf(1));
        switch (inst.mnem) {
          case M::XOR:
          case M::SUB:
            c.writeFlagsAll();
            break;
          default:
            break;
        }
        return out;
    }

    c.readAddrs(inst);

    switch (inst.mnem) {
      case M::ADD:
      case M::SUB:
      case M::AND:
      case M::OR:
      case M::XOR:
        readOp(0); // RMW destination
        readOp(1);
        c.writeDst(regOf(0));
        c.writeFlagsAll();
        break;

      case M::ADC:
      case M::SBB:
        readOp(0);
        readOp(1);
        c.readVal(kValCf);
        c.writeDst(regOf(0));
        c.writeFlagsAll();
        break;

      case M::CMP:
      case M::TEST:
        readOp(0);
        readOp(1);
        c.writeFlagsAll();
        break;

      case M::MOV:
        readOp(1);
        c.writeDst(regOf(0));
        break;

      case M::MOVZX:
      case M::MOVSX:
        readOp(1);
        c.writeDst(regOf(0));
        break;

      case M::LEA:
        // Address registers already read by readAddrs().
        c.writeDst(regOf(0));
        break;

      case M::INC:
      case M::DEC:
        readOp(0);
        c.writeDst(regOf(0));
        c.writeVal(kValFlags); // CF preserved
        break;

      case M::NEG:
        readOp(0);
        c.writeDst(regOf(0));
        c.writeFlagsAll();
        break;

      case M::NOT:
        readOp(0);
        c.writeDst(regOf(0));
        break;

      case M::IMUL:
        if (inst.ops.size() == 1) {
            readOp(0);
            c.readVal(0);  // rax
            c.writeVal(0); // rax
            c.writeVal(2); // rdx
            c.writeFlagsAll();
        } else {
            if (inst.ops.size() == 2)
                readOp(0);
            readOp(1);
            c.writeDst(regOf(0));
            c.writeFlagsAll();
        }
        break;

      case M::MUL:
        readOp(0);
        c.readVal(0);
        c.writeVal(0);
        c.writeVal(2);
        c.writeFlagsAll();
        break;

      case M::DIV:
      case M::IDIV:
        readOp(0);
        c.readVal(0);
        c.readVal(2);
        c.writeVal(0);
        c.writeVal(2);
        c.writeFlagsAll();
        break;

      case M::SHL:
      case M::SHR:
      case M::SAR:
      case M::ROL:
      case M::ROR:
        readOp(0);
        readOp(1); // CL if register form
        c.writeDst(regOf(0));
        c.writeFlagsAll();
        break;

      case M::XCHG:
        readOp(0);
        readOp(1);
        c.writeDst(regOf(0));
        c.writeDst(regOf(1));
        break;

      case M::PUSH:
        readOp(0);
        c.readVal(4); // rsp
        c.writeVal(4);
        break;

      case M::POP:
        c.readVal(4);
        c.writeVal(4);
        c.writeDst(regOf(0));
        break;

      case M::CALL:
      case M::RET:
        c.readVal(4);
        c.writeVal(4);
        break;

      case M::BSWAP:
        readOp(0);
        c.writeDst(regOf(0));
        break;

      case M::BSF:
      case M::BSR:
      case M::POPCNT:
      case M::LZCNT:
      case M::TZCNT:
        readOp(1);
        c.writeDst(regOf(0));
        c.writeFlagsAll();
        break;

      case M::NOP:
        break;

      case M::JCC:
        condReads(inst.cc, c.rw.reads);
        break;

      case M::JMP:
        break;

      case M::SETCC:
        condReads(inst.cc, c.rw.reads);
        c.writeDst(regOf(0));
        break;

      case M::CMOVCC:
        condReads(inst.cc, c.rw.reads);
        readOp(0); // may keep old value
        readOp(1);
        c.writeDst(regOf(0));
        break;

      // ---- SSE two-operand (dst is also a source) ----
      case M::ADDPS: case M::ADDPD: case M::ADDSS: case M::ADDSD:
      case M::SUBPS: case M::SUBPD: case M::SUBSD:
      case M::MULPS: case M::MULPD: case M::MULSS: case M::MULSD:
      case M::DIVPS: case M::DIVPD: case M::DIVSS: case M::DIVSD:
      case M::MINPS: case M::MAXPS:
      case M::ANDPS: case M::ORPS: case M::XORPS:
      case M::PXOR: case M::PADDD: case M::PADDQ: case M::PSUBD:
      case M::PAND: case M::POR: case M::PMULLD:
      case M::SHUFPS: case M::PUNPCKLDQ:
        readOp(0);
        readOp(1);
        c.write(regOf(0));
        break;

      case M::SQRTPS:
      case M::SQRTPD:
        readOp(1);
        c.write(regOf(0));
        break;

      case M::SQRTSD:
        // Scalar sqrt merges the upper lanes of dst.
        readOp(0);
        readOp(1);
        c.write(regOf(0));
        break;

      case M::PSLLD:
      case M::PSRLD:
        readOp(0);
        c.write(regOf(0));
        break;

      case M::MOVAPS:
      case M::MOVUPS:
      case M::MOVAPD:
        readOp(1);
        c.write(regOf(0));
        break;

      case M::MOVSS:
      case M::MOVSD:
        // Reg-reg form merges into dst; load form replaces low lane and
        // zeroes the rest.
        if (inst.ops.size() == 2 && inst.ops[0].isReg() &&
            inst.ops[1].isReg())
            readOp(0);
        readOp(1);
        c.write(regOf(0));
        break;

      case M::CVTSI2SD:
        readOp(0); // merges upper lanes
        readOp(1);
        c.write(regOf(0));
        break;

      case M::CVTTSD2SI:
        readOp(1);
        c.writeDst(regOf(0));
        break;

      case M::MOVD:
      case M::MOVQ:
        readOp(1);
        c.write(regOf(0));
        break;

      // ---- AVX ----
      case M::VMOVAPS:
      case M::VMOVUPS:
        readOp(1);
        c.write(regOf(0));
        break;

      case M::VSQRTPD:
        readOp(1);
        c.write(regOf(0));
        break;

      case M::VADDPS: case M::VADDPD: case M::VADDSD:
      case M::VSUBPS:
      case M::VMULPS: case M::VMULPD: case M::VMULSD:
      case M::VDIVPS: case M::VDIVSD:
      case M::VANDPS: case M::VXORPS:
      case M::VPXOR: case M::VPADDD: case M::VPMULLD:
        readOp(1);
        readOp(2);
        c.write(regOf(0));
        break;

      case M::VFMADD231PS:
      case M::VFMADD231PD:
      case M::VFMADD231SD:
        readOp(0); // accumulator
        readOp(1);
        readOp(2);
        c.write(regOf(0));
        break;

      case M::kNumMnemonics:
        break;
    }
    return out;
}

} // namespace facile::isa
