/**
 * @file
 * Per-family instruction tables.
 *
 * Port layouts per family (documented substitution for uops.info):
 *
 *   SnB/IvB (6 ports):  p0,p1,p5 compute; p2,p3 load+AGU; p4 store data
 *   HSW/BDW (8 ports):  p0,p1,p5,p6 int ALU; p0,p1 FP; p5 shuffle;
 *                       p2,p3 load+AGU; p7 store AGU; p4 store data
 *   SKL/CLX (8 ports):  as HSW with FP add/mul unified on p0,p1
 *   ICL/TGL/RKL (10):   p0,p1,p5,p6 int ALU; p2,p3 load; p7,p8 store AGU;
 *                       p4,p9 store data; shuffles on p1,p5
 */
#include "uops/info.h"

#include "isa/semantics.h"

namespace facile::uops {

namespace {

using isa::Inst;
using isa::Mnemonic;
using uarch::MicroArchConfig;
using uarch::UArchFamily;

constexpr PortMask
mask(std::initializer_list<int> ports)
{
    PortMask m = 0;
    for (int p : ports)
        m |= static_cast<PortMask>(1u << p);
    return m;
}

/** Port sets for the µop classes of one family. */
struct PortClasses
{
    PortMask alu, shift, branch, imul, lea, leaSlow;
    PortMask fpAdd, fpMul, fma, fpDiv;
    PortMask vecLogic, vecIntAdd, vecIntMul, vecShift, shuffle;
    PortMask load, storeAgu, storeData, movd;
    int fpAddLat, fpMulLat, fmaLat;
    int divF32Lat, divF64Lat, sqrtF32Lat, sqrtF64Lat;
};

const PortClasses &
portClasses(UArchFamily f)
{
    static const PortClasses snb = {
        .alu = mask({0, 1, 5}),
        .shift = mask({0, 5}),
        .branch = mask({5}),
        .imul = mask({1}),
        .lea = mask({0, 1}),
        .leaSlow = mask({1}),
        .fpAdd = mask({1}),
        .fpMul = mask({0}),
        .fma = mask({0}), // no FMA hardware; modeled on the FP-mul port
        .fpDiv = mask({0}),
        .vecLogic = mask({0, 1, 5}),
        .vecIntAdd = mask({1, 5}),
        .vecIntMul = mask({0}),
        .vecShift = mask({0}),
        .shuffle = mask({5}),
        .load = mask({2, 3}),
        .storeAgu = mask({2, 3}),
        .storeData = mask({4}),
        .movd = mask({0}),
        .fpAddLat = 3,
        .fpMulLat = 5,
        .fmaLat = 5,
        .divF32Lat = 14,
        .divF64Lat = 22,
        .sqrtF32Lat = 14,
        .sqrtF64Lat = 21,
    };
    static const PortClasses hsw = {
        .alu = mask({0, 1, 5, 6}),
        .shift = mask({0, 6}),
        .branch = mask({0, 6}),
        .imul = mask({1}),
        .lea = mask({1, 5}),
        .leaSlow = mask({1}),
        .fpAdd = mask({1}),
        .fpMul = mask({0, 1}),
        .fma = mask({0, 1}),
        .fpDiv = mask({0}),
        .vecLogic = mask({0, 1, 5}),
        .vecIntAdd = mask({1, 5}),
        .vecIntMul = mask({0}),
        .vecShift = mask({0}),
        .shuffle = mask({5}),
        .load = mask({2, 3}),
        .storeAgu = mask({2, 3, 7}),
        .storeData = mask({4}),
        .movd = mask({0}),
        .fpAddLat = 3,
        .fpMulLat = 5,
        .fmaLat = 5,
        .divF32Lat = 13,
        .divF64Lat = 20,
        .sqrtF32Lat = 13,
        .sqrtF64Lat = 19,
    };
    static const PortClasses skl = {
        .alu = mask({0, 1, 5, 6}),
        .shift = mask({0, 6}),
        .branch = mask({0, 6}),
        .imul = mask({1}),
        .lea = mask({1, 5}),
        .leaSlow = mask({1}),
        .fpAdd = mask({0, 1}),
        .fpMul = mask({0, 1}),
        .fma = mask({0, 1}),
        .fpDiv = mask({0}),
        .vecLogic = mask({0, 1, 5}),
        .vecIntAdd = mask({0, 1, 5}),
        .vecIntMul = mask({0, 1}),
        .vecShift = mask({0, 1}),
        .shuffle = mask({5}),
        .load = mask({2, 3}),
        .storeAgu = mask({2, 3, 7}),
        .storeData = mask({4}),
        .movd = mask({0}),
        .fpAddLat = 4,
        .fpMulLat = 4,
        .fmaLat = 4,
        .divF32Lat = 11,
        .divF64Lat = 14,
        .sqrtF32Lat = 12,
        .sqrtF64Lat = 15,
    };
    static const PortClasses icl = {
        .alu = mask({0, 1, 5, 6}),
        .shift = mask({0, 6}),
        .branch = mask({0, 6}),
        .imul = mask({1}),
        .lea = mask({1, 5}),
        .leaSlow = mask({1}),
        .fpAdd = mask({0, 1}),
        .fpMul = mask({0, 1}),
        .fma = mask({0, 1}),
        .fpDiv = mask({0}),
        .vecLogic = mask({0, 1, 5}),
        .vecIntAdd = mask({0, 1, 5}),
        .vecIntMul = mask({0, 1}),
        .vecShift = mask({0, 1}),
        .shuffle = mask({1, 5}),
        .load = mask({2, 3}),
        .storeAgu = mask({7, 8}),
        .storeData = mask({4, 9}),
        .movd = mask({0}),
        .fpAddLat = 4,
        .fpMulLat = 4,
        .fmaLat = 4,
        .divF32Lat = 11,
        .divF64Lat = 14,
        .sqrtF32Lat = 12,
        .sqrtF64Lat = 15,
    };
    switch (f) {
      case UArchFamily::SnB:
        return snb;
      case UArchFamily::HSW:
        return hsw;
      case UArchFamily::SKL:
        return skl;
      case UArchFamily::ICL:
        return icl;
    }
    return skl;
}

/** Compute-part description of an instruction (register form). */
struct ComputeDesc
{
    int uops = 0;        ///< number of compute µops
    PortMask ports = 0;  ///< ports of each compute µop
    PortMask ports2 = 0; ///< ports of the 2nd µop, if different
    int latency = 1;
    bool eliminated = false; ///< handled at rename (no ports, lat 0)
};

/** Whether a scalar FP mnemonic operates on F32 or F64 lanes. */
bool
isF64(Mnemonic m)
{
    switch (m) {
      case Mnemonic::ADDPD: case Mnemonic::ADDSD: case Mnemonic::SUBPD:
      case Mnemonic::SUBSD: case Mnemonic::MULPD: case Mnemonic::MULSD:
      case Mnemonic::DIVPD: case Mnemonic::DIVSD: case Mnemonic::SQRTPD:
      case Mnemonic::SQRTSD: case Mnemonic::MOVAPD: case Mnemonic::MOVSD:
      case Mnemonic::VADDPD: case Mnemonic::VADDSD: case Mnemonic::VMULPD:
      case Mnemonic::VMULSD: case Mnemonic::VDIVSD: case Mnemonic::VSQRTPD:
      case Mnemonic::VFMADD231PD: case Mnemonic::VFMADD231SD:
        return true;
      default:
        return false;
    }
}

/** Compute-part description for the register form of @p inst. */
ComputeDesc
computeDesc(const Inst &inst, const MicroArchConfig &cfg,
            const PortClasses &pc)
{
    using M = Mnemonic;
    ComputeDesc d;
    d.uops = 1;
    d.ports = pc.alu;
    d.latency = 1;

    const bool regRegMov =
        inst.ops.size() == 2 && inst.ops[0].isReg() && inst.ops[1].isReg();

    if (isa::isZeroIdiom(inst)) {
        d.uops = 1;
        d.eliminated = true;
        d.latency = 0;
        return d;
    }

    switch (inst.mnem) {
      case M::ADD: case M::SUB: case M::AND: case M::OR: case M::XOR:
      case M::CMP: case M::TEST: case M::INC: case M::DEC: case M::NEG:
      case M::NOT: case M::SETCC:
        break; // 1 ALU µop, latency 1

      case M::MOVZX:
      case M::MOVSX:
        if (inst.ops.size() == 2 && inst.ops[1].isMem()) {
            d.uops = 0; // the load µop performs the extension
            d.latency = 0;
        }
        break;

      case M::MOV:
        if (regRegMov && inst.ops[0].reg.isGpr() && cfg.gprMovElim &&
            inst.ops[0].reg.width() >= 4) {
            d.eliminated = true;
            d.latency = 0;
        } else if (inst.hasMemOperand()) {
            d.uops = 0; // pure load or pure store
            d.latency = 0;
        }
        break;

      case M::ADC: case M::SBB:
        if (cfg.adcTwoUops) {
            d.uops = 2;
            d.latency = 2;
        }
        break;

      case M::CMOVCC:
        if (cfg.cmovTwoUops) {
            d.uops = 2;
            d.latency = 2;
        }
        break;

      case M::LEA: {
        const isa::MemOp *m = inst.memOperand();
        bool slow = m && m->base.valid() && m->index.valid() && m->disp != 0;
        if (slow) {
            d.ports = pc.leaSlow;
            d.latency = 3;
        } else {
            d.ports = pc.lea;
            d.latency = 1;
        }
        break;
      }

      case M::IMUL:
        if (inst.ops.size() == 1) {
            d.uops = 2;
            d.ports = pc.imul;
            d.ports2 = pc.alu;
            d.latency = 3;
        } else {
            d.ports = pc.imul;
            d.latency = 3;
        }
        break;

      case M::MUL:
        d.uops = 2;
        d.ports = pc.imul;
        d.ports2 = pc.alu;
        d.latency = 3;
        break;

      case M::DIV:
      case M::IDIV: {
        bool wide = inst.operandWidth() == 8;
        d.uops = wide ? kWideDivComputeUops : 10;
        d.ports = pc.fpDiv; // the integer divider shares port 0
        d.ports2 = pc.alu;
        d.latency = wide ? 40 : 26;
        break;
      }

      case M::SHL: case M::SHR: case M::SAR: case M::ROL: case M::ROR:
        d.ports = pc.shift;
        if (inst.ops.size() == 2 && inst.ops[1].isReg())
            d.uops = 2; // shift by CL carries a flags-merge µop
        break;

      case M::XCHG:
        d.uops = 3;
        d.latency = 2;
        break;

      case M::BSWAP:
        if (inst.operandWidth() == 8) {
            d.uops = 2;
            d.latency = 2;
        }
        break;

      case M::BSF: case M::BSR: case M::POPCNT: case M::LZCNT:
      case M::TZCNT:
        d.ports = pc.imul;
        d.latency = 3;
        break;

      case M::NOP:
        d.uops = 1;
        d.eliminated = true;
        d.latency = 0;
        break;

      case M::JCC: case M::JMP:
        d.ports = pc.branch;
        break;

      case M::CALL:
        // Store of the return address plus the branch µop; the store part
        // is added by the memory-form logic via isStore().
        d.ports = pc.branch;
        break;

      case M::RET:
        d.uops = 2;
        d.ports = pc.load;
        d.ports2 = pc.branch;
        d.latency = 2;
        break;

      case M::PUSH: case M::POP:
        d.uops = 0; // pure stack store/load; memory µops added below
        break;

      // ---- vector / FP ----
      case M::MOVAPS: case M::MOVUPS: case M::MOVAPD:
      case M::VMOVAPS: case M::VMOVUPS:
        if (regRegMov && cfg.vecMovElim) {
            d.eliminated = true;
            d.latency = 0;
        } else if (inst.hasMemOperand()) {
            d.uops = 0; // pure vector load or store
            d.latency = 0;
        } else {
            d.ports = pc.vecLogic;
        }
        break;

      case M::MOVSS: case M::MOVSD:
        if (regRegMov)
            d.ports = pc.shuffle; // merge into low lane
        else
            d.uops = 0; // pure load/store
        break;

      case M::ADDPS: case M::ADDPD: case M::ADDSS: case M::ADDSD:
      case M::SUBPS: case M::SUBPD: case M::SUBSD:
      case M::MINPS: case M::MAXPS:
      case M::VADDPS: case M::VADDPD: case M::VADDSD: case M::VSUBPS:
        d.ports = pc.fpAdd;
        d.latency = pc.fpAddLat;
        break;

      case M::MULPS: case M::MULPD: case M::MULSS: case M::MULSD:
      case M::VMULPS: case M::VMULPD: case M::VMULSD:
        d.ports = pc.fpMul;
        d.latency = pc.fpMulLat;
        break;

      case M::VFMADD231PS: case M::VFMADD231PD: case M::VFMADD231SD:
        d.ports = pc.fma;
        d.latency = pc.fmaLat;
        break;

      case M::DIVPS: case M::DIVSS: case M::VDIVPS:
        d.ports = pc.fpDiv;
        d.latency = pc.divF32Lat;
        break;
      case M::DIVPD: case M::DIVSD: case M::VDIVSD:
        d.ports = pc.fpDiv;
        d.latency = pc.divF64Lat;
        break;
      case M::SQRTPS:
        d.ports = pc.fpDiv;
        d.latency = pc.sqrtF32Lat;
        break;
      case M::SQRTPD: case M::SQRTSD: case M::VSQRTPD:
        d.ports = pc.fpDiv;
        d.latency = pc.sqrtF64Lat;
        break;

      case M::ANDPS: case M::ORPS: case M::XORPS:
      case M::PXOR: case M::PAND: case M::POR:
      case M::VANDPS: case M::VXORPS: case M::VPXOR:
        d.ports = pc.vecLogic;
        break;

      case M::PADDD: case M::PADDQ: case M::PSUBD: case M::VPADDD:
        d.ports = pc.vecIntAdd;
        break;

      case M::PMULLD: case M::VPMULLD:
        d.ports = pc.vecIntMul;
        d.latency = cfg.family == UArchFamily::SnB ? 5 : 10;
        break;

      case M::PSLLD: case M::PSRLD:
        d.ports = pc.vecShift;
        break;

      case M::SHUFPS: case M::PUNPCKLDQ:
        d.ports = pc.shuffle;
        break;

      case M::CVTSI2SD:
        d.uops = 2;
        d.ports = pc.imul;
        d.ports2 = pc.shuffle;
        d.latency = 5;
        break;

      case M::CVTTSD2SI:
        d.uops = 2;
        d.ports = pc.movd;
        d.ports2 = pc.imul;
        d.latency = 6;
        break;

      case M::MOVD: case M::MOVQ:
        d.ports = pc.movd;
        d.latency = 2;
        break;

      case M::kNumMnemonics:
        break;
    }

    (void)isF64; // latency selection above is explicit per mnemonic
    return d;
}

} // namespace

bool
macroFusesWith(const Inst &first, const Inst &jcc,
               const MicroArchConfig &cfg)
{
    using M = Mnemonic;
    using isa::Cond;
    if (jcc.mnem != M::JCC)
        return false;

    // Instructions with RIP-relative or immediate+memory forms are
    // excluded in hardware; the SnB family does not fuse memory forms.
    bool hasMem = first.hasMemOperand();
    bool hasImm = !first.ops.empty() && first.ops.back().isImm();
    if (hasMem && (hasImm || cfg.family == UArchFamily::SnB))
        return false;

    auto ccReadsCf = [&] {
        switch (jcc.cc) {
          case Cond::B: case Cond::NB: case Cond::BE: case Cond::NBE:
            return true;
          default:
            return false;
        }
    };
    auto ccTestsSignOverflowParity = [&] {
        switch (jcc.cc) {
          case Cond::S: case Cond::NS: case Cond::P: case Cond::NP:
          case Cond::O: case Cond::NO:
            return true;
          default:
            return false;
        }
    };

    switch (first.mnem) {
      case M::TEST:
      case M::AND:
        return true; // fuse with all condition codes
      case M::CMP:
      case M::ADD:
      case M::SUB:
        return !ccTestsSignOverflowParity();
      case M::INC:
      case M::DEC:
        return !ccReadsCf() && !ccTestsSignOverflowParity();
      default:
        return false;
    }
}

InstrInfo
lookup(const Inst &inst, const MicroArchConfig &cfg)
{
    using M = Mnemonic;
    const PortClasses &pc = portClasses(cfg.family);
    ComputeDesc d = computeDesc(inst, cfg, pc);

    InstrInfo info;
    info.latency = d.latency;

    const bool hasLoad = inst.isLoad();
    const bool hasStore = inst.isStore();
    const bool indexed = [&] {
        const isa::MemOp *m = inst.memOperand();
        return m && m->index.valid();
    }();
    // PUSH/POP/CALL/RET use the stack engine: rsp-relative, never indexed.
    const bool stackOp = inst.mnem == M::PUSH || inst.mnem == M::POP ||
                         inst.mnem == M::CALL || inst.mnem == M::RET;

    // --- unfused execution µops -----------------------------------------
    if (hasLoad && inst.mnem != M::RET) // RET's load is in its compute µops
        info.portUops.push_back({pc.load, UopKind::Load});
    if (d.eliminated) {
        info.eliminated = true;
    } else {
        for (int i = 0; i < d.uops; ++i) {
            PortMask p = (i == 1 && d.ports2) ? d.ports2 : d.ports;
            info.portUops.push_back({p, UopKind::Compute});
        }
    }
    if (hasStore) {
        info.portUops.push_back({pc.storeAgu, UopKind::StoreAddr});
        info.portUops.push_back({pc.storeData, UopKind::StoreData});
    }

    // --- fused-domain µop counts -----------------------------------------
    // Decode-time fused-domain count: micro-fusion keeps a load combined
    // with its compute µop, and a store's address and data µops combined.
    int fused = d.uops;
    if (d.eliminated)
        fused = 1;
    if (hasLoad && inst.mnem != M::RET) {
        if (d.uops == 0)
            fused += 1; // pure load
        // otherwise the load micro-fuses with the first compute µop
    }
    if (hasStore)
        fused += 1; // store-address + store-data micro-fused pair
    if (inst.mnem == M::RET)
        fused = 2;
    if (fused == 0)
        fused = 1;
    info.fusedUops = fused;

    // --- unlamination ------------------------------------------------------
    // Micro-fused pairs with indexed addressing are split ("unlaminated")
    // before issue: on SnB/IvB all of them, on later families only the
    // store-address/store-data pairs and RMW forms.
    int issue = fused;
    if (indexed && !stackOp) {
        if (cfg.family == UArchFamily::SnB) {
            if (hasLoad && d.uops > 0)
                issue += 1;
            if (hasStore)
                issue += 1;
        } else {
            if (hasStore)
                issue += 1;
        }
    }
    info.issueUops = issue;

    // --- decoder requirements ---------------------------------------------
    info.needsComplexDecoder = info.fusedUops > 1;
    if (info.fusedUops <= 2)
        info.nAvailableSimpleDecoders = cfg.nDecoders - 1;
    else if (info.fusedUops == 3)
        info.nAvailableSimpleDecoders = 1;
    else
        info.nAvailableSimpleDecoders = 0; // microcoded / long flows

    // --- macro fusion -------------------------------------------------------
    switch (inst.mnem) {
      case M::CMP: case M::TEST: case M::ADD: case M::SUB: case M::AND:
      case M::INC: case M::DEC:
        info.macroFusible = !(inst.hasMemOperand() &&
                              cfg.family == UArchFamily::SnB);
        break;
      default:
        info.macroFusible = false;
        break;
    }

    return info;
}

} // namespace facile::uops
