#include "bb/basic_block.h"

#include <utility>

#include "isa/encoder.h"

namespace facile::bb {

namespace {

/** Sum the block's per-instruction µop counts into its totals. */
void
sumTotals(BasicBlock &blk)
{
    int fused = 0, issue = 0;
    for (const AnnotatedInst &ai : blk.insts) {
        fused += ai.info.fusedUops;
        issue += ai.info.issueUops;
    }
    blk.totalFusedUops = fused;
    blk.totalIssueUops = issue;
}

/** The JCC-erratum test over the instructions' layout. */
bool
touchesJccErratum(const std::vector<AnnotatedInst> &insts)
{
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const AnnotatedInst &ai = insts[i];
        if (!ai.dec.inst.isBranch())
            continue;
        // For a macro-fused pair, the fused unit starts at the first
        // instruction of the pair.
        int start = ai.start;
        if (ai.fusedWithPrev && i > 0)
            start = insts[i - 1].start;
        int lastByte = ai.end - 1;
        if (start / 32 != lastByte / 32 || ai.end % 32 == 0)
            return true;
    }
    return false;
}

} // namespace

uops::InstrInfo &
BasicBlock::mutableInfo(std::size_t i)
{
    sumTotals(*this);
    return insts[i].info;
}

BasicBlock
analyze(std::vector<std::uint8_t> bytes, uarch::UArch arch)
{
    const uarch::MicroArchConfig &cfg = uarch::config(arch);

    BasicBlock blk;
    blk.bytes = std::move(bytes);
    blk.arch = arch;
    // Every instruction is at least one byte long, so the array never
    // grows past this one allocation.
    blk.insts.reserve(blk.bytes.size());

    std::size_t pos = 0;
    while (pos < blk.bytes.size()) {
        AnnotatedInst &ai = blk.insts.emplace_back();
        ai.dec = isa::decodeOne(blk.bytes.data(), blk.bytes.size(), pos);
        ai.info = uops::lookup(ai.dec.inst, cfg);
        ai.rw = isa::instRw(ai.dec.inst);
        ai.start = static_cast<int>(pos);
        ai.opcodePos = static_cast<int>(pos) + ai.dec.opcodeOffset;
        ai.end = static_cast<int>(pos) + ai.dec.length;
        pos += ai.dec.length;
    }

    // Macro-fusion pairing: fold a fusible instruction and the directly
    // following conditional branch into one unit. The combined unit lives
    // in the first instruction; the branch is marked fusedWithPrev and
    // carries no µops of its own.
    for (std::size_t i = 0; i + 1 < blk.insts.size(); ++i) {
        AnnotatedInst &first = blk.insts[i];
        AnnotatedInst &second = blk.insts[i + 1];
        if (first.fusedWithPrev || !first.info.macroFusible ||
            !uops::macroFusesWith(first.dec.inst, second.dec.inst, cfg))
            continue;

        // The pair executes as a single µop on the branch ports; a
        // micro-fused load of the first instruction is retained.
        // Fused-domain counts stay those of the first instruction: the
        // branch no longer occupies a decode, issue, or retire slot.
        uops::PortUops merged;
        for (const auto &u : first.info.portUops)
            if (u.kind != uops::UopKind::Compute)
                merged.push_back(u);
        for (const auto &u : second.info.portUops)
            merged.push_back(u);
        first.info.portUops = merged;

        second.info.fusedUops = 0;
        second.info.issueUops = 0;
        second.info.portUops.clear();
        second.info.needsComplexDecoder = false;

        second.fusedWithPrev = true;
        ++i; // a branch cannot itself start another pair
    }

    // Block-level facts, once here instead of once per component on
    // every predict. The JCC test runs after fusion pairing, which
    // moves a fused pair's start.
    sumTotals(blk);
    blk.jccErratumTouch = touchesJccErratum(blk.insts);

    return blk;
}

BasicBlock
analyze(const std::vector<isa::Inst> &insts, uarch::UArch arch)
{
    return analyze(isa::encodeBlock(insts), arch);
}

} // namespace facile::bb
