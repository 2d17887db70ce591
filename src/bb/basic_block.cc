#include "bb/basic_block.h"

#include <utility>

#include "isa/encoder.h"

namespace facile::bb {

namespace {

/** Point every insts[k] at annotations[k]. */
void
pointInto(std::vector<AnnotatedInst> &insts,
          const std::vector<InstAnnotation> &annotations)
{
    for (std::size_t k = 0; k < insts.size(); ++k) {
        insts[k].dec = &annotations[k].dec;
        insts[k].info = &annotations[k].info;
    }
}

} // namespace

int
BasicBlock::fusedUops() const
{
    if (cachedFusedUops >= 0)
        return cachedFusedUops;
    int n = 0;
    for (const auto &ai : insts)
        n += ai.info->fusedUops;
    return n;
}

int
BasicBlock::issueUops() const
{
    if (cachedIssueUops >= 0)
        return cachedIssueUops;
    int n = 0;
    for (const auto &ai : insts)
        n += ai.info->issueUops;
    return n;
}

bool
BasicBlock::touchesJccErratumBoundary() const
{
    if (cachedJccTouch >= 0)
        return cachedJccTouch != 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const AnnotatedInst &ai = insts[i];
        if (!ai.dec->inst.isBranch())
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

uops::InstrInfo &
BasicBlock::mutableInfo(std::size_t i)
{
    if (!annotations || annotations.use_count() > 1) {
        auto own = std::make_shared<std::vector<InstAnnotation>>();
        own->reserve(insts.size());
        for (const AnnotatedInst &ai : insts)
            own->push_back({*ai.dec, *ai.info});
        annotations = std::move(own);
        pointInto(insts, *annotations);
    }
    cachedFusedUops = cachedIssueUops = -1; // counts may change
    return (*annotations)[i].info;
}

BasicBlock
analyze(std::vector<std::uint8_t> bytes, uarch::UArch arch)
{
    const uarch::MicroArchConfig &cfg = uarch::config(arch);

    BasicBlock blk;
    blk.bytes = std::move(bytes);
    blk.arch = arch;
    blk.annotations = std::make_shared<std::vector<InstAnnotation>>();
    std::vector<InstAnnotation> &ann = *blk.annotations;
    // Typical x86 instructions are 3-4 bytes; one growth step at most.
    ann.reserve(blk.bytes.size() / 3 + 1);
    blk.insts.reserve(blk.bytes.size() / 3 + 1);

    std::size_t pos = 0;
    while (pos < blk.bytes.size()) {
        InstAnnotation a;
        a.dec = isa::decodeOne(blk.bytes.data(), blk.bytes.size(), pos);
        a.info = uops::lookup(a.dec.inst, cfg);
        AnnotatedInst ai;
        ai.start = static_cast<int>(pos);
        ai.opcodePos = static_cast<int>(pos) + a.dec.opcodeOffset;
        ai.end = static_cast<int>(pos) + a.dec.length;
        pos += a.dec.length;
        ann.push_back(std::move(a));
        blk.insts.push_back(ai);
    }
    // The annotations stop moving here.
    pointInto(blk.insts, ann);

    // Macro-fusion pairing: fold a fusible instruction and the directly
    // following conditional branch into one unit. The combined unit lives
    // in the first instruction; the branch is marked fusedWithPrev and
    // carries no µops of its own.
    for (std::size_t i = 0; i + 1 < blk.insts.size(); ++i) {
        AnnotatedInst &first = blk.insts[i];
        AnnotatedInst &second = blk.insts[i + 1];
        if (first.fusedWithPrev || !first.info->macroFusible ||
            !uops::macroFusesWith(first.dec->inst, second.dec->inst, cfg))
            continue;

        // The pair executes as a single µop on the branch ports; a
        // micro-fused load of the first instruction is retained.
        // Fused-domain counts stay those of the first instruction: the
        // branch no longer occupies a decode, issue, or retire slot.
        uops::InstrInfo &firstInfo = ann[i].info;
        std::vector<uops::Uop> merged;
        for (const auto &u : firstInfo.portUops)
            if (u.kind != uops::UopKind::Compute)
                merged.push_back(u);
        for (const auto &u : ann[i + 1].info.portUops)
            merged.push_back(u);
        firstInfo.portUops = std::move(merged);

        uops::InstrInfo &secondInfo = ann[i + 1].info;
        secondInfo.fusedUops = 0;
        secondInfo.issueUops = 0;
        secondInfo.portUops.clear();
        secondInfo.needsComplexDecoder = false;

        second.fusedWithPrev = true;
        ++i; // a branch cannot itself start another pair
    }

    // Block-level µop totals: one pass here instead of one per
    // component on every predict.
    int fused = 0, issue = 0;
    for (const auto &ai : blk.insts) {
        fused += ai.info->fusedUops;
        issue += ai.info->issueUops;
    }
    blk.cachedFusedUops = fused;
    blk.cachedIssueUops = issue;
    // The JCC-boundary test is layout-only; compute it once (after
    // fusion pairing, which moves a fused pair's start) instead of
    // rescanning on every TPL predict.
    blk.cachedJccTouch = blk.touchesJccErratumBoundary() ? 1 : 0;

    return blk;
}

BasicBlock
analyze(const std::vector<isa::Inst> &insts, uarch::UArch arch)
{
    return analyze(isa::encodeBlock(insts), arch);
}

} // namespace facile::bb
