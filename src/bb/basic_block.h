/**
 * @file
 * Basic-block representation used by all predictors.
 *
 * A BasicBlock bundles the raw bytes, the decoded instructions with
 * their byte-layout facts, and the per-instruction characteristics
 * resolved against one microarchitecture — including macro-fusion
 * pairing, which merges a fusible instruction with a directly
 * following conditional branch into a single unit for everything
 * downstream of the instruction queue.
 *
 * Analysis is stateless: every instruction is decoded and looked up
 * afresh into annotations the block owns, and nothing outlives the
 * block. A never-seen block costs about 41 allocations (decode,
 * µop info, the annotation vectors; tests/test_retention.cc prints the
 * count) and leaves no memory behind once it is destroyed.
 */
#ifndef FACILE_BB_BASIC_BLOCK_H
#define FACILE_BB_BASIC_BLOCK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/decoder.h"
#include "uarch/config.h"
#include "uops/info.h"

namespace facile::bb {

/** What analysis derives for one instruction on one µarch. */
struct InstAnnotation
{
    isa::DecodedInst dec;
    uops::InstrInfo info;
};

/** One instruction with layout and microarchitectural annotations. */
struct AnnotatedInst
{
    /** Decoded form plus byte-layout facts. */
    const isa::DecodedInst *dec = nullptr;

    /**
     * Characteristics of the instruction on the block's µarch. Points
     * into the block's annotations. Never null on an analyzed block;
     * immutable through this pointer — use BasicBlock::mutableInfo to
     * change a copy.
     */
    const uops::InstrInfo *info = nullptr;

    /** Byte offset of the instruction within the block. */
    int start = 0;

    /** Byte offset of the nominal opcode within the block. */
    int opcodePos = 0;

    /** Byte offset one past the last byte. */
    int end = 0;

    /**
     * True if this (conditional branch) instruction is macro-fused with
     * the preceding instruction. Its µop counts have been folded into
     * the predecessor; components that count instructions skip it.
     */
    bool fusedWithPrev = false;
};

/** A basic block analyzed for one microarchitecture. */
struct BasicBlock
{
    std::vector<std::uint8_t> bytes;
    std::vector<AnnotatedInst> insts;
    uarch::UArch arch;

    /**
     * The annotations insts[i].dec / .info point into, one per
     * instruction in order. shared_ptr so copied blocks keep their
     * pointers valid: copies share the storage until one of them calls
     * mutableInfo.
     */
    std::shared_ptr<std::vector<InstAnnotation>> annotations;

    /**
     * Block-level µop totals, precomputed by analyze() so the DSB /
     * LSD / Issue components don't re-sum the annotations on every
     * predict. -1 = not cached (hand-built blocks, or after
     * mutableInfo) — the accessors then fall back to summing.
     */
    int cachedFusedUops = -1;
    int cachedIssueUops = -1;

    /**
     * Precomputed touchesJccErratumBoundary() (layout-only, so never
     * invalidated by mutableInfo). -1 = not cached (hand-built blocks)
     * — the accessor then falls back to scanning the instructions.
     */
    std::int8_t cachedJccTouch = -1;

    int lengthBytes() const { return static_cast<int>(bytes.size()); }

    bool
    endsInBranch() const
    {
        return !insts.empty() && insts.back().dec->inst.isBranch();
    }

    /** Fused-domain µops at decode (DSB/LSD counting, paper 4.5/4.6). */
    int fusedUops() const;

    /** Fused-domain µops after unlamination (Issue counting, paper 4.7). */
    int issueUops() const;

    /**
     * True if a branch instruction (or a macro-fused pair ending in one)
     * crosses or ends on a 32-byte boundary, assuming the block is placed
     * at a 32-byte-aligned address — the JCC-erratum trigger condition.
     */
    bool touchesJccErratumBoundary() const;

    /**
     * Copy-on-write escape hatch for consumers that must perturb an
     * annotation (e.g. the CQA-like baseline's latency clamp): unless
     * this block is the only owner of its annotations, copies them
     * first and repoints insts at the copy, then returns instruction
     * @p i's info mutable. Blocks sharing the original storage never
     * see the change.
     */
    uops::InstrInfo &mutableInfo(std::size_t i);
};

/**
 * Decode @p bytes and annotate every instruction for @p arch, applying
 * macro-fusion pairing. Taken by value and moved into the block, so
 * callers with an expiring buffer pay no copy.
 *
 * @throws isa::DecodeError on malformed input.
 */
BasicBlock analyze(std::vector<std::uint8_t> bytes, uarch::UArch arch);

/** Convenience: encode @p insts and analyze the result. */
BasicBlock analyze(const std::vector<isa::Inst> &insts, uarch::UArch arch);

} // namespace facile::bb

#endif // FACILE_BB_BASIC_BLOCK_H
