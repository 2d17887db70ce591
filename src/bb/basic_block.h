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
 * Analysis is stateless: every instruction is decoded, looked up and
 * given its read/write sets afresh, by value, in the block's one
 * instruction array, and nothing outlives the block. Operands, port
 * µops and the sets are held inline, so analyzing a never-seen block
 * allocates at most twice — the bytes it takes by value and the
 * instruction array — and leaves no memory behind once the block is
 * destroyed (tests/test_retention.cc gates both).
 */
#ifndef FACILE_BB_BASIC_BLOCK_H
#define FACILE_BB_BASIC_BLOCK_H

#include <cstdint>
#include <vector>

#include "isa/decoder.h"
#include "isa/semantics.h"
#include "uarch/config.h"
#include "uops/info.h"

namespace facile::bb {

/** One instruction with layout and microarchitectural annotations. */
struct AnnotatedInst
{
    /** Decoded form plus byte-layout facts. */
    isa::DecodedInst dec;

    /**
     * Characteristics of the instruction on the block's µarch, after
     * macro-fusion pairing. Change it through BasicBlock::mutableInfo,
     * which keeps the block's µop totals in step.
     */
    uops::InstrInfo info;

    /**
     * Values the instruction reads and writes (isa::instRw of
     * dec.inst). Precedence and the simulator read these instead of
     * recomputing them on every prediction.
     */
    isa::RwSets rw;

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
     * Block-level facts analyze() computes once, so the DSB / LSD /
     * Issue components and TPL prediction don't rescan the
     * instructions on every predict. All zero for an empty block.
     */
    int totalFusedUops = 0;
    int totalIssueUops = 0;
    bool jccErratumTouch = false;

    int lengthBytes() const { return static_cast<int>(bytes.size()); }

    bool
    endsInBranch() const
    {
        return !insts.empty() && insts.back().dec.inst.isBranch();
    }

    /** Fused-domain µops at decode (DSB/LSD counting, paper 4.5/4.6). */
    int fusedUops() const { return totalFusedUops; }

    /** Fused-domain µops after unlamination (Issue counting, paper 4.7). */
    int issueUops() const { return totalIssueUops; }

    /**
     * True if a branch instruction (or a macro-fused pair ending in one)
     * crosses or ends on a 32-byte boundary, assuming the block is placed
     * at a 32-byte-aligned address — the JCC-erratum trigger condition.
     */
    bool touchesJccErratumBoundary() const { return jccErratumTouch; }

    /**
     * Instruction @p i's info, for consumers that perturb an annotation
     * (the CQA-like baseline's latency clamp). Copy the block first to
     * keep the original: a block owns its instructions by value. The
     * µop totals are re-summed on every call, so counts edited through
     * one call's reference are in fusedUops() / issueUops() once the
     * next call returns.
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
