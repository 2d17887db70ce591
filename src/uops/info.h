/**
 * @file
 * Instruction characteristics database (uops.info substitute).
 *
 * For every (instruction, microarchitecture) pair, provides the data
 * Facile's component predictors and the reference simulator consume:
 * µop decomposition (fused-domain at decode, fused-domain after
 * unlamination, unfused execution µops with their port sets), compute
 * latency, decoder requirements, macro-fusion capability, and
 * rename-time elimination.
 *
 * Values are synthesized per microarchitecture family from public
 * documentation of these designs (see database.cc); Facile and the
 * simulator read the same tables, mirroring the role uops.info plays
 * for the original Facile and real hardware.
 */
#ifndef FACILE_UOPS_INFO_H
#define FACILE_UOPS_INFO_H

#include <cstddef>

#include "isa/inst.h"
#include "support/inline_vec.h"
#include "uarch/config.h"

namespace facile::uops {

using uarch::PortMask;

/** Role of an unfused µop (used by the simulator for timing). */
enum class UopKind : std::uint8_t {
    Compute,
    Load,
    StoreAddr,
    StoreData,
};

/** One unfused µop: the set of ports it may dispatch to, plus its role. */
struct Uop
{
    PortMask ports = 0;
    UopKind kind = UopKind::Compute;
};

/** Compute µops of a 64-bit DIV/IDIV, the longest flow in the database. */
inline constexpr int kWideDivComputeUops = 36;

/**
 * Most port µops lookup() gives one instruction: a 64-bit DIV/IDIV's
 * compute µops plus, with a memory operand, its load (the operand is
 * only read, so there is no store pair). A macro-fused pair merges
 * fewer: at most a load, a store pair and one branch µop.
 */
inline constexpr std::size_t kMaxPortUops = kWideDivComputeUops + 1;

/** An instruction's port µops, held inline. */
using PortUops = support::InlineVec<Uop, kMaxPortUops>;

/** Characteristics of one instruction on one microarchitecture. */
struct InstrInfo
{
    /** Fused-domain µops produced by the decoders (pre-unlamination). */
    int fusedUops = 1;

    /** Fused-domain µops at the issue stage (after unlamination). */
    int issueUops = 1;

    /**
     * Unfused µops that occupy execution ports. Empty for µops executed
     * by the renamer (eliminated moves, NOPs, zero idioms).
     */
    PortUops portUops;

    /** Latency from register sources to the result, in cycles. */
    int latency = 1;

    /** True if decoding requires the complex decoder. */
    bool needsComplexDecoder = false;

    /**
     * Number of simple decoders available for subsequent instructions in
     * the same cycle after this instruction used the complex decoder
     * (cf. Algorithm 1, line 12).
     */
    int nAvailableSimpleDecoders = 3;

    /** May macro-fuse with a directly following conditional branch. */
    bool macroFusible = false;

    /** Executed by the renamer; consumes no execution port. */
    bool eliminated = false;
};

/** Look up the characteristics of @p inst on @p cfg. */
InstrInfo lookup(const isa::Inst &inst, const uarch::MicroArchConfig &cfg);

/**
 * True if @p first macro-fuses with the directly following conditional
 * branch @p jcc on @p cfg (fusibility of the first instruction combined
 * with the condition-code restrictions of the pair).
 */
bool macroFusesWith(const isa::Inst &first, const isa::Inst &jcc,
                    const uarch::MicroArchConfig &cfg);

} // namespace facile::uops

#endif // FACILE_UOPS_INFO_H
