/**
 * @file
 * The Facile throughput model: combination of the component predictors
 * (paper sections 4.1 and 4.2), bottleneck identification, ablation
 * switches (Table 3), and the counterfactual "idealize one component"
 * analysis (Table 4).
 *
 * Since the componentization refactor the model is evaluated through a
 * per-microarchitecture component registry (facile/component.h): each
 * bound is a ComponentPredictor, ablation configs resolve to a
 * precomputed RegistryView, and evaluation is staged (cheap arithmetic
 * bounds first, the precedence pass over the loop-carried values last)
 * and lazy (the interpretability payload is built only on request).
 * The entry points below are thin drivers over that pipeline;
 * Prediction::throughput is bit-identical across all of them.
 */
#ifndef FACILE_FACILE_PREDICTOR_H
#define FACILE_FACILE_PREDICTOR_H

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bb/basic_block.h"
#include "facile/ports.h"
#include "facile/precedence.h"
#include "support/inline_vec.h"

namespace facile::model {

/** The potential bottleneck components. */
enum class Component : int {
    Predec = 0,
    Dec,
    DSB,
    LSD,
    Issue,
    Ports,
    Precedence,
    kNumComponents,
};

inline constexpr int kNumComponents =
    static_cast<int>(Component::kNumComponents);

/** A list of components, at most one entry per component. */
using ComponentList =
    support::InlineVec<Component, static_cast<std::size_t>(kNumComponents)>;

/**
 * Short component name ("Predec", "Dec", ...). The view refers to
 * static, null-terminated storage, so .data() is a valid C string.
 */
std::string_view componentName(Component c);

/**
 * How much of a Prediction to build.
 *
 * Bound mode fills throughput, componentValue, bottlenecks and
 * primaryBottleneck — everything the serving and evaluation paths
 * consume — and leaves the interpretability payload (criticalChain,
 * contendedPorts, contendingInsts) empty; explain() can fill it in
 * later, producing exactly the bytes a Payload::Full call would have.
 */
enum class Payload : std::uint8_t {
    None, ///< bound + bottleneck classification only (the cheap path)
    Full, ///< additionally build the interpretability payload
};

/**
 * Per-thread scratch bundle for the whole component pipeline (defined
 * in facile/component.h). One instance per thread; ownership is
 * explicit — each engine lane uses its thread's tlsPredictScratch();
 * serial callers either keep their own or use it too.
 */
struct PredictScratch;

/** The calling thread's scratch (for context-less convenience calls). */
PredictScratch &tlsPredictScratch();

/** Ablation switches (Table 3 variants). All-default is full Facile. */
struct ModelConfig
{
    bool usePredec = true;
    bool useDec = true;
    bool useDsb = true;
    bool useLsd = true;
    bool useIssue = true;
    bool usePorts = true;
    bool usePrecedence = true;

    /** Replace the Predec component with the SimplePredec model. */
    bool simplePredec = false;

    /** Replace the Dec component with the SimpleDec model. */
    bool simpleDec = false;

    /** Disable every component except @p c ("only X" rows of Table 3). */
    static ModelConfig only(Component c);

    /** Disable a single component ("w/o X" rows of Table 3). */
    static ModelConfig without(Component c);

    bool &flag(Component c);

    /**
     * Pack the nine switches into a stable bit pattern, used by the
     * engine's cache keys, the server wire protocol, and the registry's
     * view table. packBits and fromBits are exact inverses.
     */
    std::uint16_t packBits() const;
    static ModelConfig fromBits(std::uint16_t bits);
};

/** A throughput prediction with optional interpretability payload. */
struct Prediction
{
    /** Predicted throughput in cycles per iteration. */
    double throughput = 0.0;

    /** Per-component bounds; NaN where the component was not evaluated. */
    std::array<double, kNumComponents> componentValue;

    /** Components whose bound equals the predicted throughput. */
    ComponentList bottlenecks;

    /**
     * The single bottleneck under the paper's front-end-first tie-break
     * (Figure 6). The full priority order over all seven components is
     * Predec > Dec > DSB > LSD > Issue > Ports > Precedence — the two
     * µop-delivery components DSB and LSD sit between the legacy decode
     * pipe and the back end, i.e. still front-end-before-back-end; see
     * bottleneckPriority().
     */
    Component primaryBottleneck = Component::Ports;

    /**
     * Interpretability: critical dependence chain (instruction indices).
     * Filled under Payload::Full or by explain(); empty otherwise.
     */
    std::vector<int> criticalChain;

    /**
     * Interpretability: contended ports and contending instructions.
     * Filled under Payload::Full or by explain(); empty otherwise.
     */
    uarch::PortMask contendedPorts = 0;
    std::vector<int> contendingInsts;

    /**
     * Counterfactual: throughput if @p c were infinitely fast, i.e. the
     * maximum over the remaining components (paper section 6.4).
     */
    double idealized(Component c) const;

    Prediction();
};

/**
 * The tie-break priority used to pick primaryBottleneck, front end
 * first: Predec, Dec, DSB, LSD, Issue, Ports, Precedence.
 * Prediction::bottlenecks is listed in this order.
 */
const std::array<Component, kNumComponents> &bottleneckPriority();

/**
 * Predict TPU: throughput under unrolling (paper equation 1). Builds
 * the full interpretability payload (the paper-facing default).
 */
Prediction predictUnrolled(const bb::BasicBlock &blk,
                           const ModelConfig &config = {});

/**
 * Predict TPL: throughput when executed as a loop (paper equations 2/3).
 * The front end is served by the predecoder+decoder when the block
 * triggers the JCC erratum, by the LSD when enabled and the loop fits
 * the IDQ, and by the DSB otherwise. Builds the full payload.
 */
Prediction predictLoop(const bb::BasicBlock &blk,
                       const ModelConfig &config = {});

/** Dispatch on the throughput notion. Builds the full payload. */
Prediction predict(const bb::BasicBlock &blk, bool loop,
                   const ModelConfig &config = {});

/**
 * The explicit-context entry point used by the serving paths: predict
 * with caller-owned scratch, building only as much of the Prediction
 * as @p payload asks for. Payload::None is the engine/server default —
 * throughput, componentValue and the bottleneck classification are
 * bit-identical to the payload-building overloads above.
 */
Prediction predict(const bb::BasicBlock &blk, bool loop,
                   const ModelConfig &config, PredictScratch &scratch,
                   Payload payload = Payload::None);

/**
 * Fill the interpretability payload of @p p in place, as if it had
 * been predicted with Payload::Full: criticalChain, contendedPorts and
 * contendingInsts become byte-identical to an eager full prediction of
 * the same (block, notion, config). @p p must come from a predict call
 * on the same block and config.
 */
void explain(const bb::BasicBlock &blk, const ModelConfig &config,
             PredictScratch &scratch, Prediction &p);

} // namespace facile::model

#endif // FACILE_FACILE_PREDICTOR_H
