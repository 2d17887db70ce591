#include "facile/predictor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "facile/component.h"
#include "facile/simple_components.h"
#include "uarch/config.h"

namespace facile::model {

std::string_view
componentName(Component c)
{
    switch (c) {
      case Component::Predec: return "Predec";
      case Component::Dec: return "Dec";
      case Component::DSB: return "DSB";
      case Component::LSD: return "LSD";
      case Component::Issue: return "Issue";
      case Component::Ports: return "Ports";
      case Component::Precedence: return "Precedence";
      case Component::kNumComponents: break;
    }
    return "<bad>";
}

bool &
ModelConfig::flag(Component c)
{
    switch (c) {
      case Component::Predec: return usePredec;
      case Component::Dec: return useDec;
      case Component::DSB: return useDsb;
      case Component::LSD: return useLsd;
      case Component::Issue: return useIssue;
      case Component::Ports: return usePorts;
      case Component::Precedence:
      default: return usePrecedence;
    }
}

ModelConfig
ModelConfig::only(Component c)
{
    ModelConfig cfg;
    cfg.usePredec = cfg.useDec = cfg.useDsb = cfg.useLsd = cfg.useIssue =
        cfg.usePorts = cfg.usePrecedence = false;
    cfg.flag(c) = true;
    return cfg;
}

ModelConfig
ModelConfig::without(Component c)
{
    ModelConfig cfg;
    cfg.flag(c) = false;
    return cfg;
}

std::uint16_t
ModelConfig::packBits() const
{
    std::uint16_t b = 0;
    b |= usePredec ? 1u << 0 : 0u;
    b |= useDec ? 1u << 1 : 0u;
    b |= useDsb ? 1u << 2 : 0u;
    b |= useLsd ? 1u << 3 : 0u;
    b |= useIssue ? 1u << 4 : 0u;
    b |= usePorts ? 1u << 5 : 0u;
    b |= usePrecedence ? 1u << 6 : 0u;
    b |= simplePredec ? 1u << 7 : 0u;
    b |= simpleDec ? 1u << 8 : 0u;
    return b;
}

ModelConfig
ModelConfig::fromBits(std::uint16_t bits)
{
    ModelConfig c;
    c.usePredec = bits & (1u << 0);
    c.useDec = bits & (1u << 1);
    c.useDsb = bits & (1u << 2);
    c.useLsd = bits & (1u << 3);
    c.useIssue = bits & (1u << 4);
    c.usePorts = bits & (1u << 5);
    c.usePrecedence = bits & (1u << 6);
    c.simplePredec = bits & (1u << 7);
    c.simpleDec = bits & (1u << 8);
    return c;
}

Prediction::Prediction()
{
    componentValue.fill(std::numeric_limits<double>::quiet_NaN());
}

double
Prediction::idealized(Component c) const
{
    double best = 0.0;
    for (int i = 0; i < kNumComponents; ++i) {
        if (i == static_cast<int>(c))
            continue;
        double v = componentValue[i];
        if (!std::isnan(v))
            best = std::max(best, v);
    }
    return best;
}

const std::array<Component, kNumComponents> &
bottleneckPriority()
{
    // Front-end-first priority for ties (paper section 6.4 / Figure 6):
    // the µop-delivery components DSB and LSD rank after the legacy
    // decode pipe and before the back end.
    static const std::array<Component, kNumComponents> priority = {
        Component::Predec, Component::Dec,   Component::DSB,
        Component::LSD,    Component::Issue, Component::Ports,
        Component::Precedence,
    };
    return priority;
}

namespace {

/** Record a component bound and keep the running maximum. */
void
record(Prediction &p, Component c, double value)
{
    p.componentValue[static_cast<int>(c)] = value;
    p.throughput = std::max(p.throughput, value);
}

/** Fill bottleneck list and primary bottleneck after all bounds are in. */
void
finalize(Prediction &p)
{
    bool primarySet = false;
    for (Component c : bottleneckPriority()) {
        double v = p.componentValue[static_cast<int>(c)];
        if (std::isnan(v))
            continue;
        if (v >= p.throughput - 1e-9 && p.throughput > 0.0) {
            p.bottlenecks.push_back(c);
            if (!primarySet) {
                p.primaryBottleneck = c;
                primarySet = true;
            }
        }
    }
}

/**
 * The staged driver: walk the resolved registry view in stages —
 * cheap arithmetic bounds first (Issue and the TPL µop-delivery
 * bound), then the front-end decode simulations where the notion
 * selects them, then Ports, then the precedence pass (which skips its
 * cycle-mean solve when no carried value reaches another). Evaluation
 * order does not affect any Prediction field: throughput is a running
 * max and the bottleneck classification is derived from componentValue
 * under the fixed bottleneckPriority() order.
 */
Prediction
predictStaged(const bb::BasicBlock &blk, bool loop,
              const ModelConfig &config, PredictScratch &scratch,
              Payload payload)
{
    const RegistryView &view = Registry::forArch(blk.arch).view(config);
    const PredictContext ctx{blk, uarch::config(blk.arch), loop, payload,
                             scratch};

    Prediction p;
    auto eval = [&](const ComponentPredictor *c) {
        if (!c)
            return;
        const double v = payload == Payload::Full
                             ? c->boundWithExplain(ctx, p)
                             : c->bound(ctx);
        record(p, c->id(), v);
    };

    // Stage 1: pure-arithmetic bounds.
    eval(view.issue);

    // Front end. TPU is always fed by the legacy decode pipe; a TPL
    // loop is fed by it only under the JCC erratum (paper equation 3),
    // by the LSD when present and the loop fits the IDQ, and by the
    // DSB otherwise.
    if (!loop) {
        for (int i = 0; i < view.nFront; ++i)
            eval(view.front[i]);
    } else if (view.jccPossible && blk.touchesJccErratumBoundary()) {
        for (int i = 0; i < view.nFront; ++i)
            eval(view.front[i]);
    } else if (view.lsd && lsdEligible(blk)) {
        eval(view.lsd);
    } else {
        eval(view.dsb);
    }

    // Stage 2: port contention. Stage 3: precedence.
    eval(view.ports);
    eval(view.precedence);

    finalize(p);
    detail::countPredict(payload);
    return p;
}

} // namespace

Prediction
predict(const bb::BasicBlock &blk, bool loop, const ModelConfig &config,
        PredictScratch &scratch, Payload payload)
{
    return predictStaged(blk, loop, config, scratch, payload);
}

Prediction
predictUnrolled(const bb::BasicBlock &blk, const ModelConfig &config)
{
    return predictStaged(blk, false, config, tlsPredictScratch(),
                         Payload::Full);
}

Prediction
predictLoop(const bb::BasicBlock &blk, const ModelConfig &config)
{
    return predictStaged(blk, true, config, tlsPredictScratch(),
                         Payload::Full);
}

Prediction
predict(const bb::BasicBlock &blk, bool loop, const ModelConfig &config)
{
    return predictStaged(blk, loop, config, tlsPredictScratch(),
                         Payload::Full);
}

void
explain(const bb::BasicBlock &blk, const ModelConfig &config,
        PredictScratch &scratch, Prediction &p)
{
    const RegistryView &view = Registry::forArch(blk.arch).view(config);
    // The payload components are notion-independent (both notions run
    // the same back end), so the loop flag is irrelevant here.
    const PredictContext ctx{blk, uarch::config(blk.arch), false,
                             Payload::Full, scratch};
    if (view.ports)
        view.ports->explain(ctx, p);
    if (view.precedence)
        view.precedence->explain(ctx, p);
    detail::countExplain();
}

} // namespace facile::model
