/**
 * @file
 * Componentization oracle: the registry pipeline must be bit-identical
 * to the pre-refactor monolithic model::predict.
 *
 * The reference below is the pre-refactor combination logic, kept
 * verbatim (eager evaluation, hardwired component calls through the
 * public per-component entry points). Fuzzed bhive::generator blocks
 * are predicted across all nine microarchitectures and the Table 3
 * ablation configurations, under both throughput notions, and every
 * field of the Prediction — bit patterns of throughput and
 * componentValue, the bottleneck classification, and the
 * interpretability payload (eager and filled on demand via explain())
 * — must match the reference exactly.
 *
 * Also pins the registry structure itself: per-arch component sets,
 * view resolution of ablation flags, and the cheapUpperBound contract
 * (upper bounds must dominate the exact bounds).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bhive/generator.h"
#include "eval/harness.h"
#include "facile/component.h"
#include "facile/dec.h"
#include "facile/ports.h"
#include "facile/precedence.h"
#include "facile/predec.h"
#include "facile/predictor.h"
#include "facile/simple_components.h"
#include "isa/builder.h"
#include "uarch/config.h"

namespace facile::model {
namespace {

using eval::samePrediction;

// ---- pre-refactor reference (verbatim combination logic) ------------------

namespace reference {

void
record(Prediction &p, Component c, double value)
{
    p.componentValue[static_cast<int>(c)] = value;
    p.throughput = std::max(p.throughput, value);
}

void
finalize(Prediction &p)
{
    static const Component priority[] = {
        Component::Predec, Component::Dec,        Component::DSB,
        Component::LSD,    Component::Issue,      Component::Ports,
        Component::Precedence,
    };
    bool primarySet = false;
    for (Component c : priority) {
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

void
backEndBounds(Prediction &p, const bb::BasicBlock &blk,
              const ModelConfig &config)
{
    if (config.useIssue)
        record(p, Component::Issue, issue(blk));
    if (config.usePorts) {
        PortsResult pr = ports(blk);
        record(p, Component::Ports, pr.throughput);
        p.contendedPorts = pr.bottleneckPorts;
        p.contendingInsts = std::move(pr.contendingInsts);
    }
    if (config.usePrecedence) {
        PrecedenceResult pr = precedence(blk);
        record(p, Component::Precedence, pr.throughput);
        p.criticalChain = std::move(pr.criticalChain);
    }
}

Prediction
predictUnrolled(const bb::BasicBlock &blk, const ModelConfig &config)
{
    Prediction p;
    if (config.usePredec)
        record(p, Component::Predec,
               config.simplePredec ? simplePredec(blk) : predec(blk, true));
    if (config.useDec)
        record(p, Component::Dec,
               config.simpleDec ? simpleDec(blk) : dec(blk));
    backEndBounds(p, blk, config);
    finalize(p);
    return p;
}

Prediction
predictLoop(const bb::BasicBlock &blk, const ModelConfig &config)
{
    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
    Prediction p;

    const bool jccAffected =
        cfg.jccErratum && blk.touchesJccErratumBoundary();
    if (jccAffected) {
        if (config.usePredec)
            record(p, Component::Predec,
                   config.simplePredec ? simplePredec(blk)
                                       : predec(blk, false));
        if (config.useDec)
            record(p, Component::Dec,
                   config.simpleDec ? simpleDec(blk) : dec(blk));
    } else if (cfg.lsdEnabled && config.useLsd && lsdEligible(blk)) {
        record(p, Component::LSD, lsd(blk));
    } else if (config.useDsb) {
        record(p, Component::DSB, dsb(blk));
    }

    backEndBounds(p, blk, config);
    finalize(p);
    return p;
}

Prediction
predict(const bb::BasicBlock &blk, bool loop, const ModelConfig &config)
{
    return loop ? reference::predictLoop(blk, config)
                : reference::predictUnrolled(blk, config);
}

} // namespace reference

// ---- fuzzed bit-identity oracle -------------------------------------------

const std::vector<bhive::Benchmark> &
fuzzSuite()
{
    // Seeded generator blocks: same categories as the evaluation suite,
    // small enough to sweep 9 arches x ablations x notions.
    static const auto s = bhive::generateSuite(20230917, 5);
    return s;
}

TEST(Registry, FuzzedBitIdentityAcrossArchesAndAblations)
{
    const auto variants = ablationVariants();
    PredictScratch scratch;
    std::size_t checked = 0;

    for (uarch::UArch arch : uarch::allUArchs()) {
        for (const auto &b : fuzzSuite()) {
            for (bool loop : {false, true}) {
                const bb::BasicBlock blk =
                    bb::analyze(loop ? b.bytesL : b.bytesU, arch);
                for (const auto &variant : variants) {
                    const Prediction ref =
                        reference::predict(blk, loop, variant.config);

                    // Eager full payload must match the reference
                    // everywhere, bit for bit.
                    const Prediction full = model::predict(
                        blk, loop, variant.config, scratch, Payload::Full);
                    ASSERT_TRUE(samePrediction(full, ref))
                        << uarch::config(arch).abbrev << " "
                        << variant.name << (loop ? " TPL" : " TPU");

                    // The cheap path must agree on throughput,
                    // componentValue, and the bottleneck classification
                    // (payload deliberately empty)...
                    Prediction bound = model::predict(
                        blk, loop, variant.config, scratch, Payload::None);
                    ASSERT_EQ(0, std::memcmp(&bound.throughput,
                                             &ref.throughput,
                                             sizeof(double)));
                    ASSERT_EQ(0,
                              std::memcmp(bound.componentValue.data(),
                                          ref.componentValue.data(),
                                          sizeof(double) *
                                              ref.componentValue.size()));
                    ASSERT_EQ(bound.bottlenecks, ref.bottlenecks);
                    ASSERT_EQ(bound.primaryBottleneck,
                              ref.primaryBottleneck);
                    ASSERT_TRUE(bound.criticalChain.empty());
                    ASSERT_TRUE(bound.contendingInsts.empty());
                    ASSERT_EQ(bound.contendedPorts, 0);

                    // ...and explain() must upgrade it to the exact
                    // eager payload.
                    model::explain(blk, variant.config, scratch, bound);
                    ASSERT_TRUE(samePrediction(bound, ref))
                        << "explain() diverged: "
                        << uarch::config(arch).abbrev << " "
                        << variant.name << (loop ? " TPL" : " TPU");
                    ++checked;
                }
            }
        }
    }
    // Guard against silently empty sweeps.
    EXPECT_GT(checked, 1000u);
}

TEST(Registry, ScratchlessEntryPointsMatchReference)
{
    // The classic paper-facing API (thread-local scratch, full payload).
    for (uarch::UArch arch : {uarch::UArch::SKL, uarch::UArch::HSW}) {
        for (const auto &b : fuzzSuite()) {
            const bb::BasicBlock blkU = bb::analyze(b.bytesU, arch);
            const bb::BasicBlock blkL = bb::analyze(b.bytesL, arch);
            EXPECT_TRUE(samePrediction(model::predictUnrolled(blkU),
                                       reference::predictUnrolled(blkU, {})));
            EXPECT_TRUE(samePrediction(model::predictLoop(blkL),
                                       reference::predictLoop(blkL, {})));
        }
    }
}

// ---- registry structure ----------------------------------------------------

TEST(Registry, PerArchComponentSetsFollowTheMicroArchConfig)
{
    for (uarch::UArch arch : uarch::allUArchs()) {
        const uarch::MicroArchConfig &cfg = uarch::config(arch);
        const Registry &reg = Registry::forArch(arch);
        EXPECT_EQ(reg.arch(), arch);

        bool hasLsd = false;
        int prev = -1;
        for (const ComponentPredictor *c : reg.components()) {
            const int id = static_cast<int>(c->id());
            EXPECT_GT(id, prev) << "components not in enum order";
            prev = id;
            if (c->id() == Component::LSD)
                hasLsd = true;
        }
        // The LSD component is registered exactly where the hardware
        // has it (SKL150 disables it on SKL/CLX).
        EXPECT_EQ(hasLsd, cfg.lsdEnabled) << cfg.abbrev;
        EXPECT_EQ(reg.components().size(),
                  static_cast<std::size_t>(cfg.lsdEnabled ? 7 : 6));

        // The JCC leg exists exactly on the erratum arches.
        EXPECT_EQ(reg.view({}).jccPossible, cfg.jccErratum) << cfg.abbrev;
    }
}

TEST(Registry, ViewResolvesAblationsWithoutFlagBranches)
{
    const Registry &reg = Registry::forArch(uarch::UArch::SKL);

    const RegistryView &full = reg.view({});
    EXPECT_EQ(full.nFront, 2);
    EXPECT_EQ(full.front[0]->id(), Component::Predec);
    EXPECT_EQ(full.front[1]->id(), Component::Dec);
    EXPECT_EQ(full.lsd, nullptr); // SKL150
    ASSERT_NE(full.dsb, nullptr);
    ASSERT_NE(full.issue, nullptr);
    ASSERT_NE(full.ports, nullptr);
    ASSERT_NE(full.precedence, nullptr);

    const RegistryView &onlyPorts =
        reg.view(ModelConfig::only(Component::Ports));
    EXPECT_EQ(onlyPorts.nFront, 0);
    EXPECT_EQ(onlyPorts.dsb, nullptr);
    EXPECT_EQ(onlyPorts.issue, nullptr);
    EXPECT_NE(onlyPorts.ports, nullptr);
    EXPECT_EQ(onlyPorts.precedence, nullptr);

    ModelConfig simple;
    simple.simplePredec = true;
    simple.simpleDec = true;
    const RegistryView &simpleView = reg.view(simple);
    ASSERT_EQ(simpleView.nFront, 2);
    EXPECT_EQ(simpleView.front[0]->displayName(), "SimplePredec");
    EXPECT_EQ(simpleView.front[1]->displayName(), "SimpleDec");
    EXPECT_EQ(simpleView.front[0]->id(), Component::Predec);
    EXPECT_EQ(simpleView.front[1]->id(), Component::Dec);

    // HSW has the LSD; its full view wires it.
    EXPECT_NE(Registry::forArch(uarch::UArch::HSW).view({}).lsd, nullptr);
}

TEST(Registry, CheapUpperBoundsDominateExactBounds)
{
    PredictScratch scratch;
    for (uarch::UArch arch : {uarch::UArch::SKL, uarch::UArch::SNB}) {
        const Registry &reg = Registry::forArch(arch);
        for (const auto &b : fuzzSuite()) {
            for (bool loop : {false, true}) {
                const bb::BasicBlock blk =
                    bb::analyze(loop ? b.bytesL : b.bytesU, arch);
                const PredictContext ctx{blk, uarch::config(arch), loop,
                                         Payload::None, scratch};
                for (const ComponentPredictor *c : reg.components()) {
                    const auto notions = c->notions();
                    if (!(loop ? notions.loop : notions.unrolled))
                        continue;
                    const double exact = c->bound(ctx);
                    const double cheap = c->cheapUpperBound(ctx);
                    EXPECT_GE(cheap, exact - 1e-9)
                        << c->displayName() << " on "
                        << uarch::config(arch).abbrev;
                }
            }
        }
    }
}

TEST(Registry, AblationVariantListMatchesTable3)
{
    const auto v = ablationVariants();
    // 1 full + 2 Simple* + 7 only + 2 combos + 7 without = 19 rows.
    ASSERT_EQ(v.size(), 19u);
    EXPECT_EQ(v[0].name, "Facile");
    EXPECT_EQ(v[1].name, "Facile w/ SimplePredec");
    EXPECT_FALSE(v[1].runL);
    EXPECT_EQ(v[2].name, "Facile w/ SimpleDec");
    EXPECT_EQ(v[3].name, "only Predec");
    EXPECT_TRUE(v[3].runU);
    EXPECT_FALSE(v[3].runL);
    EXPECT_EQ(v[5].name, "only DSB");
    EXPECT_FALSE(v[5].runU);
    EXPECT_TRUE(v[5].runL);
    EXPECT_EQ(v[10].name, "only Predec+Ports");
    EXPECT_EQ(v[11].name, "only Precedence+Ports");
    EXPECT_EQ(v[12].name, "Facile w/o Predec");
    EXPECT_EQ(v[18].name, "Facile w/o Precedence");
}

// ---- staged evaluation & counters -----------------------------------------

TEST(Registry, PrecedenceShortCircuitCountsSelfCarriedBlocks)
{
    // add rax,1 / add rbx,1: the only loop-carried dependences are the
    // instructions' own accumulators — the short-circuit must fire.
    using namespace facile::isa;
    const bb::BasicBlock selfCarried = bb::analyze(
        std::vector<Inst>{make(Mnemonic::ADD, {R(RAX), I(1, 1)}),
                          make(Mnemonic::ADD, {R(RBX), I(1, 1)})},
        uarch::UArch::SKL);
    // imul rax,rbx / imul rbx,rax: a cross-instruction carried cycle —
    // the full engine must run.
    const bb::BasicBlock crossCarried = bb::analyze(
        std::vector<Inst>{make(Mnemonic::IMUL, {R(RAX), R(RBX)}),
                          make(Mnemonic::IMUL, {R(RBX), R(RAX)})},
        uarch::UArch::SKL);

    PredictScratch scratch;
    bool sc = false;
    const double selfBound =
        precedenceBound(selfCarried, &sc);
    EXPECT_TRUE(sc);
    EXPECT_DOUBLE_EQ(selfBound,
                     precedence(selfCarried).throughput);

    const double crossBound =
        precedenceBound(crossCarried, &sc);
    EXPECT_FALSE(sc);
    EXPECT_DOUBLE_EQ(crossBound, precedence(crossCarried).throughput);

    const PredictCountersSnapshot before = predictCounters();
    (void)model::predict(selfCarried, false, {}, scratch);
    const PredictCountersSnapshot mid = predictCounters();
    EXPECT_EQ(mid.precedenceEvals - before.precedenceEvals, 1u);
    EXPECT_EQ(mid.precedenceShortCircuits - before.precedenceShortCircuits,
              1u);
    (void)model::predict(crossCarried, false, {}, scratch);
    const PredictCountersSnapshot after = predictCounters();
    EXPECT_EQ(after.precedenceEvals - mid.precedenceEvals, 1u);
    EXPECT_EQ(after.precedenceShortCircuits - mid.precedenceShortCircuits,
              0u);
}

TEST(Registry, PrecedenceBoundMatchesFullEngineOnFuzzedBlocks)
{
    // The short-circuit contract over the whole fuzz suite, on every
    // arch: bound-only and full precedence agree to the bit.
    PredictScratch scratch;
    std::size_t shortCircuited = 0, total = 0;
    for (uarch::UArch arch : uarch::allUArchs()) {
        for (const auto &b : fuzzSuite()) {
            for (bool loop : {false, true}) {
                const bb::BasicBlock blk =
                    bb::analyze(loop ? b.bytesL : b.bytesU, arch);
                bool sc = false;
                const double bound =
                    precedenceBound(blk, &sc);
                const PrecedenceResult fullRes =
                    precedence(blk, scratch.precedence);
                ASSERT_EQ(0, std::memcmp(&bound, &fullRes.throughput,
                                         sizeof(double)))
                    << uarch::config(arch).abbrev
                    << (loop ? " TPL" : " TPU") << " bound " << bound
                    << " vs " << fullRes.throughput;
                shortCircuited += sc ? 1 : 0;
                ++total;
            }
        }
    }
    // The regime the optimization targets must actually occur.
    EXPECT_GT(shortCircuited, 0u);
    EXPECT_LT(shortCircuited, total);
}

TEST(Registry, CountersSeparateBoundAndFullPredicts)
{
    const bb::BasicBlock blk = bb::analyze(
        fuzzSuite().front().bytesU, uarch::UArch::SKL);
    PredictScratch scratch;

    const PredictCountersSnapshot c0 = predictCounters();
    (void)model::predict(blk, false, {}, scratch, Payload::None);
    (void)model::predict(blk, false, {}, scratch, Payload::Full);
    Prediction p = model::predict(blk, false, {}, scratch, Payload::None);
    model::explain(blk, {}, scratch, p);
    const PredictCountersSnapshot c1 = predictCounters();

    EXPECT_EQ(c1.boundPredicts - c0.boundPredicts, 2u);
    EXPECT_EQ(c1.fullPredicts - c0.fullPredicts, 1u);
    EXPECT_EQ(c1.explainCalls - c0.explainCalls, 1u);
}

} // namespace
} // namespace facile::model
