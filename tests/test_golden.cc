/**
 * @file
 * Golden-output test for analyze + predict.
 *
 * One digest covers the bit patterns of every Prediction field for a
 * seeded bhive draw on all nine microarchitectures, both throughput
 * notions, the default config and one ablation config, and both
 * payload depths. Every path must reproduce the checked-in digest:
 * serial bb::analyze + model::predict, and the engine at 1 and 4 lanes
 * with its caches on (a cold pass, then an all-hit pass) and off. A
 * change anywhere in decode, annotation, the components or the engine
 * that moves one bit of one prediction fails here.
 *
 * kGoldenDigest is the digest this test computed when it was added. A
 * change that means to alter predictions must update it and say why.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "corpus/sections.h"
#include "engine/engine.h"
#include "facile/component.h"
#include "facile/predictor.h"

namespace facile {
namespace {

constexpr std::uint64_t kGoldenDigest = 0x62af092547d8db59ULL;

/** Every request of the golden set, in a fixed order. */
std::vector<engine::Request>
goldenRequests()
{
    model::ModelConfig ablated =
        model::ModelConfig::without(model::Component::LSD);
    ablated.simplePredec = true;
    const model::ModelConfig configs[] = {model::ModelConfig{}, ablated};

    std::vector<engine::Request> out;
    for (const bhive::Benchmark &b : bhive::generateSuite(0x901dULL, 10))
        for (uarch::UArch arch : uarch::allUArchs())
            for (const model::ModelConfig &cfg : configs)
                for (model::Payload payload :
                     {model::Payload::None, model::Payload::Full}) {
                    out.push_back({b.bytesU, arch, false, cfg, payload});
                    out.push_back({b.bytesL, arch, true, cfg, payload});
                }
    return out;
}

/** xxh64 over the raw bit patterns of every field, in request order. */
std::uint64_t
digest(const std::vector<model::Prediction> &preds)
{
    corpus::Xxh64State h;
    auto ints = [&h](const auto &v) {
        const std::uint64_t n = v.size();
        h.update(&n, sizeof n);
        for (const auto &x : v) {
            const std::int64_t i = static_cast<std::int64_t>(x);
            h.update(&i, sizeof i);
        }
    };
    for (const model::Prediction &p : preds) {
        h.update(&p.throughput, sizeof p.throughput);
        h.update(p.componentValue.data(),
                 sizeof(double) * p.componentValue.size());
        ints(p.bottlenecks);
        const std::int64_t primary =
            static_cast<std::int64_t>(p.primaryBottleneck);
        h.update(&primary, sizeof primary);
        ints(p.criticalChain);
        const std::uint64_t ports = p.contendedPorts;
        h.update(&ports, sizeof ports);
        ints(p.contendingInsts);
    }
    return h.digest();
}

const std::vector<engine::Request> &
requests()
{
    static const std::vector<engine::Request> reqs = goldenRequests();
    return reqs;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

TEST(Golden, SerialAnalyzeAndPredict)
{
    std::vector<model::Prediction> preds;
    model::PredictScratch scratch;
    for (const engine::Request &r : requests())
        preds.push_back(model::predict(bb::analyze(r.bytes, r.arch),
                                       r.loop, r.config, scratch,
                                       r.payload));
    EXPECT_EQ(hex(digest(preds)), hex(kGoldenDigest))
        << requests().size() << " predictions";
}

TEST(Golden, EngineLanesAndCaches)
{
    for (int lanes : {1, 4})
        for (bool caches : {true, false}) {
            engine::EngineOptions eo;
            eo.numThreads = lanes;
            eo.cacheEnabled = caches;
            engine::PredictionEngine eng(eo);
            // With caches on, the second pass is answered from the
            // prediction cache.
            for (int pass = 0; pass < (caches ? 2 : 1); ++pass)
                EXPECT_EQ(hex(digest(eng.predictBatch(requests()))),
                          hex(kGoldenDigest))
                    << lanes << " lanes, caches " << caches << ", pass "
                    << pass;
        }
}

} // namespace
} // namespace facile
