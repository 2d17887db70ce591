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
 * The generated suite never reaches the largest inline arrays of the
 * block IR (it emits no integer DIV/IDIV) or several semantic edges, so
 * a second, hand-built block set covers them under kCapacityEdgeDigest:
 * 64-bit DIV/IDIV and PUSH/POP with memory operands, three-operand
 * forms with a memory source, the stack engine, compare-and-branch
 * pairs with memory, 8/16-bit partial writes and the zero idioms.
 *
 * Each digest is what this test computed when its set was added. A
 * change that means to alter predictions must update it and say why.
 * kCapacityEdgeDigest moved once, when the one-operand DIV/IDIV memory
 * forms lost the store-address/store-data pair they never had on
 * hardware; the set without those forms digests as before.
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
#include "isa/builder.h"
#include "isa/encoder.h"

namespace facile {
namespace {

constexpr std::uint64_t kGoldenDigest = 0x62af092547d8db59ULL;
constexpr std::uint64_t kCapacityEdgeDigest = 0x7feb596a336d4f36ULL;

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

/** Hand-built bodies at the IR's capacities and semantic edges. */
std::vector<std::vector<isa::Inst>>
capacityEdgeBodies()
{
    using namespace isa;
    using M_ = Mnemonic;
    return {
        // The longest port-µop lists: 64-bit DIV/IDIV with memory
        // (compute µops plus one load; the operand is only read).
        {make(M_::DIV, {M(mem(RBX, 8, 8))}),
         make(M_::ADD, {R(RAX), R(RDX)}),
         make(M_::IDIV, {M(memIdx(RSI, RCX, 8, 16, 8))})},
        // Three operands with a memory source.
        {make(M_::VFMADD231PD, {R(XMM0), R(XMM1), M(mem(RDI, 32, 16))}),
         make(M_::VFMADD231PD, {R(XMM0), R(XMM0), R(XMM2)}),
         make(M_::VFMADD231PS,
              {R(YMM1), R(YMM2), M(memIdx(RDI, RAX, 4, 0, 32))})},
        // IMUL r, r/m, imm with both operand kinds.
        {make(M_::IMUL, {R(RAX), M(mem(RBX, 8)), I(100, 4)}),
         make(M_::IMUL, {R(ECX), R(EDX), I(7, 1)}),
         make(M_::ADD, {R(RAX), R(RCX)})},
        // The stack engine.
        {make(M_::PUSH, {R(RBX)}),
         make(M_::PUSH, {M(mem(RSI, 8))}),
         make(M_::POP, {R(RCX)}),
         make(M_::CALL, {I(0, 4)}),
         make(M_::POP, {M(mem(RDI, 16))}),
         make(M_::RET)},
        // Compare-and-branch with memory: CMP [mem], imm does not
        // macro-fuse; CMP reg, [mem] does, except on SnB/IvB.
        {make(M_::CMP, {M(mem(RBX, 8)), I(5, 1)}),
         makeCC(M_::JCC, Cond::NE, {I(2, 1)}),
         make(M_::ADD, {M(mem(RBX, 8)), R(RAX)}),
         make(M_::CMP, {R(RAX), M(mem(RBX, 16))}),
         makeCC(M_::JCC, Cond::E, {I(2, 1)})},
        // 8/16-bit partial writes merge with the old value.
        {make(M_::ADD, {R(AL), R(BL)}),
         make(M_::MOV, {R(AX), I(1000, 2)}),
         make(M_::INC, {R(CX)}),
         makeCC(M_::SETCC, Cond::L, {R(DL)}),
         make(M_::ADC, {R(AL), M(memIdx(R9, RAX, 2, 0, 1))}),
         make(M_::MOVZX, {R(EAX), R(AL)})},
        // Zero idioms, and a 16-bit XOR that is not one.
        {make(M_::XOR, {R(EAX), R(EAX)}),
         make(M_::SUB, {R(RDX), R(RDX)}),
         make(M_::PXOR, {R(XMM1), R(XMM1)}),
         make(M_::VPXOR, {R(XMM2), R(XMM3), R(XMM3)}),
         make(M_::XOR, {R(AX), R(AX)}),
         make(M_::ADD, {R(RAX), R(RDX)})},
    };
}

/**
 * The capacity-edge set: each body unrolled and as a loop (with a
 * back edge), on every arch, at both payload depths.
 */
std::vector<engine::Request>
capacityEdgeRequests()
{
    std::vector<engine::Request> out;
    for (std::vector<isa::Inst> body : capacityEdgeBodies()) {
        const std::vector<std::uint8_t> bytesU = isa::encodeBlock(body);
        body.push_back(isa::backEdge(isa::Cond::NE));
        const std::vector<std::uint8_t> bytesL = isa::encodeBlock(body);
        for (uarch::UArch arch : uarch::allUArchs())
            for (model::Payload payload :
                 {model::Payload::None, model::Payload::Full}) {
                out.push_back({bytesU, arch, false, {}, payload});
                out.push_back({bytesL, arch, true, {}, payload});
            }
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

/** Serial bb::analyze + model::predict over @p reqs. */
std::vector<model::Prediction>
predictSerially(const std::vector<engine::Request> &reqs)
{
    std::vector<model::Prediction> preds;
    model::PredictScratch scratch;
    for (const engine::Request &r : reqs)
        preds.push_back(model::predict(bb::analyze(r.bytes, r.arch),
                                       r.loop, r.config, scratch,
                                       r.payload));
    return preds;
}

TEST(Golden, SerialAnalyzeAndPredict)
{
    EXPECT_EQ(hex(digest(predictSerially(requests()))), hex(kGoldenDigest))
        << requests().size() << " predictions";
}

TEST(Golden, CapacityEdgeBlocks)
{
    const std::vector<engine::Request> reqs = capacityEdgeRequests();
    EXPECT_EQ(hex(digest(predictSerially(reqs))), hex(kCapacityEdgeDigest))
        << reqs.size() << " predictions";
    for (int lanes : {1, 4}) {
        engine::EngineOptions eo;
        eo.numThreads = lanes;
        engine::PredictionEngine eng(eo);
        for (int pass = 0; pass < 2; ++pass)
            EXPECT_EQ(hex(digest(eng.predictBatch(reqs))),
                      hex(kCapacityEdgeDigest))
                << lanes << " lanes, pass " << pass;
    }
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
