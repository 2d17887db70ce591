/**
 * @file
 * google-benchmark microbenchmarks of every pipeline stage of the
 * library: decoding, annotation, each Facile component, the full
 * predictor under both notions, and the reference simulator. These are
 * the raw numbers behind the Figure 4/5 harnesses and serve as a
 * regression guard for Facile's headline property — speed.
 */
#include <benchmark/benchmark.h>

#include "baselines/predictor_iface.h"
#include "bhive/generator.h"
#include "facile/dec.h"
#include "facile/ports.h"
#include "facile/precedence.h"
#include "facile/predec.h"
#include "facile/simple_components.h"
#include "sim/pipeline.h"

using namespace facile;

namespace {

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(20231020, 12);
    return s;
}

std::vector<bb::BasicBlock>
analyzedBlocks(bool loop)
{
    std::vector<bb::BasicBlock> blocks;
    for (const auto &b : suite())
        blocks.push_back(
            bb::analyze(loop ? b.bytesL : b.bytesU, uarch::UArch::SKL));
    return blocks;
}

void
BM_DecodeAnnotate(benchmark::State &state)
{
    const auto &s = suite();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bb::analyze(s[i % s.size()].bytesU, uarch::UArch::SKL));
        ++i;
    }
}
BENCHMARK(BM_DecodeAnnotate);

template <typename Fn>
void
runComponent(benchmark::State &state, bool loop, Fn fn)
{
    auto blocks = analyzedBlocks(loop);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fn(blocks[i % blocks.size()]));
        ++i;
    }
}

void
BM_Predec(benchmark::State &state)
{
    runComponent(state, false,
                 [](const bb::BasicBlock &b) { return model::predec(b, true); });
}
BENCHMARK(BM_Predec);

void
BM_Dec(benchmark::State &state)
{
    runComponent(state, false,
                 [](const bb::BasicBlock &b) { return model::dec(b); });
}
BENCHMARK(BM_Dec);

void
BM_Ports(benchmark::State &state)
{
    runComponent(state, false, [](const bb::BasicBlock &b) {
        return model::ports(b).throughput;
    });
}
BENCHMARK(BM_Ports);

void
BM_PortsExact(benchmark::State &state)
{
    runComponent(state, false, [](const bb::BasicBlock &b) {
        return model::portsExact(b).throughput;
    });
}
BENCHMARK(BM_PortsExact);

void
BM_Precedence(benchmark::State &state)
{
    runComponent(state, false, [](const bb::BasicBlock &b) {
        return model::precedenceBound(b);
    });
}
BENCHMARK(BM_Precedence);

void
BM_PrecedenceExplain(benchmark::State &state)
{
    model::PrecedenceScratch scratch;
    runComponent(state, false, [&scratch](const bb::BasicBlock &b) {
        return model::criticalChain(b, scratch).size();
    });
}
BENCHMARK(BM_PrecedenceExplain);

void
BM_FacileTpu(benchmark::State &state)
{
    runComponent(state, false, [](const bb::BasicBlock &b) {
        return model::predict(b, false).throughput;
    });
}
BENCHMARK(BM_FacileTpu);

void
BM_FacileTpl(benchmark::State &state)
{
    runComponent(state, true, [](const bb::BasicBlock &b) {
        return model::predict(b, true).throughput;
    });
}
BENCHMARK(BM_FacileTpl);

void
BM_ReferenceSimulator(benchmark::State &state)
{
    runComponent(state, true, [](const bb::BasicBlock &b) {
        return sim::measuredThroughput(b, true);
    });
}
BENCHMARK(BM_ReferenceSimulator)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
