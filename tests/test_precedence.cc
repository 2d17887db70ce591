/**
 * @file
 * Precedence-constraint model tests: known dependence chains, flag and
 * partial-register behavior, property tests checking the optimum-
 * cycle-ratio engines and the cycle-mean solver against brute-force
 * cycle enumeration on random graphs, and the bound's exactness on
 * every generated block.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <set>

#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "facile/precedence.h"
#include "isa/builder.h"
#include "support/rng.h"

namespace facile::model {
namespace {

using namespace facile::isa;
using facile::uarch::UArch;

bb::BasicBlock
blockOf(std::vector<Inst> insts, UArch arch = UArch::SKL)
{
    return bb::analyze(insts, arch);
}

TEST(Precedence, SimpleAddChain)
{
    // add rax, rax: loop-carried latency 1.
    bb::BasicBlock blk = blockOf({make(Mnemonic::ADD, {R(RAX), R(RAX)})});
    EXPECT_NEAR(precedence(blk).throughput, 1.0, 1e-9);
}

TEST(Precedence, ImulChain)
{
    bb::BasicBlock blk = blockOf({make(Mnemonic::IMUL, {R(RAX), R(RAX)})});
    EXPECT_NEAR(precedence(blk).throughput, 3.0, 1e-9);
}

TEST(Precedence, ChainAcrossInstructions)
{
    // imul(3) -> add(1) -> loop-carried: 4 cycles / 1 iteration.
    std::vector<Inst> insts = {
        make(Mnemonic::IMUL, {R(RAX), R(RBX)}),
        make(Mnemonic::ADD, {R(RBX), R(RAX)}),
    };
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 4.0, 1e-9);
}

TEST(Precedence, ParallelChainsTakeMax)
{
    std::vector<Inst> insts = {
        make(Mnemonic::IMUL, {R(RAX), R(RAX)}),  // 3-cycle chain
        make(Mnemonic::ADD, {R(RBX), R(RBX)}),   // 1-cycle chain
    };
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 3.0, 1e-9);
}

TEST(Precedence, ZeroIdiomBreaksChain)
{
    std::vector<Inst> insts = {
        make(Mnemonic::XOR, {R(RAX), R(RAX)}),
        make(Mnemonic::IMUL, {R(RAX), R(RBX)}),
    };
    // rax is rewritten from scratch each iteration: no loop-carried
    // cycle through rax.
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 0.0, 1e-9);
}

TEST(Precedence, MovBreaksChainOnlyLogically)
{
    // mov rax, rbx ; add rax, rax: rax's chain is refreshed from rbx
    // each iteration -> no cycle; rbx is never written -> no cycle.
    std::vector<Inst> insts = {
        make(Mnemonic::MOV, {R(RAX), R(RBX)}),
        make(Mnemonic::ADD, {R(RAX), R(RAX)}),
    };
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 0.0, 1e-9);
}

TEST(Precedence, LoadLatencyOnAddressRegs)
{
    // Pointer chase: mov rax, [rax] is a pure load µop; the chain runs
    // at the L1 load-to-use latency (4 on SKL).
    bb::BasicBlock blk =
        blockOf({make(Mnemonic::MOV, {R(RAX), M(mem(RAX))})});
    EXPECT_NEAR(precedence(blk).throughput, 4.0, 1e-9);
}

TEST(Precedence, LoadLatencyDiffersOnIcl)
{
    bb::BasicBlock blk =
        blockOf({make(Mnemonic::MOV, {R(RAX), M(mem(RAX))})}, UArch::ICL);
    EXPECT_NEAR(precedence(blk).throughput, 5.0, 1e-9);
}

TEST(Precedence, LoadOpChainsAtLoadPlusComputeLatency)
{
    // add rax, [rax]: load (4) + ALU (1) on SKL = 5.
    bb::BasicBlock blk =
        blockOf({make(Mnemonic::ADD, {R(RAX), M(mem(RAX))})});
    EXPECT_NEAR(precedence(blk).throughput, 5.0, 1e-9);
}

TEST(Precedence, FlagChainThroughAdc)
{
    // adc rax, rbx: reads CF, writes CF: loop-carried flag chain with
    // the instruction's latency.
    bb::BasicBlock blk = blockOf({make(Mnemonic::ADC, {R(RAX), R(RBX)})});
    EXPECT_NEAR(precedence(blk).throughput, 1.0, 1e-9);
}

TEST(Precedence, IncDoesNotChainThroughCf)
{
    // inc writes only the SPAZO group; a CF consumer (jb) must chain to
    // an older CF producer, not to inc.
    std::vector<Inst> insts = {
        make(Mnemonic::INC, {R(RAX)}),
        makeCC(Mnemonic::JCC, Cond::B, {I(-2, 1)}),
    };
    // No CF writer in the block: jb's read is loop-invariant; the only
    // cycle is rax's inc chain (1.0).
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 1.0, 1e-9);
}

TEST(Precedence, StackEngineHidesRspChain)
{
    // push/pop pairs do not serialize on rsp updates.
    std::vector<Inst> insts = {
        make(Mnemonic::PUSH, {R(RAX)}),
        make(Mnemonic::POP, {R(RBX)}),
    };
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 0.0, 1e-9);
}

TEST(Precedence, CriticalChainIdentifiesInstructions)
{
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RBX), R(RBX)}),   // independent 1-cycle
        make(Mnemonic::IMUL, {R(RAX), R(RAX)}),  // critical 3-cycle
    };
    PrecedenceResult r = precedence(blockOf(insts));
    ASSERT_FALSE(r.criticalChain.empty());
    EXPECT_EQ(r.criticalChain[0], 1);
}

TEST(Precedence, FmaAccumulatorChain)
{
    // vfmadd231pd acc, x, y: loop-carried through the accumulator at
    // FMA latency (4 on SKL).
    bb::BasicBlock blk = blockOf(
        {make(Mnemonic::VFMADD231PD, {R(XMM0), R(XMM1), R(XMM2)})});
    EXPECT_NEAR(precedence(blk).throughput, 4.0, 1e-9);
}

TEST(Precedence, MultiIterationCycle)
{
    // Two interleaved chains, each spanning 2 iterations:
    //   xchg-free swap via three movs is eliminated on SKL; use adds
    //   that write the *other* register: a cycle of latency 2 across 2
    //   iterations = 1.0.
    std::vector<Inst> insts = {
        make(Mnemonic::LEA, {R(RAX), M(mem(RBX, 1))}),
        make(Mnemonic::LEA, {R(RBX), M(mem(RAX, 1))}),
    };
    // rax <- rbx (prev write, intra), rbx <- rax (this iteration):
    // cycle latency 2 over 1 iteration.
    EXPECT_NEAR(precedence(blockOf(insts)).throughput, 2.0, 1e-9);
}

// ---- maxCycleRatio engine ----------------------------------------------

TEST(CycleRatio, EmptyGraph)
{
    EXPECT_DOUBLE_EQ(maxCycleRatio(0, {}).ratio, 0.0);
    EXPECT_DOUBLE_EQ(maxCycleRatio(3, {}).ratio, 0.0);
}

TEST(CycleRatio, SelfLoop)
{
    CycleRatioResult r = maxCycleRatio(1, {{0, 0, 3.0, 1}});
    EXPECT_NEAR(r.ratio, 3.0, 1e-9);
    EXPECT_EQ(r.cycleNodes.size(), 1u);
}

TEST(CycleRatio, TwoCyclesPicksMax)
{
    std::vector<RatioEdge> edges = {
        {0, 1, 1.0, 0}, {1, 0, 1.0, 1}, // ratio 2
        {2, 3, 5.0, 0}, {3, 2, 1.0, 2}, // ratio 2 over 2 iterations = 3
    };
    EXPECT_NEAR(maxCycleRatio(4, edges).ratio, 3.0, 1e-9);
}

TEST(CycleRatio, AcyclicIsZero)
{
    std::vector<RatioEdge> edges = {{0, 1, 9.0, 1}, {1, 2, 9.0, 1}};
    EXPECT_DOUBLE_EQ(maxCycleRatio(3, edges).ratio, 0.0);
}

TEST(CycleRatio, HowardMatchesLawlerOnRandomGraphs)
{
    // The two optimum-cycle-ratio engines must agree.
    facile::Rng rng(777);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(10));
        std::vector<RatioEdge> edges;
        const int m = 1 + static_cast<int>(rng.below(20));
        for (int e = 0; e < m; ++e) {
            edges.push_back({static_cast<int>(rng.below(n)),
                             static_cast<int>(rng.below(n)),
                             static_cast<double>(rng.below(16)),
                             1 + static_cast<int>(rng.below(2))});
        }
        CycleRatioResult howard = maxCycleRatioHoward(n, edges);
        CycleRatioResult lawler = maxCycleRatioLawler(n, edges);
        EXPECT_NEAR(howard.ratio, lawler.ratio, 1e-6) << "trial " << trial;
    }
}

TEST(CycleRatio, HowardOnDependenceGraphs)
{
    // Both engines on real dependence graphs from generated blocks.
    const auto &suite = facile::bhive::generateSuite(2024, 6);
    for (const auto &b : suite) {
        bb::BasicBlock blk = bb::analyze(b.bytesL, UArch::SKL);
        // precedence() uses Howard via maxCycleRatio; nothing to compare
        // here beyond smoke, so rebuild edges indirectly by checking
        // determinism and non-negativity.
        double tp1 = precedence(blk).throughput;
        double tp2 = precedence(blk).throughput;
        EXPECT_DOUBLE_EQ(tp1, tp2) << b.id;
        EXPECT_GE(tp1, 0.0) << b.id;
    }
}

TEST(CycleRatio, MatchesBruteForceOnRandomGraphs)
{
    facile::Rng rng(321);
    for (int trial = 0; trial < 60; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(6));
        std::vector<RatioEdge> edges;
        const int m = 1 + static_cast<int>(rng.below(12));
        for (int e = 0; e < m; ++e) {
            int from = static_cast<int>(rng.below(n));
            int to = static_cast<int>(rng.below(n));
            double w = static_cast<double>(rng.below(8));
            int cnt = static_cast<int>(rng.below(3));
            edges.push_back({from, to, w, cnt});
        }
        // Discard graphs with zero-count cycles (excluded by the
        // dependence-graph construction; the ratio is unbounded there).
        // Detect them with a DFS over count-0 edges.
        std::vector<std::vector<int>> zeroAdj(n);
        for (const auto &e : edges)
            if (e.count == 0)
                zeroAdj[e.from].push_back(e.to);
        bool zeroCycle = false;
        std::vector<int> state(n, 0);
        std::function<void(int)> dfs = [&](int v) {
            state[v] = 1;
            for (int w : zeroAdj[v]) {
                if (state[w] == 1)
                    zeroCycle = true;
                else if (state[w] == 0)
                    dfs(w);
            }
            state[v] = 2;
        };
        for (int v = 0; v < n; ++v)
            if (state[v] == 0)
                dfs(v);
        if (zeroCycle)
            continue;

        // Brute force: enumerate simple cycles via DFS paths.
        double best = 0.0;
        std::vector<int> stackNodes;
        std::vector<char> onPath(n, 0);
        std::function<void(int, int, double, int)> explore =
            [&](int start, int v, double w, int cnt) {
                for (const auto &e : edges) {
                    if (e.from != v)
                        continue;
                    if (e.to == start && cnt + e.count > 0) {
                        best = std::max(best, (w + e.weight) /
                                                  (cnt + e.count));
                    } else if (!onPath[e.to] && e.to > start) {
                        onPath[e.to] = 1;
                        explore(start, e.to, w + e.weight, cnt + e.count);
                        onPath[e.to] = 0;
                    }
                }
            };
        for (int s = 0; s < n; ++s) {
            onPath.assign(n, 0);
            onPath[s] = 1;
            explore(s, s, 0.0, 0);
        }

        EXPECT_NEAR(maxCycleRatio(n, edges).ratio, best, 1e-6)
            << "trial " << trial;
    }
}

// ---- the carried-value bound ----------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** True if @p x is p/q correctly rounded for some integer p and q <= qMax. */
bool
isExactFraction(double x, int qMax)
{
    for (int q = 1; q <= std::max(qMax, 1); ++q) {
        const double p = std::round(x * q);
        if (sameBits(p / q, x))
            return true;
    }
    return false;
}

TEST(PrecedenceBound, ExactRatioOnEveryGeneratedBlock)
{
    // 300 blocks per category × 9 arches × both notions. The bound must
    // be an exact p/q with q at most the number of carried values (the
    // sources of loop-carried edges), agree with Howard over the same
    // dependence edges, and be precedence()'s throughput bit for bit.
    const auto suite = facile::bhive::generateSuite(4242, 300);
    std::size_t blocks = 0, cyclic = 0;
    for (UArch arch : uarch::allUArchs()) {
        for (const auto &b : suite) {
            for (bool loop : {false, true}) {
                const bb::BasicBlock blk =
                    bb::analyze(loop ? b.bytesL : b.bytesU, arch);
                const double bound = precedenceBound(blk);
                const DependenceGraph g = dependenceGraph(blk);
                std::set<int> carriedSources;
                for (const RatioEdge &e : g.edges)
                    if (e.count == 1)
                        carriedSources.insert(e.from);
                const int k = static_cast<int>(carriedSources.size());
                const double howard =
                    maxCycleRatioHoward(g.nodes, g.edges).ratio;
                const std::string where =
                    b.id + (loop ? " TPL " : " TPU ") +
                    uarch::config(arch).abbrev;
                ASSERT_TRUE(std::isfinite(bound) && bound >= 0.0) << where;
                ASSERT_TRUE(isExactFraction(bound, k))
                    << where << ": " << bound << " is no p/q, q <= " << k;
                ASSERT_LE(std::abs(bound - howard),
                          1e-9 * std::max(1.0, howard))
                    << where << ": " << bound << " vs Howard " << howard;
                const double full = precedence(blk).throughput;
                ASSERT_TRUE(sameBits(bound, full))
                    << where << ": " << bound << " vs " << full;
                ++blocks;
                cyclic += bound > 0.0;
            }
        }
    }
    EXPECT_EQ(blocks, suite.size() * uarch::allUArchs().size() * 2);
    EXPECT_GT(cyclic, blocks / 2);
}

/** Maximum cycle mean by enumerating simple cycles, as an exact p/q. */
double
bruteForceCycleMean(const CycleMeanMatrix &m)
{
    std::int64_t bestP = 0, bestQ = 1;
    bool found = false;
    std::vector<char> onPath(static_cast<std::size_t>(m.k), 0);
    // Each cycle is enumerated from its smallest node.
    std::function<void(int, int, std::int64_t, std::int64_t)> explore =
        [&](int start, int v, std::int64_t sum, std::int64_t len) {
            for (int u = start; u < m.k; ++u) {
                if (m.w[v][u] < 0)
                    continue;
                if (u == start) {
                    const std::int64_t p = sum + m.w[v][u], q = len + 1;
                    if (!found || p * bestQ > bestP * q) {
                        bestP = p;
                        bestQ = q;
                        found = true;
                    }
                } else if (!onPath[u]) {
                    onPath[u] = 1;
                    explore(start, u, sum + m.w[v][u], len + 1);
                    onPath[u] = 0;
                }
            }
        };
    for (int s = 0; s < m.k; ++s) {
        onPath[s] = 1;
        explore(s, s, 0, 0);
        onPath[s] = 0;
    }
    return found ? static_cast<double>(bestP) / static_cast<double>(bestQ)
                 : 0.0;
}

TEST(CycleMean, MatchesBruteForceOnRandomMatrices)
{
    facile::Rng rng(4711);
    int acyclic = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        CycleMeanMatrix m;
        m.k = 1 + static_cast<int>(rng.below(7));
        // Sparse to dense, small to large weights: the means are
        // fractions with every denominator up to k.
        const std::uint64_t missingPct = rng.below(90);
        const std::uint64_t maxWeight = trial % 3 == 0 ? 1000003 : 17;
        for (int u = 0; u < m.k; ++u)
            for (int v = 0; v < m.k; ++v)
                m.w[u][v] = rng.below(100) < missingPct
                                ? -1
                                : static_cast<std::int64_t>(
                                      rng.below(maxWeight));
        const double expect = bruteForceCycleMean(m);
        const double got = maxCycleMean(m);
        ASSERT_TRUE(sameBits(got, expect))
            << "trial " << trial << " k " << m.k << ": " << got << " vs "
            << expect;
        acyclic += expect == 0.0;

        // The same cycles among up to 34 nodes, the others isolated:
        // the wider solver widths must give the same bits.
        CycleMeanMatrix padded = m;
        padded.k += static_cast<int>(rng.below(isa::kNumValues - m.k + 1));
        for (int u = 0; u < padded.k; ++u)
            for (int v = 0; v < padded.k; ++v)
                if (u >= m.k || v >= m.k)
                    padded.w[u][v] = -1;
        ASSERT_TRUE(sameBits(maxCycleMean(padded), expect))
            << "trial " << trial << " padded to k " << padded.k;
    }
    EXPECT_GT(acyclic, 0);
    EXPECT_LT(acyclic, 1500);
}

TEST(CycleMean, EmptyAndSelfLoop)
{
    CycleMeanMatrix m;
    EXPECT_DOUBLE_EQ(maxCycleMean(m), 0.0);
    m.k = 1;
    m.w[0][0] = -1;
    EXPECT_DOUBLE_EQ(maxCycleMean(m), 0.0);
    m.w[0][0] = 7;
    EXPECT_DOUBLE_EQ(maxCycleMean(m), 7.0);
}

TEST(PrecedenceBound, CrossValueRecurrenceIsExact)
{
    // imul rax,rbx / imul rbx,rax: the rax → rbx → rax cycle spans one
    // iteration (6 cycles); each self-recurrence is 3. Not diagonal.
    bool shortCircuited = true;
    const bb::BasicBlock blk =
        blockOf({make(Mnemonic::IMUL, {R(RAX), R(RBX)}),
                 make(Mnemonic::IMUL, {R(RBX), R(RAX)})});
    EXPECT_DOUBLE_EQ(precedenceBound(blk, &shortCircuited), 6.0);
    EXPECT_FALSE(shortCircuited);

    // lea rax,[rbx+1] / lea rbx,[rcx+1] / lea rcx,[rax+1]: one cycle of
    // three lea latencies that crosses two iteration boundaries.
    const bb::BasicBlock three = blockOf(
        {make(Mnemonic::LEA, {R(RAX), M(mem(RBX, 1))}),
         make(Mnemonic::LEA, {R(RBX), M(mem(RCX, 1))}),
         make(Mnemonic::LEA, {R(RCX), M(mem(RAX, 1))})});
    EXPECT_TRUE(isExactFraction(precedenceBound(three), 3));
    EXPECT_TRUE(sameBits(precedenceBound(three),
                         maxCycleRatioHoward(dependenceGraph(three).nodes,
                                             dependenceGraph(three).edges)
                             .ratio));
}

TEST(PrecedenceBound, EveryValueCarriedMatchesHoward)
{
    // A ring of adds through all 16 general-purpose registers, plus
    // two vector registers feeding each other and the flags read by
    // adc: more carried values than any generated block has.
    static const Reg gprs[] = {RAX, RBX, RCX, RDX, RSI, RDI, RBP, R8,
                               R9,  R10, R11, R12, R13, R14, R15, RSP};
    std::vector<Inst> insts;
    for (int i = 0; i < 16; ++i)
        insts.push_back(make(i == 15 ? Mnemonic::ADC : Mnemonic::IMUL,
                             {R(gprs[i]), R(gprs[(i + 1) % 16])}));
    insts.push_back(make(Mnemonic::PADDD, {R(XMM0), R(XMM1)}));
    insts.push_back(make(Mnemonic::PADDD, {R(XMM1), R(XMM0)}));
    for (UArch arch : uarch::allUArchs()) {
        const bb::BasicBlock blk = blockOf(insts, arch);
        const DependenceGraph g = dependenceGraph(blk);
        std::set<int> carriedSources;
        for (const RatioEdge &e : g.edges)
            if (e.count == 1)
                carriedSources.insert(e.from);
        ASSERT_GT(carriedSources.size(), 16u);
        bool shortCircuited = true;
        const double bound = precedenceBound(blk, &shortCircuited);
        EXPECT_FALSE(shortCircuited);
        EXPECT_GT(bound, 0.0);
        EXPECT_TRUE(isExactFraction(
            bound, static_cast<int>(carriedSources.size())));
        EXPECT_TRUE(
            sameBits(bound, maxCycleRatioHoward(g.nodes, g.edges).ratio))
            << uarch::config(arch).abbrev << ": " << bound;
    }
}

} // namespace
} // namespace facile::model
