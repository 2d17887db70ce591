#include "facile/precedence.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "isa/semantics.h"
#include "uarch/config.h"

namespace facile::model {

namespace {

/** Thread-local scratch backing the scratch-less public entry points. */
PrecedenceScratch &
tlsScratch()
{
    thread_local PrecedenceScratch s;
    return s;
}

/*
 * The engines below operate on EdgeArrays (struct-of-arrays) and follow
 * a common contract: they return the maximum cycle ratio and leave the
 * node indices of one critical cycle in s.engineCycle (empty if none).
 * All staging lives in the scratch, so a warm scratch makes every call
 * allocation-free.
 */

/**
 * Detect a cycle of strictly positive total weight under the modified
 * weights w(e) = weight(e) - lambda * count(e), using Bellman-Ford in
 * the max-plus semiring. On success the node indices of one such cycle
 * are left in s.cycle; on failure s.cycle is empty.
 */
bool
positiveCycle(int n, const EdgeArrays &edges, double lambda,
              PrecedenceScratch &s)
{
    s.cycle.clear();
    if (n == 0)
        return false;
    const std::size_t m = edges.size();
    const int *from = edges.from.data();
    const int *to = edges.to.data();

    // Modified weights w(e) - lambda * count(e), precomputed once; the
    // relaxation rounds then stream one contiguous array. Same
    // arithmetic per edge as computing it in the loop, so results are
    // bit-identical.
    s.probeW.resize(m);
    for (std::size_t j = 0; j < m; ++j)
        s.probeW[j] = edges.weight[j] - lambda * edges.count[j];
    const double *w = s.probeW.data();

    s.dist.assign(static_cast<std::size_t>(n), 0.0);
    s.pred.assign(static_cast<std::size_t>(n), -1);
    int updatedNode = -1;
    for (int round = 0; round < n; ++round) {
        updatedNode = -1;
        for (std::size_t j = 0; j < m; ++j) {
            if (s.dist[from[j]] + w[j] > s.dist[to[j]] + 1e-12) {
                s.dist[to[j]] = s.dist[from[j]] + w[j];
                s.pred[to[j]] = from[j];
                updatedNode = to[j];
            }
        }
        if (updatedNode < 0)
            return false;
    }
    // A node updated in round n lies on or is reachable from a positive
    // cycle; walk back n steps to land inside the cycle, then collect it.
    int v = updatedNode;
    for (int i = 0; i < n; ++i)
        v = s.pred[v];
    int start = v;
    do {
        s.cycle.push_back(v);
        v = s.pred[v];
    } while (v != start && static_cast<int>(s.cycle.size()) <= n);
    std::reverse(s.cycle.begin(), s.cycle.end());
    return true;
}

/**
 * Binary-search cycle-ratio maximization on one (small) subgraph.
 * @p seed is a lower bound known from previously solved subgraphs: the
 * search starts there, and a subgraph without a cycle beating the seed
 * is rejected by the very first Bellman-Ford probe. @p seedFeasible
 * declares that the caller already probed a cycle beating the seed,
 * skipping the redundant feasibility pass.
 */
double
maxCycleRatioDense(int n_nodes, const EdgeArrays &edges, double seed,
                   bool seedFeasible, PrecedenceScratch &s)
{
    s.engineCycle.clear();

    double lo = std::max(0.0, seed), hi = 0.0;
    for (double w : edges.weight)
        hi += std::max(0.0, w);
    if (hi == 0.0)
        hi = 1.0;

    // Is there a cycle that beats the seed at all? With no seed, probe
    // with lambda slightly below zero so zero-weight cycles register as
    // positive.
    if (!seedFeasible &&
        !positiveCycle(n_nodes, edges, lo > 0.0 ? lo : -1e-6, s))
        return 0.0;

    // Binary search for the largest lambda admitting a positive cycle.
    for (int it = 0; it < 64 && hi - lo > 1e-10 * (1.0 + hi); ++it) {
        double mid = 0.5 * (lo + hi);
        if (positiveCycle(n_nodes, edges, mid, s))
            lo = mid;
        else
            hi = mid;
    }
    double ratio = 0.5 * (lo + hi);
    if (ratio < 1e-9)
        ratio = 0.0;

    // Extract a critical cycle just below the optimum.
    double probe = ratio - std::max(1e-7, ratio * 1e-6);
    positiveCycle(n_nodes, edges, probe, s);
    s.engineCycle.assign(s.cycle.begin(), s.cycle.end());
    return ratio;
}

/**
 * Strongly-connected components in one pass (iterative Tarjan); fills
 * s.comp with a component id per node (ids are arbitrary but equal
 * within a component) and returns the component count. Needs only the
 * forward CSR adjacency — half the bookkeeping of the previous
 * Kosaraju two-pass implementation, and sccIds is a third of the
 * precedence cost on the cold path.
 */
int
sccIds(int n, const EdgeArrays &edges, PrecedenceScratch &s)
{
    const int m = static_cast<int>(edges.size());
    const int *eFrom = edges.from.data();
    const int *eTo = edges.to.data();

    // Forward CSR adjacency (stable counting sort, so neighbor order
    // matches edge order).
    s.fwdStart.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int j = 0; j < m; ++j)
        ++s.fwdStart[eFrom[j] + 1];
    std::partial_sum(s.fwdStart.begin(), s.fwdStart.end(),
                     s.fwdStart.begin());
    s.fwdAdj.resize(static_cast<std::size_t>(m));
    s.howPos.assign(s.fwdStart.begin(), s.fwdStart.end() - 1);
    for (int j = 0; j < m; ++j)
        s.fwdAdj[s.howPos[eFrom[j]]++] = eTo[j];

    s.comp.assign(static_cast<std::size_t>(n), -1);
    s.tjIndex.assign(static_cast<std::size_t>(n), -1);
    s.tjLow.resize(static_cast<std::size_t>(n));
    s.order.clear(); // Tarjan node stack
    s.seen.assign(static_cast<std::size_t>(n), 0); // on-stack flags
    s.stackNode.clear();
    s.stackIter.clear();

    int idx = 0;
    int nComp = 0;
    for (int root = 0; root < n; ++root) {
        if (s.tjIndex[root] >= 0)
            continue;
        s.tjIndex[root] = s.tjLow[root] = idx++;
        s.order.push_back(root);
        s.seen[root] = 1;
        s.stackNode.push_back(root);
        s.stackIter.push_back(s.fwdStart[root]);
        while (!s.stackNode.empty()) {
            int v = s.stackNode.back();
            int &i = s.stackIter.back();
            if (i < s.fwdStart[v + 1]) {
                int w = s.fwdAdj[i++];
                if (s.tjIndex[w] < 0) {
                    s.tjIndex[w] = s.tjLow[w] = idx++;
                    s.order.push_back(w);
                    s.seen[w] = 1;
                    s.stackNode.push_back(w);
                    s.stackIter.push_back(s.fwdStart[w]);
                } else if (s.seen[w] && s.tjIndex[w] < s.tjLow[v]) {
                    s.tjLow[v] = s.tjIndex[w];
                }
            } else {
                if (s.tjLow[v] == s.tjIndex[v]) {
                    int u;
                    do {
                        u = s.order.back();
                        s.order.pop_back();
                        s.seen[u] = 0;
                        s.comp[u] = nComp;
                    } while (u != v);
                    ++nComp;
                }
                s.stackNode.pop_back();
                s.stackIter.pop_back();
                if (!s.stackNode.empty()) {
                    int parent = s.stackNode.back();
                    if (s.tjLow[v] < s.tjLow[parent])
                        s.tjLow[parent] = s.tjLow[v];
                }
            }
        }
    }
    return nComp;
}

/**
 * Howard's policy iteration for the maximum cycle ratio on one strongly
 * connected subgraph (every node must lie on a cycle). Maintains a
 * policy (one out-edge per node); each round evaluates the policy's
 * cycles, takes the best ratio r, solves the value function d under r,
 * and switches any edge (u,v) with d[u] < w(u,v) - r*t(u,v) + d[v].
 * Terminates when no edge improves; guarded by an iteration cap with a
 * binary-search fallback (never observed to trigger on dependence
 * graphs, but cheap insurance).
 */
double
howardDense(int n, const EdgeArrays &edges, double seed, bool seedFeasible,
            PrecedenceScratch &s)
{
    s.engineCycle.clear();
    const int *eFrom = edges.from.data();
    const int *eTo = edges.to.data();
    const double *eW = edges.weight.data();
    const int *eC = edges.count.data();

    // CSR adjacency of edge indices grouped by source node.
    s.howStart.assign(static_cast<std::size_t>(n) + 1, 0);
    for (std::size_t j = 0; j < edges.size(); ++j)
        ++s.howStart[eFrom[j] + 1];
    std::partial_sum(s.howStart.begin(), s.howStart.end(),
                     s.howStart.begin());
    for (int v = 0; v < n; ++v)
        if (s.howStart[v + 1] == s.howStart[v])
            return 0.0; // not strongly connected: caller filtered SCCs
    s.howEdge.resize(edges.size());
    s.howPos.assign(s.howStart.begin(), s.howStart.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e)
        s.howEdge[s.howPos[eFrom[e]]++] = static_cast<int>(e);

    s.howPolicy.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
        s.howPolicy[v] = s.howEdge[s.howStart[v]];

    s.howD.assign(static_cast<std::size_t>(n), 0.0);
    s.howMark.resize(static_cast<std::size_t>(n));
    s.howAnchor.resize(static_cast<std::size_t>(n));
    s.howSolved.resize(static_cast<std::size_t>(n));

    const int maxRounds = 4 * n + 16;
    for (int round = 0; round < maxRounds; ++round) {
        // --- evaluate: find the cycles of the policy graph ----------------
        double r = -1.0;
        s.howBestCycle.clear();
        std::fill(s.howMark.begin(), s.howMark.end(), -1);
        std::fill(s.howAnchor.begin(), s.howAnchor.end(), -1);
        for (int start = 0; start < n; ++start) {
            if (s.howMark[start] >= 0)
                continue;
            // Walk the policy path until we hit something visited.
            int v = start;
            while (s.howMark[v] < 0) {
                s.howMark[v] = start;
                v = eTo[s.howPolicy[v]];
            }
            if (s.howMark[v] == start && s.howAnchor[v] < 0) {
                // Found a new cycle; extract it.
                s.howCycle.clear();
                double w = 0.0;
                int t = 0;
                int u = v;
                do {
                    s.howCycle.push_back(u);
                    w += eW[s.howPolicy[u]];
                    t += eC[s.howPolicy[u]];
                    u = eTo[s.howPolicy[u]];
                } while (u != v);
                double ratio = t > 0 ? w / t : 0.0;
                for (int c : s.howCycle)
                    s.howAnchor[c] = v;
                if (ratio > r) {
                    r = ratio;
                    s.howBestCycle = s.howCycle;
                }
            }
        }
        if (r < 0)
            break;

        // --- value determination under the global ratio r -----------------
        // d is consistent along policy edges: d[u] = w - r*t + d[succ].
        // Solve by walking each node's policy path to its cycle; anchor
        // nodes get d = 0 (per-cycle drift is absorbed by improvement).
        std::fill(s.howSolved.begin(), s.howSolved.end(), 0);
        for (int v = 0; v < n; ++v) {
            if (s.howAnchor[v] == v) {
                s.howD[v] = 0.0;
                s.howSolved[v] = 1;
            }
        }
        for (int start = 0; start < n; ++start) {
            if (s.howSolved[start])
                continue;
            s.howPath.clear();
            int v = start;
            while (!s.howSolved[v]) {
                s.howPath.push_back(v);
                v = eTo[s.howPolicy[v]];
            }
            for (auto it = s.howPath.rbegin(); it != s.howPath.rend();
                 ++it) {
                const int e = s.howPolicy[*it];
                s.howD[*it] = eW[e] - r * eC[e] + s.howD[eTo[e]];
                s.howSolved[*it] = 1;
            }
        }

        // --- improvement --------------------------------------------------
        bool improved = false;
        for (int v = 0; v < n; ++v) {
            for (int i = s.howStart[v]; i < s.howStart[v + 1]; ++i) {
                const int e = s.howEdge[i];
                double cand = eW[e] - r * eC[e] + s.howD[eTo[e]];
                if (cand > s.howD[v] + 1e-9) {
                    s.howD[v] = cand;
                    s.howPolicy[v] = s.howEdge[i];
                    improved = true;
                }
            }
        }
        if (!improved) {
            s.engineCycle.assign(s.howBestCycle.begin(),
                                 s.howBestCycle.end());
            return std::max(0.0, r);
        }
    }
    // Fallback: the guard fired; use the exhaustive engine.
    return maxCycleRatioDense(n, edges, seed, seedFeasible, s);
}

/**
 * Solve per SCC with the given dense engine; take the maximum. Returns
 * the best ratio and leaves the critical cycle's global node ids in
 * s.bestCycle.
 *
 * Components are solved in discovery order; the best ratio found so far
 * seeds the next component's search, and a single Bellman-Ford probe
 * rejects components that cannot beat it — the common case once the
 * critical component has been seen.
 */
template <typename Engine>
double
perScc(int n_nodes, const EdgeArrays &edges, Engine engine,
       PrecedenceScratch &s)
{
    s.bestCycle.clear();
    double bestRatio = 0.0;
    if (n_nodes == 0 || edges.empty())
        return bestRatio;

    // Cycles live entirely within strongly connected components; solve
    // each component separately (they are typically tiny) and take the
    // maximum. Self-loops are components of size one with an edge.
    const int nComp = sccIds(n_nodes, edges, s);

    const int *eFrom = edges.from.data();
    const int *eTo = edges.to.data();

    // Group intra-component edge indices by component (counting sort).
    s.compStart.assign(static_cast<std::size_t>(nComp) + 1, 0);
    for (std::size_t j = 0; j < edges.size(); ++j)
        if (s.comp[eFrom[j]] == s.comp[eTo[j]])
            ++s.compStart[s.comp[eFrom[j]] + 1];
    std::partial_sum(s.compStart.begin(), s.compStart.end(),
                     s.compStart.begin());
    s.compEdgeIdx.resize(static_cast<std::size_t>(s.compStart.back()));
    s.howPos.assign(s.compStart.begin(), s.compStart.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e)
        if (s.comp[eFrom[e]] == s.comp[eTo[e]])
            s.compEdgeIdx[s.howPos[s.comp[eFrom[e]]]++] =
                static_cast<int>(e);

    s.localId.assign(static_cast<std::size_t>(n_nodes), -1);
    for (int c = 0; c < nComp; ++c) {
        if (s.compStart[c] == s.compStart[c + 1])
            continue;
        // Renumber nodes of this component densely.
        s.globalId.clear();
        s.localEdges.clear();
        for (int i = s.compStart[c]; i < s.compStart[c + 1]; ++i) {
            const int e = s.compEdgeIdx[i];
            for (int v : {eFrom[e], eTo[e]}) {
                if (s.localId[v] < 0) {
                    s.localId[v] = static_cast<int>(s.globalId.size());
                    s.globalId.push_back(v);
                }
            }
            s.localEdges.push(s.localId[eFrom[e]], s.localId[eTo[e]],
                              edges.weight[e], edges.count[e]);
        }
        const int localN = static_cast<int>(s.globalId.size());
        const bool probed = bestRatio > 0.0;

        if (localN == 1) {
            // Self-loop fast path: ~3/4 of solvable components are a
            // single node whose cycles are its individual self-edges.
            // Replicates the Bellman-Ford probe and howardDense
            // specialized to n == 1 (same rounds, same thresholds, so
            // the resulting doubles are identical), skipping the CSR
            // and bookkeeping.
            const double *w = s.localEdges.weight.data();
            const int *c = s.localEdges.count.data();
            const std::size_t m = s.localEdges.size();
            bool worth = !probed;
            if (probed) {
                for (std::size_t j = 0; j < m; ++j)
                    if (w[j] - bestRatio * c[j] > 1e-12) {
                        worth = true;
                        break;
                    }
            }
            if (worth) {
                int policy = 0;
                double r = 0.0;
                bool solved = false;
                for (int round = 0; round < 20; ++round) {
                    r = c[policy] > 0 ? w[policy] / c[policy] : 0.0;
                    // Improvement exactly as howardDense at n == 1:
                    // cand = w - r*c + d (the self-edge ends at the
                    // node itself, so d appears on both sides and the
                    // LAST edge with positive reduced cost wins).
                    double d = 0.0;
                    bool improved = false;
                    for (std::size_t j = 0; j < m; ++j) {
                        double cand = w[j] - r * c[j] + d;
                        if (cand > d + 1e-9) {
                            d = cand;
                            policy = static_cast<int>(j);
                            improved = true;
                        }
                    }
                    if (!improved) {
                        solved = true;
                        break;
                    }
                }
                double sub;
                if (solved) {
                    sub = std::max(0.0, r);
                    s.engineCycle.assign(1, 0);
                } else {
                    sub = maxCycleRatioDense(1, s.localEdges, bestRatio,
                                             probed, s);
                }
                if (sub > bestRatio ||
                    (s.bestCycle.empty() && !s.engineCycle.empty())) {
                    bestRatio = std::max(bestRatio, sub);
                    s.bestCycle.assign(1, s.globalId[0]);
                }
            }
            s.localId[s.globalId[0]] = -1;
            continue;
        }

        // Early exit: can this component beat the best ratio so far?
        // (With no positive ratio yet the probe is left to the engine,
        // which handles the zero-weight-cycle case itself.)
        const bool worthSolving =
            !probed || positiveCycle(localN, s.localEdges, bestRatio, s);
        if (worthSolving) {
            double sub = engine(localN, s.localEdges, bestRatio, probed, s);
            if (sub > bestRatio ||
                (s.bestCycle.empty() && !s.engineCycle.empty())) {
                bestRatio = std::max(bestRatio, sub);
                s.bestCycle.clear();
                for (int v : s.engineCycle)
                    s.bestCycle.push_back(s.globalId[v]);
            }
        }

        for (int v : s.globalId)
            s.localId[v] = -1;
    }
    return bestRatio;
}

double
maxCycleRatioImpl(int n_nodes, const EdgeArrays &edges,
                  PrecedenceScratch &s)
{
    // Howard's algorithm is the paper's engine of choice [16, 18] and is
    // the fastest in practice; it carries its own exhaustive fallback.
    return perScc(n_nodes, edges, howardDense, s);
}

template <typename Engine>
CycleRatioResult
solveAos(int n_nodes, const std::vector<RatioEdge> &edges, Engine engine)
{
    PrecedenceScratch &s = tlsScratch();
    s.inputEdges.assignFrom(edges);
    CycleRatioResult result;
    result.ratio = perScc(n_nodes, s.inputEdges, engine, s);
    result.cycleNodes.assign(s.bestCycle.begin(), s.bestCycle.end());
    return result;
}

} // namespace

CycleRatioResult
maxCycleRatioHoward(int n_nodes, const std::vector<RatioEdge> &edges)
{
    return solveAos(n_nodes, edges,
                    [](int n, const EdgeArrays &e, double seed,
                       bool feasible, PrecedenceScratch &s) {
                        return howardDense(n, e, seed, feasible, s);
                    });
}

CycleRatioResult
maxCycleRatioLawler(int n_nodes, const std::vector<RatioEdge> &edges)
{
    return solveAos(n_nodes, edges,
                    [](int n, const EdgeArrays &e, double seed,
                       bool feasible, PrecedenceScratch &s) {
                        return maxCycleRatioDense(n, e, seed, feasible, s);
                    });
}

CycleRatioResult
maxCycleRatio(int n_nodes, const std::vector<RatioEdge> &edges)
{
    PrecedenceScratch &s = tlsScratch();
    s.inputEdges.assignFrom(edges);
    CycleRatioResult result;
    result.ratio = maxCycleRatioImpl(n_nodes, s.inputEdges, s);
    result.cycleNodes.assign(s.bestCycle.begin(), s.bestCycle.end());
    return result;
}

namespace {

/** Value id of the rsp family (isa/semantics.h numbering). */
constexpr int kRspValue = 4;

bool
isStackOp(const isa::Inst &inst)
{
    return inst.mnem == isa::Mnemonic::PUSH ||
           inst.mnem == isa::Mnemonic::POP ||
           inst.mnem == isa::Mnemonic::CALL ||
           inst.mnem == isa::Mnemonic::RET;
}

/** Value ids of the address registers of @p inst if it loads, else 0. */
std::uint64_t
loadAddressMask(const isa::Inst &inst)
{
    const isa::MemOp *m = inst.memOperand();
    if (!m || !inst.isLoad())
        return 0;
    std::uint64_t mask = 0;
    for (const isa::Reg &reg : {m->base, m->index})
        if (reg.family() >= 0)
            mask |= std::uint64_t{1} << reg.family();
    return mask;
}

/**
 * Build the dependence graph of @p blk into s.edges / s.nodeInst /
 * s.nodeValue; returns the node count.
 */
int
buildDepGraph(const bb::BasicBlock &blk, PrecedenceScratch &s)
{
    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);

    // One node per (instruction, written value): nodeInst/nodeValue.
    s.nodeInst.clear();
    s.nodeValue.clear();
    s.edges.clear();
    s.edges.reserve(blk.insts.size() * 4);

    std::array<int, isa::kNumValues> lastWriterEnd;
    lastWriterEnd.fill(-1);

    for (std::size_t i = 0; i < blk.insts.size(); ++i) {
        for (int v : blk.insts[i].rw.writes) {
            lastWriterEnd[v] = static_cast<int>(s.nodeInst.size());
            s.nodeInst.push_back(static_cast<int>(i));
            s.nodeValue.push_back(v);
        }
    }

    std::array<int, isa::kNumValues> lastWriter;
    lastWriter.fill(-1);

    int nodeCursor = 0;
    for (std::size_t i = 0; i < blk.insts.size(); ++i) {
        const auto &ai = blk.insts[i];
        const isa::RwSets &sets = ai.rw;
        const int firstWriteNode = nodeCursor;
        const int nWrites = static_cast<int>(sets.writes.size());

        if (!sets.depBreaking && nWrites > 0) {
            const std::uint64_t addrRegs = loadAddressMask(ai.dec.inst);
            const bool stackOp = isStackOp(ai.dec.inst);
            for (int r : sets.reads) {
                int producer = lastWriter[r];
                int iterCount = 0;
                if (producer < 0) {
                    producer = lastWriterEnd[r];
                    iterCount = 1;
                }
                if (producer < 0)
                    continue; // loop-invariant input
                double lat = static_cast<double>(ai.info.latency);
                if ((addrRegs >> r) & 1)
                    lat += cfg.loadLatency;
                for (int w = 0; w < nWrites; ++w) {
                    double edgeLat = lat;
                    // The stack engine updates rsp outside the execution
                    // core; rsp results of stack ops are available
                    // immediately.
                    if (stackOp &&
                        s.nodeValue[firstWriteNode + w] == kRspValue)
                        edgeLat = 0.0;
                    s.edges.push(producer, firstWriteNode + w, edgeLat,
                                 iterCount);
                }
            }
        }

        for (int w = 0; w < nWrites; ++w)
            lastWriter[s.nodeValue[firstWriteNode + w]] =
                firstWriteNode + w;
        nodeCursor += nWrites;
    }

    return static_cast<int>(s.nodeInst.size());
}

/**
 * "No path" in the integer path-length arrays. Real lengths are never
 * negative; a sum that involves kNone stays far below 0 for any block
 * whose total latency is below 2^61 cycles, and two kNone terms still
 * add up without overflow.
 */
constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min() / 4;

/** Calls @p f with each set bit of @p mask, lowest first. */
template <typename F>
inline void
forEachBit(std::uint64_t mask, F f)
{
    for (; mask; mask &= mask - 1)
        f(std::countr_zero(mask));
}

/**
 * The forward pass of precedenceBound() over @p blk. On return, for
 * each carried value v, reach[v] is the set of carried values (as a
 * value-id mask) from which a path reaches the last producer of v, and
 * for a reached v, len[v][j] is the longest such path from source j
 * (the j-th carried value), or less than 0 if there is none. Every row
 * is W wide, so the per-source loops have a fixed trip count; W must be
 * at least the number of carried values.
 */
template <int W>
void
carriedPaths(const bb::BasicBlock &blk, std::uint64_t carried,
             std::uint64_t (&reach)[isa::kNumValues],
             std::int64_t (&len)[isa::kNumValues][isa::kNumValues])
{
    // At the start of the iteration each carried value is its own
    // source at length 0: its producer is its last writer of the
    // previous iteration. `alive` holds the values whose producer some
    // source reaches; reach[v] is read only for them.
    std::uint64_t alive = carried;
    int j = 0;
    forEachBit(carried, [&](int c) {
        reach[c] = std::uint64_t{1} << c;
        std::fill_n(len[c], W, kNone);
        len[c][j++] = 0;
    });

    const int loadLatency = uarch::config(blk.arch).loadLatency;
    for (const auto &ai : blk.insts) {
        const isa::RwSets &rw = ai.rw;
        const std::uint64_t writes = rw.writes.bits();
        if (!writes)
            continue;
        const std::uint64_t live =
            rw.depBreaking ? 0 : rw.reads.bits() & alive;
        if (!live) {
            alive &= ~writes;
            continue;
        }

        // Per source, the longest path into this instruction's writes,
        // over its reads: with the read's edge weight, and (into the
        // rsp write of a stack op) with weight 0. Computed before any
        // write, so the instruction's own reads see the old state. Only
        // general-purpose registers address memory.
        const std::uint64_t addrRegs =
            (live & 0xffff) ? loadAddressMask(ai.dec.inst) : 0;
        const bool zeroRsp =
            (writes >> kRspValue & 1) && isStackOp(ai.dec.inst);
        std::int64_t via[W], viaZero[W];
        std::fill_n(via, W, kNone);
        if (zeroRsp)
            std::fill_n(viaZero, W, kNone);
        std::uint64_t in = 0;
        forEachBit(live, [&](int r) {
            in |= reach[r];
            const std::int64_t weight =
                ai.info.latency + ((addrRegs >> r & 1) ? loadLatency : 0);
            for (int i = 0; i < W; ++i)
                via[i] = std::max(via[i], len[r][i] + weight);
            if (zeroRsp)
                for (int i = 0; i < W; ++i)
                    viaZero[i] = std::max(viaZero[i], len[r][i]);
        });
        alive |= writes;
        forEachBit(writes, [&](int w) {
            reach[w] = in;
            std::copy_n(zeroRsp && w == kRspValue ? viaZero : via, W,
                        len[w]);
        });
    }
    forEachBit(carried & ~alive, [&](int v) { reach[v] = 0; });
}

/**
 * maxCycleMean() of the k×k matrix whose entry (u, v) is entry(u, v)
 * (absent if negative), with rows W wide (W >= k): Karp's formula with
 * D_0(v) = 0 for every v (a virtual source with a zero-weight edge to
 * each node). D_t(v) is the heaviest walk of exactly t entries ending
 * at v, and the maximum cycle mean is the max over v of the min over
 * t < k of (D_k(v) - D_t(v)) / (k - t). Absent entries and walks are
 * kNone, so the recurrence needs no branch: a sum with a kNone term
 * stays below 0, a walk's weight never does, and clamping at kNone
 * keeps every sum in range. Columns k..W-1 are such absent entries.
 */
template <int W, typename Entry>
double
karp(int k, Entry entry)
{
    std::int64_t in[W][W]; // in[v][u]: the entry u -> v
    for (auto &row : in)
        std::fill_n(row, W, kNone);
    for (int u = 0; u < k; ++u) {
        for (int v = 0; v < k; ++v) {
            const std::int64_t w = entry(u, v);
            if (w >= 0)
                in[v][u] = w;
        }
    }
    std::int64_t d[isa::kNumValues + 1][W];
    std::fill_n(d[0], W, 0);
    for (int t = 1; t <= k; ++t) {
        for (int v = 0; v < W; ++v) {
            std::int64_t best = kNone;
            for (int u = 0; u < W; ++u)
                best = std::max(best, d[t - 1][u] + in[v][u]);
            d[t][v] = best;
        }
    }

    // The fractions p/q (q > 0) are compared by cross-multiplication.
    bool found = false;
    std::int64_t bestP = 0, bestQ = 1;
    for (int v = 0; v < k; ++v) {
        if (d[k][v] < 0)
            continue; // no walk of k entries ends here: on no cycle
        std::int64_t minP = d[k][v], minQ = k; // t = 0, D_0(v) = 0
        for (int t = 1; t < k; ++t) {
            if (d[t][v] < 0)
                continue;
            const std::int64_t p = d[k][v] - d[t][v];
            const std::int64_t q = k - t;
            if (p * minQ < minP * q) {
                minP = p;
                minQ = q;
            }
        }
        if (!found || minP * bestQ > bestP * minQ) {
            bestP = minP;
            bestQ = minQ;
            found = true;
        }
    }
    return found ? static_cast<double>(bestP) / static_cast<double>(bestQ)
                 : 0.0;
}

/** karp() at the narrowest width that holds @p k nodes. */
template <typename Entry>
double
maxCycleMeanOf(int k, Entry entry)
{
    if (k <= 4)
        return karp<4>(k, entry);
    if (k <= 8)
        return karp<8>(k, entry);
    if (k <= 16)
        return karp<16>(k, entry);
    return karp<isa::kNumValues>(k, entry);
}

} // namespace

double
maxCycleMean(const CycleMeanMatrix &m)
{
    return maxCycleMeanOf(m.k, [&m](int u, int v) { return m.w[u][v]; });
}

double
precedenceBound(const bb::BasicBlock &blk, bool *shortCircuited)
{
    // Carried values: read before their first write by an instruction
    // that depends on its inputs and writes something (the reads that
    // make loop-carried edges), and written somewhere in the block.
    std::uint64_t written = 0, readFirst = 0;
    for (const auto &ai : blk.insts) {
        const isa::RwSets &rw = ai.rw;
        if (!rw.depBreaking && !rw.writes.empty())
            readFirst |= rw.reads.bits() & ~written;
        written |= rw.writes.bits();
    }
    const std::uint64_t carried = readFirst & written;
    if (!carried) {
        if (shortCircuited)
            *shortCircuited = true;
        return 0.0;
    }
    // Carried values are numbered 0..k-1 as sources, in value-id order;
    // the pass runs at the narrowest width that holds them.
    std::uint64_t reach[isa::kNumValues];
    std::int64_t len[isa::kNumValues][isa::kNumValues];
    const int k = std::popcount(carried);
    if (k <= 4)
        carriedPaths<4>(blk, carried, reach, len);
    else if (k <= 8)
        carriedPaths<8>(blk, carried, reach, len);
    else if (k <= 16)
        carriedPaths<16>(blk, carried, reach, len);
    else
        carriedPaths<isa::kNumValues>(blk, carried, reach, len);

    // Entry (u, v) of the recurrence matrix is len[v][source of u]: the
    // longest path from carried value u to carried value v's last
    // producer. Its diagonal holds each value's self-recurrence.
    bool diagonal = true;
    std::int64_t maxSelf = 0;
    int j = 0;
    forEachBit(carried, [&](int v) {
        const std::uint64_t self = std::uint64_t{1} << v;
        if (reach[v] & ~self)
            diagonal = false;
        if (reach[v] & self)
            maxSelf = std::max(maxSelf, len[v][j]);
        ++j;
    });
    if (shortCircuited)
        *shortCircuited = diagonal;
    if (diagonal)
        return static_cast<double>(maxSelf);

    // A cycle through two or more values stays within the core: peel
    // every value that no other core value reaches or that reaches no
    // other, until none is left to peel. Self-recurrences outside the
    // core are in maxSelf.
    std::uint64_t core = carried;
    for (std::uint64_t before = 0; before != core;) {
        before = core;
        std::uint64_t feeds = 0, fed = 0;
        forEachBit(core, [&](int v) {
            const std::uint64_t from =
                reach[v] & core & ~(std::uint64_t{1} << v);
            feeds |= from;
            if (from)
                fed |= std::uint64_t{1} << v;
        });
        core &= feeds & fed;
    }
    if (!core)
        return static_cast<double>(maxSelf);

    // Node i of the core matrix is carried value ids[i], source srcs[i].
    int ids[isa::kNumValues], srcs[isa::kNumValues];
    int n = 0;
    j = 0;
    forEachBit(carried, [&](int v) {
        if (core >> v & 1) {
            ids[n] = v;
            srcs[n++] = j;
        }
        ++j;
    });
    return std::max(static_cast<double>(maxSelf),
                    maxCycleMeanOf(n, [&](int u, int v) {
                        return len[ids[v]][srcs[u]];
                    }));
}

DependenceGraph
dependenceGraph(const bb::BasicBlock &blk)
{
    PrecedenceScratch &s = tlsScratch();
    DependenceGraph g;
    g.nodes = buildDepGraph(blk, s);
    g.edges.reserve(s.edges.size());
    for (std::size_t j = 0; j < s.edges.size(); ++j)
        g.edges.push_back({s.edges.from[j], s.edges.to[j], s.edges.weight[j],
                           s.edges.count[j]});
    return g;
}

PrecedenceResult
precedence(const bb::BasicBlock &blk)
{
    return precedence(blk, tlsScratch());
}

PrecedenceResult
precedence(const bb::BasicBlock &blk, PrecedenceScratch &s)
{
    return {precedenceBound(blk), criticalChain(blk, s)};
}

std::vector<int>
criticalChain(const bb::BasicBlock &blk, PrecedenceScratch &s)
{
    // Howard only picks the critical cycle: its ratio is not the bound,
    // which is exact where Howard's round guard is not.
    const int nNodes = buildDepGraph(blk, s);
    (void)maxCycleRatioImpl(nNodes, s.edges, s);
    std::vector<int> chain;
    for (int n : s.bestCycle) {
        const int inst = s.nodeInst[n];
        if (chain.empty() || chain.back() != inst)
            chain.push_back(inst);
    }
    return chain;
}

} // namespace facile::model
