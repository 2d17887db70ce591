#include "facile/precedence.h"

#include <algorithm>
#include <array>
#include <cmath>
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

/**
 * Facts about the dependence graph collected while building it, enough
 * to decide whether the max-cycle-ratio engines can be skipped.
 */
struct DepGraphInfo
{
    int nNodes = 0;

    /**
     * No loop-carried edge crosses instructions (and no stack-op
     * instruction carries more than one self-dependence): every cycle
     * is confined to one instruction's write nodes and maxSelfRatio is
     * the exact bound. See precedenceBound() in the header.
     */
    bool selfCarriedOnly = true;

    /** Max weight/count over node-level self-loop edges (count is 1). */
    double maxSelfRatio = 0.0;
};

/**
 * Build the dependence graph of @p blk into s.edges / s.nodeInst /
 * s.nodeValue (shared by precedence() and precedenceBound()).
 */
DepGraphInfo
buildDepGraph(const bb::BasicBlock &blk, PrecedenceScratch &s)
{
    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
    DepGraphInfo g;

    // One node per (instruction, written value): nodeInst/nodeValue.
    s.nodeInst.clear();
    s.nodeValue.clear();
    s.edges.clear();
    s.edges.reserve(blk.insts.size() * 4);
    if (s.rw.size() < blk.insts.size())
        s.rw.resize(blk.insts.size());

    std::array<int, isa::kNumValues> lastWriterEnd;
    lastWriterEnd.fill(-1);

    for (std::size_t i = 0; i < blk.insts.size(); ++i) {
        isa::instRw(blk.insts[i].dec->inst, s.rw[i]);
        for (int v : s.rw[i].writes) {
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
        const isa::RwSets &sets = s.rw[i];
        const int firstWriteNode = nodeCursor;
        const int nWrites = static_cast<int>(sets.writes.size());

        if (!sets.depBreaking && nWrites > 0) {
            // Determine which reads are address registers of a load.
            const isa::MemOp *m = ai.dec->inst.memOperand();
            const bool loads = ai.dec->inst.isLoad();
            auto isAddrReg = [&](int v) {
                if (!m || !loads)
                    return false;
                return (m->base.valid() && m->base.family() == v) ||
                       (m->index.valid() && m->index.family() == v);
            };
            const bool stackOp =
                ai.dec->inst.mnem == isa::Mnemonic::PUSH ||
                ai.dec->inst.mnem == isa::Mnemonic::POP ||
                ai.dec->inst.mnem == isa::Mnemonic::CALL ||
                ai.dec->inst.mnem == isa::Mnemonic::RET;

            int selfCarried = 0;
            for (int r : sets.reads) {
                int producer = lastWriter[r];
                int iterCount = 0;
                if (producer < 0) {
                    producer = lastWriterEnd[r];
                    iterCount = 1;
                }
                if (producer < 0)
                    continue; // loop-invariant input
                if (iterCount) {
                    if (s.nodeInst[producer] != static_cast<int>(i))
                        g.selfCarriedOnly = false;
                    else if (stackOp && ++selfCarried > 1)
                        g.selfCarriedOnly = false;
                }
                double lat = static_cast<double>(ai.info->latency);
                if (isAddrReg(r))
                    lat += cfg.loadLatency;
                for (int w = 0; w < nWrites; ++w) {
                    double edgeLat = lat;
                    // The stack engine updates rsp outside the execution
                    // core; rsp results of stack ops are available
                    // immediately.
                    if (stackOp && s.nodeValue[firstWriteNode + w] == 4)
                        edgeLat = 0.0;
                    if (iterCount && producer == firstWriteNode + w &&
                        edgeLat > g.maxSelfRatio)
                        g.maxSelfRatio = edgeLat;
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

    g.nNodes = static_cast<int>(s.nodeInst.size());
    return g;
}

} // namespace

PrecedenceResult
precedence(const bb::BasicBlock &blk)
{
    return precedence(blk, tlsScratch());
}

PrecedenceResult
precedence(const bb::BasicBlock &blk, PrecedenceScratch &s)
{
    const DepGraphInfo g = buildDepGraph(blk, s);
    PrecedenceResult result;
    result.throughput = maxCycleRatioImpl(g.nNodes, s.edges, s);
    for (int n : s.bestCycle) {
        int inst = s.nodeInst[n];
        if (result.criticalChain.empty() ||
            result.criticalChain.back() != inst)
            result.criticalChain.push_back(inst);
    }
    return result;
}

double
precedenceBound(const bb::BasicBlock &blk, PrecedenceScratch &s,
                bool *shortCircuited)
{
    const DepGraphInfo g = buildDepGraph(blk, s);
    if (g.selfCarriedOnly) {
        // Every cycle is an instruction self-dependence; the max
        // self-loop ratio is the exact bound and matches the engines
        // bit for bit (see the header contract).
        if (shortCircuited)
            *shortCircuited = true;
        return g.maxSelfRatio;
    }
    if (shortCircuited)
        *shortCircuited = false;
    return maxCycleRatioImpl(g.nNodes, s.edges, s);
}

} // namespace facile::model
