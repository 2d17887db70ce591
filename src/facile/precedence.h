/**
 * @file
 * Precedence-constraint predictor (paper section 4.9).
 *
 * Builds a weighted dependence graph over the values produced and
 * consumed by the block's instructions. Intra-iteration edges carry
 * iteration count 0, loop-carried edges count 1; edge weights are
 * instruction latencies (plus the load-to-use latency for address
 * registers of loads). The throughput bound is the maximum ratio of
 * cycle latency to cycle iteration count over all cycles of the graph
 * — the recurrence-constrained minimum initiation interval of modulo
 * scheduling.
 */
#ifndef FACILE_FACILE_PRECEDENCE_H
#define FACILE_FACILE_PRECEDENCE_H

#include <vector>

#include "bb/basic_block.h"
#include "isa/semantics.h"

namespace facile::model {

/** Result of the precedence analysis, with interpretability data. */
struct PrecedenceResult
{
    double throughput = 0.0;

    /**
     * Instruction indices along the critical dependence cycle, for
     * interpretable feedback when Precedence is the bottleneck.
     */
    std::vector<int> criticalChain;
};

/**
 * One edge of a cycle-ratio problem, as accepted by the public
 * maxCycleRatio entry points (convenient for tests and callers).
 * Internally edges are held as struct-of-arrays (EdgeArrays) so the
 * Bellman-Ford and Howard inner loops stream contiguous data.
 */
struct RatioEdge
{
    int from;
    int to;
    double weight;
    int count;
};

/**
 * Struct-of-arrays edge list: from/to/weight/count in separate
 * contiguous arrays. The cycle-ratio inner loops touch only the arrays
 * they need per pass (Bellman-Ford reads all four sequentially; the
 * SCC passes read only from/to), so the hot data stays cache-dense.
 * Indexing is shared: edge j is (from[j], to[j], weight[j], count[j]).
 */
struct EdgeArrays
{
    std::vector<int> from, to, count;
    std::vector<double> weight;

    std::size_t size() const { return from.size(); }
    bool empty() const { return from.empty(); }

    void
    clear()
    {
        from.clear();
        to.clear();
        count.clear();
        weight.clear();
    }

    void
    reserve(std::size_t n)
    {
        from.reserve(n);
        to.reserve(n);
        count.reserve(n);
        weight.reserve(n);
    }

    void
    push(int f, int t, double w, int c)
    {
        from.push_back(f);
        to.push_back(t);
        weight.push_back(w);
        count.push_back(c);
    }

    void
    assignFrom(const std::vector<RatioEdge> &edges)
    {
        clear();
        reserve(edges.size());
        for (const auto &e : edges)
            push(e.from, e.to, e.weight, e.count);
    }
};

struct CycleRatioResult
{
    double ratio = 0.0;
    std::vector<int> cycleNodes; ///< nodes on a critical cycle
};

/**
 * Reusable workspace for precedence() and the cycle-ratio engines.
 *
 * All per-call temporaries (dependence-graph buffers, Bellman-Ford
 * dist/pred arrays, CSR adjacency, SCC bookkeeping) live here and keep
 * their capacity between calls, so repeated analysis allocates nothing
 * in steady state — the only allocations left are the criticalChain /
 * cycleNodes the caller receives and owns. One scratch may not be
 * shared between threads; the scratch-less entry points below use a
 * thread_local instance, which gives every engine worker its own
 * buffers for free.
 *
 * The fields are an implementation detail: treat the object as opaque
 * and merely keep it alive across calls.
 */
struct PrecedenceScratch
{
    // Dependence-graph construction.
    std::vector<isa::RwSets> rw; ///< per-instruction read/write sets
    std::vector<int> nodeInst;
    std::vector<int> nodeValue;
    EdgeArrays edges;

    // Staging area for the public AoS entry points.
    EdgeArrays inputEdges;

    // Bellman-Ford positive-cycle detection (Lawler engine and the
    // per-SCC early-exit probe). probeW holds the per-probe modified
    // weights w(e) - lambda * count(e), precomputed once so the n
    // relaxation rounds stream a single array.
    std::vector<double> dist;
    std::vector<double> probeW;
    std::vector<int> pred;
    std::vector<int> cycle;

    // Tarjan SCC (single pass): forward CSR adjacency, DFS frames,
    // index/lowlink arrays, the Tarjan node stack (order) and on-stack
    // flags (seen), component ids.
    std::vector<int> fwdStart, fwdAdj;
    std::vector<int> order;
    std::vector<int> comp;
    std::vector<int> stackNode, stackIter;
    std::vector<char> seen;
    std::vector<int> tjIndex, tjLow;

    // Per-component edge grouping and dense renumbering.
    std::vector<int> compStart, compEdgeIdx;
    std::vector<int> localId, globalId;
    EdgeArrays localEdges;

    // Engine output staging (critical cycles, global node ids).
    std::vector<int> engineCycle;
    std::vector<int> bestCycle;

    // Howard policy iteration.
    std::vector<int> howStart, howEdge, howPos;
    std::vector<int> howPolicy, howMark, howAnchor, howPath;
    std::vector<int> howBestCycle, howCycle;
    std::vector<double> howD;
    std::vector<char> howSolved;
};

/** Throughput bound due to loop-carried dependence chains. */
PrecedenceResult precedence(const bb::BasicBlock &blk);

/**
 * As above, with caller-owned scratch buffers (zero allocations in
 * steady state). The scratch-less overload uses a thread_local scratch.
 */
PrecedenceResult precedence(const bb::BasicBlock &blk,
                            PrecedenceScratch &scratch);

/**
 * The bound alone, without the criticalChain payload — the staged
 * pipeline's cheap path.
 *
 * When the dependence graph carries no cross-instruction loop-carried
 * edge (every loop-carried dependence is an instruction depending on
 * its own previous iteration), every dependence cycle is confined to a
 * single instruction's write nodes and the maximum self-loop ratio is
 * the exact bound; the max-cycle-ratio engines are skipped entirely
 * and @p shortCircuited (if non-null) is set. The returned double is
 * bit-identical to the full engine's in that case: loop-carried edges
 * have iteration count 1 and integer-valued latency weights, so the
 * engines' converged per-cycle ratio is exactly the winning self-loop
 * weight (the tolerance windows of the Howard / Bellman-Ford engines
 * only matter for ratio gaps below 1e-9, which integer-valued weights
 * with small cycle lengths cannot produce). Blocks where a stack-op
 * instruction carries more than one self-dependence fall back to the
 * full engine (the rsp special case makes a cross-value cycle's ratio
 * potentially exceed every self-loop; no such instruction exists in
 * the ISA model, but the guard keeps the short-circuit conservative).
 */
double precedenceBound(const bb::BasicBlock &blk, PrecedenceScratch &scratch,
                       bool *shortCircuited = nullptr);

/**
 * Maximum cycle ratio sum(weight)/sum(count) over all cycles of a
 * directed graph; 0 if the graph is acyclic. Exposed for testing.
 *
 * Every cycle must contain at least one edge with count > 0 (guaranteed
 * by the dependence-graph construction; asserted here).
 */
CycleRatioResult maxCycleRatio(int n_nodes,
                               const std::vector<RatioEdge> &edges);

/**
 * Howard's value/policy-iteration algorithm for the maximum cycle
 * ratio (the algorithm the paper employs, [16, 18]). Used as the
 * default engine inside maxCycleRatio; exposed for testing against the
 * binary-search engine and brute force.
 */
CycleRatioResult maxCycleRatioHoward(int n_nodes,
                                     const std::vector<RatioEdge> &edges);

/**
 * Lawler-style binary search with Bellman-Ford positive-cycle
 * detection; the cross-check engine. The per-SCC driver seeds each
 * component's search with the best ratio found so far and skips
 * components that cannot beat it (one Bellman-Ford probe), so later
 * components cost a fraction of a full search.
 */
CycleRatioResult maxCycleRatioLawler(int n_nodes,
                                     const std::vector<RatioEdge> &edges);

} // namespace facile::model

#endif // FACILE_FACILE_PRECEDENCE_H
