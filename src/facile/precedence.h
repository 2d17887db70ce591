/**
 * @file
 * Precedence-constraint predictor (paper section 4.9).
 *
 * The bound is the recurrence-constrained minimum initiation interval
 * of modulo scheduling: the maximum, over the block's dependence
 * cycles, of cycle latency over the number of iterations the cycle
 * spans. Edge weights are instruction latencies, plus the load-to-use
 * latency for address registers of loads.
 *
 * precedenceBound() computes it over the block's loop-carried values
 * alone (Rau's MinDist form of RecMII, with distances 0 and 1). A
 * value is carried when an instruction that depends on its inputs
 * reads it before its first write in the iteration and some
 * instruction writes it. Intra-iteration dependences always point
 * forward, so every cycle crosses at least one carried value; one
 * forward pass over the per-instruction read/write sets gives the
 * longest path from each carried value to the last producer of each
 * other, and the bound is the maximum cycle mean of that k×k matrix
 * (Karp 1978). Everything is integer until one final division, so the
 * result is the exact ratio, correctly rounded.
 *
 * precedence() additionally names a critical cycle. It builds the
 * node-level dependence graph (one node per instruction and written
 * value; intra-iteration edges count 0 iterations, loop-carried ones
 * 1) and runs Howard's policy iteration, whose cycle choice the golden
 * digests pin.
 */
#ifndef FACILE_FACILE_PRECEDENCE_H
#define FACILE_FACILE_PRECEDENCE_H

#include <cstdint>
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
 * Reusable workspace for precedence() and the cycle-ratio engines —
 * the critical-chain path; precedenceBound() needs none.
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

/**
 * Throughput bound due to loop-carried dependence chains, with the
 * instructions of one critical cycle: precedenceBound() and
 * criticalChain() together.
 */
PrecedenceResult precedence(const bb::BasicBlock &blk);

/**
 * As above, with caller-owned scratch buffers (zero allocations in
 * steady state). The scratch-less overload uses a thread_local scratch.
 */
PrecedenceResult precedence(const bb::BasicBlock &blk,
                            PrecedenceScratch &scratch);

/**
 * The criticalChain payload alone: the instruction indices along the
 * critical cycle Howard's policy iteration picks in the node-level
 * dependence graph (the choice the golden digests pin).
 */
std::vector<int> criticalChain(const bb::BasicBlock &blk,
                               PrecedenceScratch &scratch);

/**
 * The bound alone, without the criticalChain payload: the exact
 * maximum cycle ratio of the block's dependence graph, correctly
 * rounded (see the file comment). Allocates nothing.
 *
 * @p shortCircuited (if non-null) is set when every carried value's
 * last producer is reached from no carried value but itself: then the
 * matrix is diagonal, every cycle is a single value's self-recurrence,
 * and the bound is the largest diagonal entry, with no cycle-mean
 * solve. A block with no carried value counts as diagonal.
 */
double precedenceBound(const bb::BasicBlock &blk,
                       bool *shortCircuited = nullptr);

/**
 * A square matrix of non-negative integer path lengths over at most
 * isa::kNumValues nodes; entry w[u][v] < 0 means no edge u → v. Only
 * the leading k rows and columns are read.
 */
struct CycleMeanMatrix
{
    int k = 0;
    std::int64_t w[isa::kNumValues][isa::kNumValues];
};

/**
 * Maximum cycle mean of @p m (Karp's formula, with every node a
 * source): the largest sum of entries over number of entries among
 * its cycles; 0 if it has none. The mean is p/q with integer p and
 * 1 <= q <= k; it is found in 64-bit integers, comparing fractions by
 * cross-multiplication, and divided once, so the result is p/q
 * correctly rounded. Exposed for testing.
 */
double maxCycleMean(const CycleMeanMatrix &m);

/**
 * A block's node-level dependence graph as precedence() builds it: one
 * node per (instruction, written value), loop-carried edges with count
 * 1, all others 0. Exposed so tests and the decoder fuzz target can
 * check precedenceBound() against the cycle-ratio engines.
 */
struct DependenceGraph
{
    int nodes = 0;
    std::vector<RatioEdge> edges;
};

DependenceGraph dependenceGraph(const bb::BasicBlock &blk);

/**
 * Maximum cycle ratio sum(weight)/sum(count) over all cycles of a
 * directed graph; 0 if the graph is acyclic. Exposed for testing.
 *
 * Every cycle must contain at least one edge with count > 0; the
 * dependence-graph construction guarantees it, and nothing checks it
 * here.
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
