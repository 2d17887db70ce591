/**
 * @file
 * Batched, multi-threaded prediction engine.
 *
 * The paper's headline property is that Facile predicts basic-block
 * throughput orders of magnitude faster than simulators; this subsystem
 * turns the single-block predictor into a service-shaped batch engine:
 *
 *   - a batch of (bytes, arch, loop, config) requests is fanned out
 *     over numThreads() lanes: the calling thread is lane 0 and helper
 *     threads are lanes 1..N-1. Every lane claims fixed-size chunks of
 *     the batch with one fetch_add each, so uneven block cost
 *     load-balances, and a batch of one chunk never leaves the caller
 *     (thread_pool.h);
 *   - one sharded prediction cache keyed on the throughput notion, the
 *     payload depth, the ablation config, the arch and the block bytes
 *     short-circuits repeated requests; a miss is analyzed and
 *     predicted on the lane that serves it, and only its cache entry
 *     outlives the request. An entry is a 96-byte record in a flat,
 *     open-addressed table, its key bytes in append-only chunks;
 *   - each lane uses its thread's model::tlsPredictScratch() (see
 *     facile/component.h), so the component pipeline reuses its
 *     buffers, and a reusable Prediction that hits are copied into.
 *     Once the cache's chunks exist, a hit allocates nothing and a miss
 *     allocates only bb::analyze's two buffers
 *     (tests/test_retention.cc gates these counts);
 *   - requests default to Payload::None: the serving path computes
 *     bounds and bottleneck classification but skips the
 *     interpretability payload unless a request asks for it.
 *
 * Predictions are bit-identical to serial facile::model::predict()
 * at the same payload depth: the same deterministic code runs per
 * block, only scheduling and memoization differ.
 */
#ifndef FACILE_ENGINE_ENGINE_H
#define FACILE_ENGINE_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bb/basic_block.h"
#include "facile/predictor.h"

namespace facile::engine {

class ThreadPool;

/** One prediction request. */
struct Request
{
    std::vector<std::uint8_t> bytes;
    uarch::UArch arch = uarch::UArch::SKL;
    bool loop = false;
    model::ModelConfig config{};

    /**
     * How much of the Prediction to build. The serving default is the
     * cheap path: throughput, componentValue and the bottleneck
     * classification, no interpretability payload. Payload::Full asks
     * for criticalChain / contendedPorts / contendingInsts as well and
     * is cached separately (the payload depth is part of the
     * prediction-cache key).
     */
    model::Payload payload = model::Payload::None;
};

/** Counters for one predictBatch call. */
struct BatchStats
{
    std::size_t requests = 0;
    /**
     * Always 0: there is no analysis cache. Kept because the STATS
     * wire layout and the repository benchmark read it.
     */
    std::size_t analysisCacheHits = 0;
    std::size_t predictionCacheHits = 0; ///< whole prediction skipped
    std::size_t analyzed = 0;            ///< blocks decoded this batch
};

struct EngineOptions
{
    /**
     * Lanes: the calling thread plus numThreads - 1 helper threads, so
     * 1 starts no thread. 0 picks std::thread::hardware_concurrency.
     */
    int numThreads = 0;

    /** Switch for the prediction cache. */
    bool cacheEnabled = true;

    /**
     * Bound on entries per prediction-cache shard generation. Shards use
     * two-generation (old/new) eviction: inserts and old-generation
     * hits go to the new generation; when it fills, the old generation
     * is dropped and the new one ages into its place. The hot working
     * set survives overflow (a hostile request stream still cannot
     * exhaust memory — a shard holds at most 2x this many entries),
     * and steady-state traffic at capacity keeps its hit rate. A bound
     * above 2^31 acts as 2^31.
     */
    std::size_t maxEntriesPerShard = 1 << 16;
};

class PredictionEngine
{
  public:
    using Options = EngineOptions;

    explicit PredictionEngine(Options opts = {});
    ~PredictionEngine();

    PredictionEngine(const PredictionEngine &) = delete;
    PredictionEngine &operator=(const PredictionEngine &) = delete;

    /** Lanes, the caller's included (at least 1). */
    int numThreads() const;

    /**
     * Predict every request of the batch in parallel. out[i] corresponds
     * to batch[i] and is bit-identical to
     * model::predict(bb::analyze(batch[i].bytes, batch[i].arch),
     *                batch[i].loop, batch[i].config).
     * A malformed block (decode error) yields a default Prediction with
     * throughput 0, mirroring the eval harness' crash protocol.
     */
    std::vector<model::Prediction>
    predictBatch(const std::vector<Request> &batch,
                 BatchStats *stats = nullptr);

    /**
     * Visitor over one prediction: (lane, requestIndex, prediction).
     * lane is in [0, numThreads()): 0 is the calling thread, w > 0 is
     * helper thread w. Within one call, no two visits that run at the
     * same time share a lane.
     */
    using PredictionVisitor =
        std::function<void(int, std::size_t, const model::Prediction &)>;

    /**
     * As predictBatch, but instead of materializing a result vector
     * the engine calls visit(lane, i, prediction) once per request, on
     * the calling thread and the helpers, concurrently for distinct i.
     * No engine lock is held during a visit. On a prediction-cache hit
     * the prediction is the lane's reusable buffer, which the hit's
     * record was copied into; on a miss it is the fresh prediction.
     * Either way the reference is valid only for the duration of the
     * call, and a visitor must not call into a PredictionEngine: the
     * lane's buffer and this call's counters belong to its thread.
     */
    void predictBatchVisit(const std::vector<Request> &batch,
                           const PredictionVisitor &visit,
                           BatchStats *stats = nullptr);

    /** Single-request convenience; same cache, calling thread only. */
    model::Prediction predictOne(const Request &req,
                                 BatchStats *stats = nullptr);

    /**
     * Run body(i) for all i in [0, n) across the lanes; blocks until
     * complete. Exposed so the eval harness can drive suite preparation
     * and predictor sweeps through the same pool. A call from inside a
     * body runs inline on the current lane. If a body throws, the
     * remaining indices are abandoned and the first exception is
     * rethrown here.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * As parallelFor, with the lane index in [0, numThreads()) as the
     * first argument — the hook callers use to bind one PredictScratch
     * (or any per-lane state) per lane.
     */
    void
    parallelForWorker(std::size_t n,
                      const std::function<void(int, std::size_t)> &body);

    void clearCaches();

    // ---- snapshot support (src/analysis/snapshot.h) -----------------------

    /**
     * Visit every prediction-cache entry as (opaque key, prediction),
     * each key once: an entry promoted out of the old generation is
     * visited as its new copy only. The key encodes (notion, payload
     * depth, config, arch, block bytes) deterministically, so entries
     * exported by one process hit in another. Shard locks are held
     * during each shard's visits; visitors must be brief and must not
     * re-enter the engine. Returns the number of entries visited.
     */
    std::size_t exportPredictionCache(
        const std::function<void(const std::string &key,
                                 const model::Prediction &)> &visit) const;

    /**
     * Insert one exported entry back into the prediction cache (normal
     * two-generation capacity rules apply; an existing key wins).
     */
    void importPredictionCacheEntry(std::string key,
                                    model::Prediction pred);

    /** Process-wide shared engine (hardware-concurrency lanes). */
    static PredictionEngine &shared();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace facile::engine

#endif // FACILE_ENGINE_ENGINE_H
