#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "engine/thread_pool.h"

namespace facile::engine {

namespace {

/**
 * A prediction-cache key is a 4-byte header — notion and payload
 * depth, the two config bytes, the arch — followed by the block bytes.
 * Entries store it as a std::string of exactly those bytes, which
 * snapshots export as is. A lookup probes with a KeyProbe over the
 * request's own bytes instead, so a hit builds no key.
 */
constexpr std::size_t kKeyHeader = 4;

struct KeyProbe
{
    char header[kKeyHeader];
    std::string_view bytes;
    std::size_t hash;
};

/** The hash of a key given as its header word and its block bytes. */
std::size_t
keyHash(std::uint32_t header, std::string_view bytes)
{
    std::size_t h = std::hash<std::string_view>{}(bytes);
    h ^= (header + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
}

std::size_t
keyHash(std::string_view key)
{
    std::uint32_t header = 0;
    const std::size_t n = std::min(kKeyHeader, key.size());
    std::memcpy(&header, key.data(), n);
    return keyHash(header, key.substr(n));
}

KeyProbe
probeOf(const Request &r)
{
    const std::uint16_t cfg = r.config.packBits();
    KeyProbe k;
    k.header[0] = static_cast<char>(
        (r.loop ? 1 : 0) | (r.payload == model::Payload::Full ? 2 : 0));
    k.header[1] = static_cast<char>(cfg & 0xff);
    k.header[2] = static_cast<char>(cfg >> 8);
    k.header[3] = static_cast<char>(r.arch);
    k.bytes = std::string_view(
        reinterpret_cast<const char *>(r.bytes.data()), r.bytes.size());
    std::uint32_t header = 0;
    std::memcpy(&header, k.header, kKeyHeader);
    k.hash = keyHash(header, k.bytes);
    return k;
}

/** The owned key a probe stands for, built only to insert an entry. */
std::string
ownedKey(const KeyProbe &k)
{
    std::string key;
    key.reserve(kKeyHeader + k.bytes.size());
    key.append(k.header, kKeyHeader);
    key.append(k.bytes);
    return key;
}

/**
 * Transparent hash and equality: stored std::string keys and KeyProbes
 * hash and compare alike. The string overload is not noexcept, so the
 * tables keep each node's hash and compare it before the bytes.
 */
struct KeyHash
{
    using is_transparent = void;
    std::size_t operator()(const std::string &k) const { return keyHash(k); }
    std::size_t operator()(const KeyProbe &k) const { return k.hash; }
};

struct KeyEq
{
    using is_transparent = void;

    bool
    operator()(const std::string &a, const std::string &b) const
    {
        return a == b;
    }

    bool
    operator()(const KeyProbe &p, const std::string &k) const
    {
        return k.size() == kKeyHeader + p.bytes.size() &&
               std::memcmp(k.data(), p.header, kKeyHeader) == 0 &&
               k.compare(kKeyHeader, std::string::npos, p.bytes) == 0;
    }

    bool
    operator()(const std::string &k, const KeyProbe &p) const
    {
        return (*this)(p, k);
    }
};

constexpr std::size_t kShards = 16;

/** The shard of a key: four high bits of its hash. */
std::size_t
shardOf(std::size_t hash)
{
    return (hash >> 56) % kShards;
}

} // namespace

/**
 * One prediction-cache shard with two-generation (old/new) eviction.
 *
 * Inserts and promotions go to the new generation; when it reaches the
 * per-generation bound the old generation is dropped and the new one
 * takes its place. A lookup that hits the old generation promotes the
 * entry, so the hot working set keeps circulating between generations
 * and steady-state traffic at capacity keeps its hit rate — unlike the
 * previous epoch eviction (clear() on overflow), which discarded the
 * entire hot set the moment a shard filled up. Entries untouched for a
 * full generation age out; a shard never holds more than 2x the bound.
 */
struct PredictionShard
{
    using Map =
        std::unordered_map<std::string, model::Prediction, KeyHash, KeyEq>;

    std::mutex mu;
    Map newGen, oldGen;

    /**
     * Lookup with promotion; caller must hold mu. @p key is a KeyProbe
     * or a stored key. A promoted entry moves its node, so neither its
     * key nor its prediction is rebuilt.
     */
    template <typename Key>
    model::Prediction *
    find(const Key &key, std::size_t maxPerGen)
    {
        auto it = newGen.find(key);
        if (it != newGen.end())
            return &it->second;
        auto itOld = oldGen.find(key);
        if (itOld == oldGen.end())
            return nullptr;
        Map::node_type node = oldGen.extract(itOld);
        makeRoom(maxPerGen);
        return &newGen.insert(std::move(node)).position->second;
    }

    /**
     * Insert into the new generation, rotating when full; caller must
     * hold mu and have checked find() under the same lock, so the key
     * is in neither generation.
     */
    model::Prediction &
    insert(std::string key, model::Prediction value, std::size_t maxPerGen)
    {
        makeRoom(maxPerGen);
        return newGen.emplace(std::move(key), std::move(value))
            .first->second;
    }

    void
    clear()
    {
        newGen.clear();
        oldGen.clear();
    }

  private:
    /** Age the new generation into the old one when it is full. */
    void
    makeRoom(std::size_t maxPerGen)
    {
        if (newGen.size() >= maxPerGen) {
            std::swap(oldGen, newGen);
            newGen.clear();
        }
    }
};

struct PredictionEngine::Impl
{
    Options opts;
    ThreadPool pool;

    PredictionShard predictionShards[kShards];

    explicit Impl(Options o)
        : opts(o),
          pool(o.numThreads > 0
                   ? o.numThreads
                   : static_cast<int>(
                         std::max(1u, std::thread::hardware_concurrency())))
    {}

    /**
     * Core lookup-or-compute on the calling thread's scratch (each lane
     * is its own thread). The visitor sees the prediction without a
     * copy: on cache hits it runs under the owning shard lock with a
     * reference to the cached entry (the zero-copy serving path).
     */
    void
    predictCachedVisit(const Request &req, BatchStats *stats, int lane,
                       std::size_t index,
                       const PredictionEngine::PredictionVisitor &visit)
    {
        KeyProbe probe{};
        if (opts.cacheEnabled) {
            probe = probeOf(req);
            PredictionShard &shard = predictionShards[shardOf(probe.hash)];
            std::lock_guard<std::mutex> lock(shard.mu);
            if (auto *hit = shard.find(probe, opts.maxEntriesPerShard)) {
                if (stats)
                    ++stats->predictionCacheHits;
                visit(lane, index, *hit);
                return;
            }
        }

        // A miss is analyzed on this lane; the block dies with the
        // request.
        model::Prediction p;
        try {
            const bb::BasicBlock blk = bb::analyze(req.bytes, req.arch);
            if (stats)
                ++stats->analyzed;
            p = model::predict(blk, req.loop, req.config,
                               model::tlsPredictScratch(), req.payload);
        } catch (const std::exception &) {
            p = model::Prediction{}; // malformed block: throughput 0
        }

        if (opts.cacheEnabled) {
            PredictionShard &shard = predictionShards[shardOf(probe.hash)];
            std::lock_guard<std::mutex> lock(shard.mu);
            // A concurrent miss on the same key may have inserted an
            // identical prediction already; find() keeps it hot.
            if (!shard.find(probe, opts.maxEntriesPerShard))
                shard.insert(ownedKey(probe), p, opts.maxEntriesPerShard);
        }
        visit(lane, index, p);
    }

    /** Calling-thread path (predictOne). */
    model::Prediction
    predictCached(const Request &req, BatchStats *stats)
    {
        model::Prediction out;
        predictCachedVisit(req, stats, 0, 0,
                           [&out](int, std::size_t,
                                  const model::Prediction &p) { out = p; });
        return out;
    }
};

PredictionEngine::PredictionEngine(Options opts)
    : impl_(std::make_unique<Impl>(opts))
{}

PredictionEngine::~PredictionEngine() = default;

int
PredictionEngine::numThreads() const
{
    return impl_->pool.size();
}

std::vector<model::Prediction>
PredictionEngine::predictBatch(const std::vector<Request> &batch,
                               BatchStats *stats)
{
    std::vector<model::Prediction> out(batch.size());
    predictBatchVisit(
        batch,
        [&out](int, std::size_t i, const model::Prediction &p) {
            out[i] = p;
        },
        stats);
    return out;
}

void
PredictionEngine::predictBatchVisit(const std::vector<Request> &batch,
                                    const PredictionVisitor &visit,
                                    BatchStats *stats)
{
    if (batch.empty())
        return;

    // The body captures one pointer, which std::function holds inline,
    // so dispatching a batch allocates nothing by itself.
    struct Call
    {
        Impl &impl;
        const std::vector<Request> &batch;
        const PredictionVisitor &visit;
        const bool counting;
        std::atomic<std::size_t> predictionHits{0}, analyzed{0};
    } call{*impl_, batch, visit, stats != nullptr};

    impl_->pool.parallelForWorker(
        batch.size(), [c = &call](int lane, std::size_t i) {
            BatchStats local;
            c->impl.predictCachedVisit(c->batch[i],
                                       c->counting ? &local : nullptr, lane,
                                       i, c->visit);
            if (c->counting) {
                c->predictionHits += local.predictionCacheHits;
                c->analyzed += local.analyzed;
            }
        });

    if (stats) {
        stats->requests += batch.size();
        stats->predictionCacheHits += call.predictionHits;
        stats->analyzed += call.analyzed;
    }
}

model::Prediction
PredictionEngine::predictOne(const Request &req, BatchStats *stats)
{
    if (stats)
        ++stats->requests;
    return impl_->predictCached(req, stats);
}

void
PredictionEngine::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)> &body)
{
    impl_->pool.parallelFor(n, body);
}

void
PredictionEngine::parallelForWorker(
    std::size_t n, const std::function<void(int, std::size_t)> &body)
{
    impl_->pool.parallelForWorker(n, body);
}

void
PredictionEngine::clearCaches()
{
    for (std::size_t s = 0; s < kShards; ++s) {
        std::lock_guard<std::mutex> lock(impl_->predictionShards[s].mu);
        impl_->predictionShards[s].clear();
    }
}

std::size_t
PredictionEngine::exportPredictionCache(
    const std::function<void(const std::string &key,
                             const model::Prediction &)> &visit) const
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        PredictionShard &shard = impl_->predictionShards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, pred] : shard.newGen) {
            visit(key, pred);
            ++n;
        }
        for (const auto &[key, pred] : shard.oldGen) {
            visit(key, pred);
            ++n;
        }
    }
    return n;
}

void
PredictionEngine::importPredictionCacheEntry(std::string key,
                                             model::Prediction pred)
{
    PredictionShard &shard = impl_->predictionShards[shardOf(keyHash(key))];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.find(key, impl_->opts.maxEntriesPerShard))
        shard.insert(std::move(key), std::move(pred),
                     impl_->opts.maxEntriesPerShard);
}

PredictionEngine &
PredictionEngine::shared()
{
    static PredictionEngine engine{Options{}};
    return engine;
}

} // namespace facile::engine
