#include "engine/engine.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"

namespace facile::engine {

namespace {

/**
 * A prediction-cache key is a 4-byte header — notion and payload
 * depth, the two config bytes, the arch — followed by the block bytes.
 * The cache stores exactly those bytes, which snapshots export as is;
 * an imported key may have any length, even less than the header's.
 * A lookup probes with a KeyProbe over the request's own bytes, so a
 * hit builds no key.
 */
constexpr std::size_t kKeyHeader = 4;

/**
 * A key as its first bytes (the whole header, unless the key is
 * shorter) and the rest, with its hash.
 */
struct KeyProbe
{
    char head[kKeyHeader];
    std::size_t headLen;
    std::string_view tail;
    std::uint64_t hash;

    std::size_t size() const { return headLen + tail.size(); }
};

/** The hash of a key given as its header word and its block bytes. */
std::uint64_t
keyHash(std::uint32_t header, std::string_view bytes)
{
    std::uint64_t h = std::hash<std::string_view>{}(bytes);
    h ^= (header + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
}

KeyProbe
probeOf(const Request &r)
{
    const std::uint16_t cfg = r.config.packBits();
    KeyProbe k;
    k.head[0] = static_cast<char>(
        (r.loop ? 1 : 0) | (r.payload == model::Payload::Full ? 2 : 0));
    k.head[1] = static_cast<char>(cfg & 0xff);
    k.head[2] = static_cast<char>(cfg >> 8);
    k.head[3] = static_cast<char>(r.arch);
    k.headLen = kKeyHeader;
    k.tail = std::string_view(
        reinterpret_cast<const char *>(r.bytes.data()), r.bytes.size());
    std::uint32_t header = 0;
    std::memcpy(&header, k.head, kKeyHeader);
    k.hash = keyHash(header, k.tail);
    return k;
}

/** The probe of a whole key: a stored one, or one from an image. */
KeyProbe
probeOf(std::string_view key)
{
    KeyProbe k;
    k.headLen = std::min(kKeyHeader, key.size());
    std::memcpy(k.head, key.data(), k.headLen);
    k.tail = key.substr(k.headLen);
    std::uint32_t header = 0;
    std::memcpy(&header, k.head, k.headLen);
    k.hash = keyHash(header, k.tail);
    return k;
}

/**
 * One cached prediction: 96 bytes, no pointers. The doubles keep
 * their bit patterns, NaN payloads included. The bottleneck list is
 * kept as stored, order and repeats included, because an image may
 * list it in any order. The chains of a Payload::Full or explained
 * prediction sit in the generation's chain store.
 */
struct Record
{
    double throughput;
    double componentValue[model::kNumComponents];
    std::uint64_t hash;   ///< keyHash of the key
    std::uint32_t keyAt;  ///< offset of the key in its key chunk
    std::uint32_t keyLen; ///< bytes of the key
    std::uint32_t chains; ///< 1 + index into the chain store; 0: none
    std::uint16_t contendedPorts;
    std::uint8_t keyChunk; ///< the key chunk holding the key
    std::uint8_t primary;
    std::uint8_t nBottlenecks;
    std::uint8_t bottlenecks[model::kNumComponents];
};
static_assert(sizeof(Record) == 96 && std::is_trivially_copyable_v<Record>);

/** Where a record's criticalChain and contendingInsts sit in ints. */
struct Chains
{
    std::size_t at;
    std::uint32_t nChain, nContending;
};

/**
 * Key bytes, appended in chunks that never move; each chunk is twice
 * the size of the one before it (or the key's size, if larger), up to
 * 4 GiB, so an offset fits 32 bits and a chunk index one byte.
 * clear() keeps every chunk for the keys that follow.
 */
class KeyChunks
{
  public:
    /**
     * Copy @p k in and say where it went; false when no chunk can
     * address it (a key of 4 GiB, or past 255 chunks).
     */
    bool
    append(const KeyProbe &k, std::uint8_t &chunk, std::uint32_t &at)
    {
        const std::size_t len = k.size();
        if (len > std::numeric_limits<std::uint32_t>::max())
            return false;
        if (chunks_.empty() || chunks_[cur_].size - used_ < len) {
            const std::size_t next = chunks_.empty() ? 0 : cur_ + 1;
            if (next > std::numeric_limits<std::uint8_t>::max())
                return false;
            if (next == chunks_.size() || chunks_[next].size < len) {
                const std::size_t size = std::min(
                    std::max(len, next == 0 ? kFirstChunk
                                            : 2 * chunks_[next - 1].size),
                    kMaxChunk);
                Chunk c{std::make_unique_for_overwrite<char[]>(size), size};
                if (next == chunks_.size())
                    chunks_.push_back(std::move(c));
                else
                    chunks_[next] = std::move(c); // too small, and unused
            }
            cur_ = next;
            used_ = 0;
        }
        char *dst = chunks_[cur_].bytes.get() + used_;
        std::memcpy(dst, k.head, k.headLen);
        if (!k.tail.empty())
            std::memcpy(dst + k.headLen, k.tail.data(), k.tail.size());
        chunk = static_cast<std::uint8_t>(cur_);
        at = static_cast<std::uint32_t>(used_);
        used_ += len;
        return true;
    }

    const char *
    at(std::uint8_t chunk, std::uint32_t offset) const
    {
        return chunks_[chunk].bytes.get() + offset;
    }

    void
    clear()
    {
        cur_ = 0;
        used_ = 0;
    }

  private:
    static constexpr std::size_t kFirstChunk = 1024;
    static constexpr std::size_t kMaxChunk = std::size_t{1} << 32;

    struct Chunk
    {
        std::unique_ptr<char[]> bytes;
        std::size_t size;
    };

    std::vector<Chunk> chunks_;
    std::size_t cur_ = 0;  ///< the chunk being filled
    std::size_t used_ = 0; ///< bytes of it filled
};

/**
 * Records in chunks that never move: chunk c holds kFirstRecords << c
 * records, so record i lies in chunk bit_width(i / kFirstRecords + 1)
 * - 1. clear() keeps every chunk.
 */
class RecordChunks
{
  public:
    std::size_t size() const { return n_; }

    const Record &
    operator[](std::size_t i) const
    {
        const std::size_t c = chunkOf(i);
        return chunks_[c][i - firstOf(c)];
    }

    void
    push_back(const Record &r)
    {
        const std::size_t c = chunkOf(n_);
        if (c == chunks_.size())
            chunks_.push_back(
                std::make_unique_for_overwrite<Record[]>(kFirstRecords << c));
        chunks_[c][n_ - firstOf(c)] = r;
        ++n_;
    }

    void clear() { n_ = 0; }

  private:
    static constexpr std::size_t kFirstRecords = 16;

    static std::size_t
    chunkOf(std::size_t i)
    {
        return static_cast<std::size_t>(std::bit_width(i / kFirstRecords + 1)) -
               1;
    }

    static std::size_t
    firstOf(std::size_t c)
    {
        return kFirstRecords * ((std::size_t{1} << c) - 1);
    }

    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::size_t n_ = 0;
};

/**
 * One cache generation: an open-addressed table of 8-byte slots over
 * append-only records. A slot is the key hash's high 32 bits (the
 * tag, which also picks the slot) over 1 + the record index; 0 is
 * empty. Linear probing, a power-of-two size, at most 7/8 full.
 * Growing doubles the slots and re-places them from their tags alone,
 * touching neither records nor keys.
 */
class Generation
{
  public:
    std::size_t size() const { return records_.size(); }
    const Record &record(std::size_t i) const { return records_[i]; }

    std::string_view
    keyOf(const Record &r) const
    {
        return {keys_.at(r.keyChunk, r.keyAt), r.keyLen};
    }

    const Record *
    find(const KeyProbe &k) const
    {
        if (slots_.empty())
            return nullptr;
        const auto tag = static_cast<std::uint32_t>(k.hash >> 32);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(tag);; i = (i + 1) & mask) {
            const std::uint64_t s = slots_[i];
            if (s == 0)
                return nullptr;
            if (static_cast<std::uint32_t>(s >> 32) != tag)
                continue;
            const Record &r = records_[static_cast<std::uint32_t>(s) - 1];
            if (r.hash == k.hash && r.keyLen == k.size() &&
                sameKey(keys_.at(r.keyChunk, r.keyAt), k))
                return &r;
        }
    }

    /**
     * Append @p p under @p k, which the generation must not hold yet;
     * a key no chunk can hold is not cached. (A chain holds at most one
     * index per instruction, or a 16-bit count from an image.)
     */
    void
    insert(const KeyProbe &k, const model::Prediction &p)
    {
        Record r{};
        if (!keys_.append(k, r.keyChunk, r.keyAt))
            return;
        r.keyLen = static_cast<std::uint32_t>(k.size());
        r.hash = k.hash;
        r.throughput = p.throughput;
        std::copy(p.componentValue.begin(), p.componentValue.end(),
                  r.componentValue);
        r.nBottlenecks = static_cast<std::uint8_t>(p.bottlenecks.size());
        for (std::size_t i = 0; i < p.bottlenecks.size(); ++i)
            r.bottlenecks[i] = static_cast<std::uint8_t>(p.bottlenecks[i]);
        r.primary = static_cast<std::uint8_t>(p.primaryBottleneck);
        r.contendedPorts = p.contendedPorts;
        if (!p.criticalChain.empty() || !p.contendingInsts.empty()) {
            chains_.push_back(
                {ints_.size(),
                 static_cast<std::uint32_t>(p.criticalChain.size()),
                 static_cast<std::uint32_t>(p.contendingInsts.size())});
            ints_.insert(ints_.end(), p.criticalChain.begin(),
                         p.criticalChain.end());
            ints_.insert(ints_.end(), p.contendingInsts.begin(),
                         p.contendingInsts.end());
            r.chains = static_cast<std::uint32_t>(chains_.size());
        }
        if ((records_.size() + 1) * 8 > slots_.size() * 7)
            grow();
        records_.push_back(r);
        place((k.hash & 0xffffffff00000000ULL) | records_.size());
    }

    /** Rebuild @p r's prediction in @p out, reusing out's buffers. */
    void
    copyOut(const Record &r, model::Prediction &out) const
    {
        out.throughput = r.throughput;
        std::copy(std::begin(r.componentValue), std::end(r.componentValue),
                  out.componentValue.begin());
        out.bottlenecks.clear();
        for (std::size_t i = 0; i < r.nBottlenecks; ++i)
            out.bottlenecks.push_back(
                static_cast<model::Component>(r.bottlenecks[i]));
        out.primaryBottleneck = static_cast<model::Component>(r.primary);
        out.contendedPorts = r.contendedPorts;
        if (r.chains == 0) {
            out.criticalChain.clear();
            out.contendingInsts.clear();
            return;
        }
        const Chains &c = chains_[r.chains - 1];
        const int *chain = ints_.data() + c.at;
        out.criticalChain.assign(chain, chain + c.nChain);
        out.contendingInsts.assign(chain + c.nChain,
                                   chain + c.nChain + c.nContending);
    }

    /** Drop every entry; keep every buffer. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), 0);
        records_.clear();
        keys_.clear();
        chains_.clear();
        ints_.clear();
    }

  private:
    static constexpr std::size_t kFirstSlots = 16;

    static bool
    sameKey(const char *stored, const KeyProbe &k)
    {
        return std::memcmp(stored, k.head, k.headLen) == 0 &&
               (k.tail.empty() || std::memcmp(stored + k.headLen,
                                              k.tail.data(),
                                              k.tail.size()) == 0);
    }

    /** A tag's first slot: Fibonacci hashing over all its bits. */
    std::size_t
    home(std::uint32_t tag) const
    {
        return static_cast<std::uint32_t>(tag * 0x9e3779b9U) >> shift_;
    }

    void
    place(std::uint64_t slot)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(static_cast<std::uint32_t>(slot >> 32));
        while (slots_[i] != 0)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }

    void
    grow()
    {
        const std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.empty() ? kFirstSlots : 2 * old.size(), 0);
        shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots_.size()));
        for (const std::uint64_t s : old)
            if (s != 0)
                place(s);
    }

    std::vector<std::uint64_t> slots_;
    unsigned shift_ = 32; ///< 32 - log2(slots_.size())
    RecordChunks records_;
    KeyChunks keys_;
    std::vector<Chains> chains_;
    std::vector<int> ints_; ///< the chain store
};

constexpr std::size_t kShards = 16;

/** The shard of a key: four high bits of its hash. */
std::size_t
shardOf(std::uint64_t hash)
{
    return (hash >> 56) % kShards;
}

/**
 * The most records a generation holds: a slot has 32 bits for
 * 1 + the record index.
 */
constexpr std::size_t kMaxPerGen = std::size_t{1} << 31;

/** The calling lane's reusable hit buffer: a hit is copied here. */
model::Prediction &
laneHit()
{
    thread_local model::Prediction p;
    return p;
}

/** One lane's counts in one call, on a cache line of its own. */
struct alignas(64) LaneCount
{
    std::size_t hits = 0, analyzed = 0;
};

/**
 * @p lanes zeroed counters for one call. The calling thread owns them
 * and grows them once to the widest pool it drives; each lane writes
 * only its own.
 */
LaneCount *
laneCounts(std::size_t lanes)
{
    thread_local std::vector<LaneCount> counts;
    if (counts.size() < lanes)
        counts.resize(lanes);
    std::fill_n(counts.begin(), lanes, LaneCount{});
    return counts.data();
}

} // namespace

/**
 * One prediction-cache shard with two-generation (old/new) eviction.
 *
 * Inserts and promotions go to the new generation; when it reaches the
 * per-generation bound the old generation is dropped and the new one
 * takes its place. A lookup that hits the old generation copies the
 * entry into the new one, so the hot working set keeps circulating
 * between generations and steady-state traffic at capacity keeps its
 * hit rate; the old copy is shadowed until its generation is dropped.
 * Entries untouched for a full generation age out; a shard never holds
 * more than 2x the bound. Dropping a generation keeps its buffers for
 * the next one.
 */
struct alignas(64) PredictionShard
{
    std::mutex mu;
    Generation newGen, oldGen; ///< guarded by mu

    /**
     * Copy @p key's prediction into @p out and promote an
     * old-generation hit; caller must hold mu.
     */
    bool
    lookup(const KeyProbe &key, std::size_t maxPerGen, model::Prediction &out)
    {
        if (const Record *r = newGen.find(key)) {
            newGen.copyOut(*r, out);
            return true;
        }
        const Record *r = oldGen.find(key);
        if (!r)
            return false;
        oldGen.copyOut(*r, out);
        insert(key, out, maxPerGen); // may drop oldGen: r is dead now
        return true;
    }

    /**
     * Insert into the new generation, rotating when full; caller must
     * hold mu and have checked lookup() under the same lock.
     */
    void
    insert(const KeyProbe &key, const model::Prediction &p,
           std::size_t maxPerGen)
    {
        if (newGen.size() >= maxPerGen) {
            std::swap(oldGen, newGen);
            newGen.clear();
        }
        newGen.insert(key, p);
    }

    void
    clear()
    {
        newGen.clear();
        oldGen.clear();
    }
};

struct PredictionEngine::Impl
{
    Options opts;
    std::size_t maxPerGen;
    ThreadPool pool;

    PredictionShard predictionShards[kShards];

    explicit Impl(Options o)
        : opts(o), maxPerGen(std::min(o.maxEntriesPerShard, kMaxPerGen)),
          pool(o.numThreads > 0
                   ? o.numThreads
                   : static_cast<int>(
                         std::max(1u, std::thread::hardware_concurrency())))
    {}

    /**
     * Core lookup-or-compute on the calling thread's scratch (each lane
     * is its own thread). A hit is copied into @p hit under the shard
     * lock and visited after the lock is released; a miss is visited
     * as the fresh prediction.
     */
    void
    predictCachedVisit(const Request &req, LaneCount &count,
                       model::Prediction &hit, int lane, std::size_t index,
                       const PredictionEngine::PredictionVisitor &visit)
    {
        KeyProbe probe{};
        if (opts.cacheEnabled) {
            probe = probeOf(req);
            PredictionShard &shard = predictionShards[shardOf(probe.hash)];
            bool found;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                found = shard.lookup(probe, maxPerGen, hit);
            }
            if (found) {
                ++count.hits;
                visit(lane, index, hit);
                return;
            }
        }

        // A miss is analyzed on this lane; the block dies with the
        // request.
        model::Prediction p;
        try {
            const bb::BasicBlock blk = bb::analyze(req.bytes, req.arch);
            ++count.analyzed;
            p = model::predict(blk, req.loop, req.config,
                               model::tlsPredictScratch(), req.payload);
        } catch (const std::exception &) {
            p = model::Prediction{}; // malformed block: throughput 0
        }

        if (opts.cacheEnabled) {
            PredictionShard &shard = predictionShards[shardOf(probe.hash)];
            std::lock_guard<std::mutex> lock(shard.mu);
            // A concurrent miss on the same key may have inserted an
            // identical prediction already; lookup() keeps it hot.
            if (!shard.lookup(probe, maxPerGen, hit))
                shard.insert(probe, p, maxPerGen);
        }
        visit(lane, index, p);
    }

    /**
     * Fan @p batch out over the lanes. A hit on request i is copied
     * into hits[i], or into its lane's reusable buffer when @p hits is
     * null. Each lane counts in its own slot; the slots are summed once
     * at the end.
     */
    void
    visitBatch(const std::vector<Request> &batch,
               const PredictionEngine::PredictionVisitor &visit,
               BatchStats *stats, model::Prediction *hits)
    {
        if (batch.empty())
            return;
        // The body captures one pointer, which std::function holds
        // inline, so dispatching a batch allocates nothing by itself.
        const auto lanes = static_cast<std::size_t>(pool.size());
        struct Call
        {
            Impl &impl;
            const std::vector<Request> &batch;
            const PredictionEngine::PredictionVisitor &visit;
            model::Prediction *hits;
            LaneCount *counts;
        } call{*this, batch, visit, hits, laneCounts(lanes)};

        pool.parallelForWorker(
            batch.size(), [c = &call](int lane, std::size_t i) {
                c->impl.predictCachedVisit(
                    c->batch[i], c->counts[lane],
                    c->hits ? c->hits[i] : laneHit(), lane, i, c->visit);
            });

        if (stats) {
            stats->requests += batch.size();
            for (std::size_t l = 0; l < lanes; ++l) {
                stats->predictionCacheHits += call.counts[l].hits;
                stats->analyzed += call.counts[l].analyzed;
            }
        }
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
    // A hit is copied straight into its result; a miss by the visitor.
    std::vector<model::Prediction> out(batch.size());
    impl_->visitBatch(
        batch,
        [&out](int, std::size_t i, const model::Prediction &p) {
            if (&p != &out[i])
                out[i] = p;
        },
        stats, out.data());
    return out;
}

void
PredictionEngine::predictBatchVisit(const std::vector<Request> &batch,
                                    const PredictionVisitor &visit,
                                    BatchStats *stats)
{
    impl_->visitBatch(batch, visit, stats, nullptr);
}

model::Prediction
PredictionEngine::predictOne(const Request &req, BatchStats *stats)
{
    model::Prediction out;
    LaneCount count;
    impl_->predictCachedVisit(req, count, out, 0, 0,
                              [&out](int, std::size_t,
                                     const model::Prediction &p) {
                                  if (&p != &out)
                                      out = p;
                              });
    if (stats) {
        ++stats->requests;
        stats->predictionCacheHits += count.hits;
        stats->analyzed += count.analyzed;
    }
    return out;
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
    std::string key;
    model::Prediction pred;
    for (std::size_t s = 0; s < kShards; ++s) {
        PredictionShard &shard = impl_->predictionShards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const Generation *gen : {&shard.newGen, &shard.oldGen})
            for (std::size_t i = 0; i < gen->size(); ++i) {
                const Record &r = gen->record(i);
                const std::string_view k = gen->keyOf(r);
                // A promoted entry's old copy is shadowed by its new one.
                if (gen == &shard.oldGen && shard.newGen.find(probeOf(k)))
                    continue;
                key.assign(k);
                gen->copyOut(r, pred);
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
    const KeyProbe probe = probeOf(key);
    PredictionShard &shard = impl_->predictionShards[shardOf(probe.hash)];
    model::Prediction existing;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.lookup(probe, impl_->maxPerGen, existing))
        shard.insert(probe, pred, impl_->maxPerGen);
}

PredictionEngine &
PredictionEngine::shared()
{
    static PredictionEngine engine{Options{}};
    return engine;
}

} // namespace facile::engine
