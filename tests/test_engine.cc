/**
 * @file
 * PredictionEngine tests: batch results are bit-identical to the serial
 * predictor for 1 and N lanes, cache hits return the same Prediction
 * (bottlenecks and critical chain included) as cold calls, stats
 * counters add up, and malformed blocks follow the throughput-0 crash
 * protocol. The EnginePool suite pins the fan-out contract: every index
 * once, no lane shared by concurrent bodies, the caller as lane 0 that
 * never waits on an unstarted helper, exceptions from any lane, and no
 * thread for a one-lane engine.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>

#include "bhive/generator.h"
#include "engine/engine.h"
#include "facile/component.h"
#include "facile/predictor.h"

namespace facile::engine {
namespace {

using model::ModelConfig;
using model::Prediction;

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(99, 4);
    return s;
}

std::vector<Request>
makeBatch(bool withConfigs = false)
{
    std::vector<Request> batch;
    for (const auto &b : suite()) {
        batch.push_back({b.bytesU, uarch::UArch::SKL, false, {}});
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {}});
        batch.push_back({b.bytesL, uarch::UArch::RKL, true, {}});
        // Full-payload requests exercise the eager explain path and its
        // separate prediction-cache entries.
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {},
                         model::Payload::Full});
        if (withConfigs)
            batch.push_back({b.bytesU, uarch::UArch::SKL, false,
                             ModelConfig::without(
                                 model::Component::Ports)});
    }
    return batch;
}

::testing::AssertionResult
bitIdentical(const Prediction &a, const Prediction &b)
{
    if (std::memcmp(&a.throughput, &b.throughput, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "throughput " << a.throughput << " vs " << b.throughput;
    // memcmp over the array keeps NaN markers comparable.
    if (std::memcmp(a.componentValue.data(), b.componentValue.data(),
                    sizeof(double) * a.componentValue.size()) != 0)
        return ::testing::AssertionFailure() << "componentValue differs";
    if (a.bottlenecks != b.bottlenecks)
        return ::testing::AssertionFailure() << "bottlenecks differ";
    if (a.primaryBottleneck != b.primaryBottleneck)
        return ::testing::AssertionFailure() << "primaryBottleneck differs";
    if (a.criticalChain != b.criticalChain)
        return ::testing::AssertionFailure() << "criticalChain differs";
    if (a.contendedPorts != b.contendedPorts)
        return ::testing::AssertionFailure() << "contendedPorts differ";
    if (a.contendingInsts != b.contendingInsts)
        return ::testing::AssertionFailure() << "contendingInsts differ";
    return ::testing::AssertionSuccess();
}

Prediction
serialPredict(const Request &r)
{
    // Match the request's payload depth: engine requests default to the
    // cheap bound-only path, so the serial oracle must too.
    model::PredictScratch scratch;
    return model::predict(bb::analyze(r.bytes, r.arch), r.loop, r.config,
                          scratch, r.payload);
}

TEST(Engine, BatchMatchesSerialOneWorker)
{
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    auto batch = makeBatch(true);
    auto out = eng.predictBatch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, BatchMatchesSerialManyWorkers)
{
    PredictionEngine::Options opts;
    opts.numThreads = 8;
    PredictionEngine eng(opts);

    auto batch = makeBatch(true);
    auto out = eng.predictBatch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, CacheHitEqualsColdCall)
{
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    BatchStats cold, warm;
    auto first = eng.predictBatch(batch, &cold);
    auto second = eng.predictBatch(batch, &warm);

    EXPECT_EQ(cold.predictionCacheHits, 0u);
    EXPECT_EQ(warm.predictionCacheHits, batch.size());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(first[i], second[i])) << "request " << i;
}

TEST(Engine, AnalysisCacheSharesBlocksAcrossNotions)
{
    // The same bytes under TPU and TPL decode once: the second request
    // of each pair hits the analysis cache even though the prediction
    // key differs.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    BatchStats stats;
    eng.predictOne({b.bytesL, uarch::UArch::SKL, false, {}}, &stats);
    eng.predictOne({b.bytesL, uarch::UArch::SKL, true, {}}, &stats);
    EXPECT_EQ(stats.analyzed, 1u);
    EXPECT_EQ(stats.analysisCacheHits, 1u);
    EXPECT_EQ(stats.predictionCacheHits, 0u);
}

TEST(Engine, CacheDisabledStillMatchesSerial)
{
    PredictionEngine::Options opts;
    opts.numThreads = 4;
    opts.cacheEnabled = false;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    BatchStats stats;
    auto out = eng.predictBatch(batch, &stats);
    EXPECT_EQ(stats.predictionCacheHits, 0u);
    EXPECT_EQ(stats.analyzed, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, PerArchCacheKeysDoNotCollide)
{
    // Identical bytes on two arches must produce the arch-specific
    // predictions, not a shared cache entry.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    auto skl = eng.predictOne({b.bytesL, uarch::UArch::SKL, true, {}});
    auto rkl = eng.predictOne({b.bytesL, uarch::UArch::RKL, true, {}});
    auto skl2 = eng.predictOne({b.bytesL, uarch::UArch::SKL, true, {}});
    EXPECT_TRUE(bitIdentical(
        skl, serialPredict({b.bytesL, uarch::UArch::SKL, true, {}})));
    EXPECT_TRUE(bitIdentical(
        rkl, serialPredict({b.bytesL, uarch::UArch::RKL, true, {}})));
    EXPECT_TRUE(bitIdentical(skl, skl2));
}

TEST(Engine, MalformedBlockYieldsZeroThroughput)
{
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    std::vector<Request> batch;
    batch.push_back({{0x0f, 0xff, 0xff}, uarch::UArch::SKL, false, {}});
    batch.push_back({suite().front().bytesU, uarch::UArch::SKL, false, {}});
    auto out = eng.predictBatch(batch);
    EXPECT_EQ(out[0].throughput, 0.0);
    EXPECT_GT(out[1].throughput, 0.0);
}

TEST(Engine, StatsCountersAddUp)
{
    PredictionEngine::Options opts;
    opts.numThreads = 3;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    BatchStats stats;
    eng.predictBatch(batch, &stats);
    eng.predictBatch(batch, &stats);
    EXPECT_EQ(stats.requests, 2 * batch.size());
    EXPECT_EQ(stats.predictionCacheHits, batch.size());
    // Every block was decoded at most once.
    EXPECT_LE(stats.analyzed, batch.size());
}

TEST(Engine, ClearCachesForcesReanalysis)
{
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    Request r{b.bytesU, uarch::UArch::SKL, false, {}};
    auto cold = eng.predictOne(r);
    eng.clearCaches();
    BatchStats stats;
    auto recold = eng.predictOne(r, &stats);
    EXPECT_EQ(stats.predictionCacheHits, 0u);
    EXPECT_EQ(stats.analyzed, 1u);
    EXPECT_TRUE(bitIdentical(cold, recold));
}

TEST(Engine, EvictionKeepsSteadyStateHitRateAtCapacity)
{
    // A working set ~1.5x one generation's aggregate capacity, replayed
    // repeatedly. Under the old epoch eviction (clear() on overflow) a
    // shard past its bound dropped its entire hot set every cycle, so
    // steady-state hits collapsed; two-generation eviction keeps the
    // working set circulating between generations.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    opts.maxEntriesPerShard = 12; // 16 shards -> one generation ~192
    PredictionEngine eng(opts);

    // Distinct blocks from a private suite (both notions' bytes).
    std::vector<Request> batch;
    {
        auto blocks = bhive::generateSuite(123, 16);
        std::set<std::vector<std::uint8_t>> seen;
        for (const auto &b : blocks) {
            for (const auto *bytes : {&b.bytesU, &b.bytesL}) {
                if (batch.size() >= 192)
                    break;
                if (seen.insert(*bytes).second)
                    batch.push_back(
                        {*bytes, uarch::UArch::SKL, false, {}});
            }
        }
    }
    ASSERT_GE(batch.size(), 160u);

    eng.predictBatch(batch); // cold fill
    eng.predictBatch(batch); // reach steady state
    eng.predictBatch(batch);
    BatchStats warm;
    eng.predictBatch(batch, &warm);
    // Measured on this suite: 28% with the old epoch eviction, 94%
    // with two-generation eviction.
    EXPECT_GE(warm.predictionCacheHits, batch.size() * 6 / 10)
        << "steady-state hit rate collapsed after cache overflow";
}

TEST(Engine, EvictionStillBoundsCacheGrowth)
{
    // A one-shot scan much larger than capacity must still be answered
    // correctly (eviction never corrupts results, only forgets).
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    opts.maxEntriesPerShard = 4;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    auto out = eng.predictBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, NestedParallelForRunsInlineWithoutDeadlock)
{
    // parallelFor from inside a body of the same pool runs inline on
    // the body's own lane, so the outer call's per-lane state is never
    // shared with a second thread.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    std::atomic<int> count{0}, strayLanes{0};
    eng.parallelForWorker(64, [&](int outer, std::size_t) {
        const auto self = std::this_thread::get_id();
        eng.parallelForWorker(3, [&](int inner, std::size_t) {
            if (inner != outer || std::this_thread::get_id() != self)
                ++strayLanes;
            ++count;
        });
    });
    EXPECT_EQ(strayLanes.load(), 0);
    EXPECT_EQ(count.load(), 64 * 3);
}

// ---- fan-out contract: lanes, chunked claims, lane 0 is the caller ---------

TEST(EnginePool, EveryIndexRunsExactlyOnceOnAValidLane)
{
    for (int lanes : {1, 2, 4})
        for (std::size_t n : {1u, 2u, 7u, 1000u}) {
            PredictionEngine eng({.numThreads = lanes});
            ASSERT_EQ(eng.numThreads(), lanes);
            std::vector<std::atomic<int>> hits(n);
            std::atomic<int> badLane{0};
            eng.parallelForWorker(n, [&](int lane, std::size_t i) {
                if (lane < 0 || lane >= lanes)
                    ++badLane;
                ++hits[i];
            });
            EXPECT_EQ(badLane.load(), 0) << lanes << " lanes, n " << n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << lanes << " lanes, n " << n << ", index " << i;
        }
}

TEST(EnginePool, ConcurrentBodiesNeverShareALane)
{
    // Per-lane state (scratch, response buffers) is unlocked, so two
    // bodies running at once in one call must never see the same lane.
    constexpr int kLanes = 4;
    PredictionEngine eng({.numThreads = kLanes});
    std::array<std::atomic<bool>, kLanes> busy{};
    std::atomic<int> clashes{0};
    for (int round = 0; round < 20; ++round)
        eng.parallelForWorker(4000, [&](int lane, std::size_t) {
            auto &flag = busy[static_cast<std::size_t>(lane)];
            if (flag.exchange(true))
                ++clashes;
            std::this_thread::yield(); // widen the window for a clash
            flag.store(false);
        });
    EXPECT_EQ(clashes.load(), 0);
}

TEST(EnginePool, CallerFinishesWhileEveryHelperIsBlocked)
{
    // The caller is lane 0 and claims chunks itself, so a call never
    // waits on a helper that has not started: with every helper parked
    // inside another call, a small parallelFor still completes.
    constexpr int kLanes = 4;
    PredictionEngine eng({.numThreads = kLanes});
    std::latch release(1);
    std::atomic<int> parked{0};
    std::thread occupier([&] {
        const auto self = std::this_thread::get_id();
        eng.parallelForWorker(1000, [&](int, std::size_t) {
            if (std::this_thread::get_id() != self) {
                ++parked;
                release.wait();
                return;
            }
            // Hold the caller's lane so the helpers find chunks left
            // to claim.
            while (parked.load() < kLanes - 1)
                std::this_thread::yield();
        });
    });
    while (parked.load() < kLanes - 1)
        std::this_thread::yield();

    auto small = std::async(std::launch::async, [&] {
        std::atomic<int> ran{0};
        eng.parallelFor(64, [&](std::size_t) { ++ran; });
        return ran.load();
    });
    const bool finished = small.wait_for(std::chrono::seconds(2)) ==
                          std::future_status::ready;
    release.count_down();
    occupier.join();
    EXPECT_TRUE(finished) << "parallelFor waited on parked helpers";
    EXPECT_EQ(small.get(), 64);
}

TEST(EnginePool, ExceptionFromAnyLaneReachesTheCallerAndPoolIsReusable)
{
    // A helper must never unwind (that would terminate the process):
    // the first exception surfaces on the caller and the loop stops.
    PredictionEngine eng({.numThreads = 4});
    for (const bool callerThrows : {true, false}) {
        // The other lanes hold their first index until the thrower has
        // thrown, so it is sure to find a chunk to claim.
        std::atomic<bool> threw{false};
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        try {
            eng.parallelForWorker(1000, [&](int lane, std::size_t) {
                if ((lane == 0) == callerThrows) {
                    threw = true;
                    throw std::runtime_error(callerThrows ? "caller"
                                                          : "helper");
                }
                while (!threw.load() &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            });
            ADD_FAILURE() << "the exception was swallowed";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), callerThrows ? "caller" : "helper");
        }
    }

    std::vector<std::atomic<int>> hits(1000);
    eng.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

std::size_t
threadCount()
{
    std::size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

TEST(EnginePool, OneLaneStartsNoThreadAndOneIndexStaysOnTheCaller)
{
    // At most equal: a thread joined by an earlier test may still be
    // leaving the task list.
    const std::size_t before = threadCount();
    PredictionEngine one({.numThreads = 1});
    EXPECT_LE(threadCount(), before) << "a 1-lane engine started a thread";

    // A one-request batch never leaves the caller, whatever the lanes.
    PredictionEngine four({.numThreads = 4});
    std::thread::id ranOn;
    int ranLane = -1;
    four.parallelForWorker(1, [&](int lane, std::size_t) {
        ranOn = std::this_thread::get_id();
        ranLane = lane;
    });
    EXPECT_EQ(ranOn, std::this_thread::get_id());
    EXPECT_EQ(ranLane, 0);
}

TEST(EnginePool, ConcurrentCallersMatchSerial)
{
    // Every lane runs on its thread's own scratch, so two threads
    // driving one engine at once (each is lane 0 of its own call) do
    // not share pipeline state.
    PredictionEngine eng({.numThreads = 2, .cacheEnabled = false});
    const auto batch = makeBatch(/*withConfigs=*/true);
    std::vector<Prediction> expect;
    for (const auto &r : batch)
        expect.push_back(serialPredict(r));
    std::vector<Prediction> outA, outB;
    std::thread a([&] { outA = eng.predictBatch(batch); });
    std::thread b([&] { outB = eng.predictBatch(batch); });
    a.join();
    b.join();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(bitIdentical(outA[i], expect[i])) << "request " << i;
        EXPECT_TRUE(bitIdentical(outB[i], expect[i])) << "request " << i;
    }
}

} // namespace
} // namespace facile::engine
