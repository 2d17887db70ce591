/**
 * @file
 * Block analysis retains no memory.
 *
 * This binary replaces the global operator new/delete with counting
 * versions. After a warm-up on never-seen blocks, analyzing and
 * predicting 2,000 more never-seen blocks must leave the live
 * allocation count where the warm-up left it (within kSlack: scratch
 * buffers may still grow to a longer block). That holds serially and
 * through a 1-lane engine with its caches off, so neither path keeps
 * per-block or per-instruction state between requests. Allocations
 * per block are printed for information only.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "facile/component.h"
#include "facile/predictor.h"

namespace {

std::atomic<long long> g_live{0};
std::atomic<unsigned long long> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    g_live.fetch_add(1, std::memory_order_relaxed);
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    g_live.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void operator delete(void *p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::align_val_t) noexcept { countedFree(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace facile {
namespace {

constexpr std::size_t kWarmBlocks = 400;
constexpr std::size_t kMeasuredBlocks = 2000;
constexpr long long kSlack = 16;

/**
 * @p n distinct never-seen requests, cycling through the nine arches
 * and both notions; @p seen carries the blocks of earlier sets.
 */
std::vector<engine::Request>
freshRequests(std::uint64_t seed, std::size_t n,
              std::set<std::vector<std::uint8_t>> &seen)
{
    std::vector<engine::Request> out;
    const std::vector<uarch::UArch> &arches = uarch::allUArchs();
    for (std::uint64_t chunk = 0; out.size() < n; ++chunk)
        for (const bhive::Benchmark &b :
             bhive::generateSuite(seed * 1000 + chunk, 20)) {
            for (const bool loop : {false, true}) {
                const auto &bytes = loop ? b.bytesL : b.bytesU;
                if (out.size() == n || !seen.insert(bytes).second)
                    continue;
                out.push_back(
                    {bytes, arches[out.size() % arches.size()], loop, {}});
            }
        }
    return out;
}

struct Sets
{
    std::vector<engine::Request> warm, serial, engine;
};

const Sets &
sets()
{
    static const Sets s = [] {
        std::set<std::vector<std::uint8_t>> seen;
        Sets out;
        out.warm = freshRequests(1, kWarmBlocks, seen);
        out.serial = freshRequests(2, kMeasuredBlocks, seen);
        out.engine = freshRequests(3, kMeasuredBlocks, seen);
        return out;
    }();
    return s;
}

void
predictSerially(const std::vector<engine::Request> &reqs)
{
    for (const engine::Request &r : reqs) {
        const bb::BasicBlock blk = bb::analyze(r.bytes, r.arch);
        const model::Prediction p = model::predict(
            blk, r.loop, r.config, model::tlsPredictScratch(), r.payload);
        ASSERT_GT(p.throughput, 0.0);
    }
}

void
predictThroughEngine(engine::PredictionEngine &eng,
                     const std::vector<engine::Request> &reqs)
{
    std::vector<engine::Request> batch;
    for (std::size_t i = 0; i < reqs.size(); i += 64) {
        batch.assign(reqs.begin() + static_cast<std::ptrdiff_t>(i),
                     reqs.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(i + 64, reqs.size())));
        for (const model::Prediction &p : eng.predictBatch(batch))
            ASSERT_GT(p.throughput, 0.0);
    }
}

/** Run @p body over @p n blocks; check retention, print allocations. */
template <typename Body>
void
expectNothingRetained(const char *path, std::size_t n, Body body)
{
    const long long live0 = g_live.load();
    const unsigned long long allocs0 = g_allocs.load();
    body();
    const long long retained = g_live.load() - live0;
    const double perBlock =
        static_cast<double>(g_allocs.load() - allocs0) /
        static_cast<double>(n);
    std::printf("%s: %.1f allocations per never-seen block, %lld "
                "retained after %zu blocks\n",
                path, perBlock, retained, n);
    EXPECT_LE(retained, kSlack) << path;
    EXPECT_GE(retained, -kSlack) << path;
}

TEST(Retention, NeverSeenBlocksLeaveNothingBehind)
{
    const Sets &s = sets();
    engine::EngineOptions eo;
    eo.numThreads = 1;
    eo.cacheEnabled = false;
    engine::PredictionEngine eng(eo);

    predictSerially(s.warm);
    predictThroughEngine(eng, s.warm);

    expectNothingRetained("serial", s.serial.size(),
                          [&] { predictSerially(s.serial); });
    expectNothingRetained("engine, 1 lane, caches off", s.engine.size(),
                          [&] { predictThroughEngine(eng, s.engine); });
}

} // namespace
} // namespace facile
