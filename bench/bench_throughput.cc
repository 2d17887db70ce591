/**
 * @file
 * End-to-end serving throughput of the batched PredictionEngine:
 * blocks/sec over the generated BHive suite (bytes in, predictions
 * out), at 1/2/4/8 worker threads, against the serial
 * bb::analyze + model::predict path — plus the cache-hit serving rate.
 * Results are written to BENCH_throughput.json.
 *
 * Every engine prediction is checked bit-identical to the serial
 * predictor's output (throughput and component values compared by bit
 * pattern, interpretability payload by value); the binary exits
 * non-zero on any mismatch, so this doubles as a regression guard for
 * the engine's correctness contract.
 */
#include "bench_common.h"

#include <thread>

#include "facile/component.h"
#include "facile/predictor.h"

using namespace facile;

int
main()
{
    const auto &suite = bench::evalSuite();
    const uarch::UArch arch = uarch::UArch::SKL;
    const bool loop = true;

    std::vector<engine::Request> batch;
    batch.reserve(suite.size());
    for (const auto &b : suite)
        batch.push_back({b.bytesL, arch, loop, {}});
    const auto nBlocks = static_cast<double>(batch.size());

    bench::BenchReport report("throughput");
    report.scalar("suite_blocks", nBlocks);
    report.scalar("arch", "SKL");
    report.boolean("quick_mode", bench::quickMode());

    // Serial reference: analyze + predict per block, no engine — in the
    // same serving mode the engine runs (explicit scratch, bound-only
    // payload), so the comparison and the bit-identity oracle are
    // like-for-like.
    model::PredictScratch scratch;
    std::vector<model::Prediction> serial(batch.size());
    const double serialMs = eval::bestOfRunsMs([&] {
        for (std::size_t i = 0; i < batch.size(); ++i)
            serial[i] =
                model::predict(bb::analyze(batch[i].bytes, arch), loop,
                               batch[i].config, scratch);
    });
    const double serialBps = 1000.0 * nBlocks / serialMs;

    std::printf("ENGINE THROUGHPUT: end-to-end blocks/sec, %zu blocks "
                "(TPL, %s)\n",
                batch.size(), uarch::config(arch).abbrev);
    bench::printRule();
    std::printf("%-28s %12s %10s %10s\n", "Configuration", "blocks/s",
                "ms/block", "speedup");
    bench::printRule();
    std::printf("%-28s %12.0f %10.5f %10s\n", "serial (analyze+predict)",
                serialBps, serialMs / nBlocks, "1.00x");
    report.row("serial");
    report.metric("threads", 1);
    report.metric("blocks_per_sec", serialBps);

    bool identical = true;
    double bps4 = 0.0;

    for (int threads : {1, 2, 4, 8}) {
        engine::PredictionEngine::Options opts;
        opts.numThreads = threads;
        opts.cacheEnabled = false; // pure compute scaling
        engine::PredictionEngine eng(opts);

        std::vector<model::Prediction> out;
        const double ms =
            eval::bestOfRunsMs([&] { out = eng.predictBatch(batch); });
        const double bps = 1000.0 * nBlocks / ms;
        if (threads == 4)
            bps4 = bps;

        for (std::size_t i = 0; i < batch.size(); ++i)
            if (!bench::samePrediction(out[i], serial[i])) {
                std::fprintf(stderr,
                             "MISMATCH vs serial at block %zu "
                             "(%d threads)\n",
                             i, threads);
                identical = false;
            }

        char label[64];
        std::snprintf(label, sizeof label, "engine, %d thread%s", threads,
                      threads == 1 ? "" : "s");
        std::printf("%-28s %12.0f %10.5f %9.2fx\n", label, bps,
                    ms / nBlocks, bps / serialBps);
        std::snprintf(label, sizeof label, "engine_%dt", threads);
        report.row(label);
        report.metric("threads", threads);
        report.metric("blocks_per_sec", bps);
    }

    // Default engine configuration (4 workers, caches on): steady-state
    // serving rate of a repeated request stream, answered from the
    // prediction cache.
    double bpsDefault = 0.0;
    {
        engine::PredictionEngine::Options opts;
        opts.numThreads = 4;
        engine::PredictionEngine eng(opts);
        std::vector<model::Prediction> out =
            eng.predictBatch(batch); // cold: fills caches
        const double ms =
            eval::bestOfRunsMs([&] { out = eng.predictBatch(batch); });
        for (std::size_t i = 0; i < batch.size(); ++i)
            if (!bench::samePrediction(out[i], serial[i])) {
                std::fprintf(stderr, "MISMATCH vs serial on cache hit "
                                     "at block %zu\n",
                             i);
                identical = false;
            }
        bpsDefault = 1000.0 * nBlocks / ms;

        // Steady-state hit rate of one more pass (prediction cache).
        engine::BatchStats stats;
        eng.predictBatch(batch, &stats);
        const double hitRate =
            stats.requests
                ? static_cast<double>(stats.predictionCacheHits) /
                      static_cast<double>(stats.requests)
                : 0.0;
        std::printf("%-28s %12.0f %10.5f %9.2fx\n",
                    "engine, 4 threads (cached)", bpsDefault,
                    ms / nBlocks, bpsDefault / serialBps);
        report.row("engine_4t_cached");
        report.metric("threads", 4);
        report.metric("blocks_per_sec", bpsDefault);
        report.metric("cache_hit_rate", hitRate);
    }

    bench::printRule();
    std::printf("bit-identical to serial predict: %s\n",
                identical ? "yes" : "NO");
    std::printf("4-thread compute scaling (cache off): %.2fx on %u "
                "hardware core%s\n",
                bps4 / serialBps, std::thread::hardware_concurrency(),
                std::thread::hardware_concurrency() == 1 ? "" : "s");
    std::printf("4-thread engine, default config, vs serial: %.2fx "
                "(target >= 2x)\n",
                bpsDefault / serialBps);
    report.boolean("bit_identical", identical);
    report.write();
    return identical ? 0 : 1;
}
