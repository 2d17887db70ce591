/**
 * @file
 * Cold-path throughput: uncached blocks/sec — the rate at which the
 * engine handles *never-seen* blocks, which is what caps serving
 * throughput for fresh traffic.
 *
 * The serial reference row (serial_fresh) analyzes and predicts every
 * block from scratch, as every miss does. The engine rows run with the
 * prediction cache disabled at 1/2/4/8 worker threads. Every
 * prediction is checked bit-identical to the serial reference; the
 * binary exits non-zero on any mismatch. A warm-start round and a
 * load-only round check, in fresh child processes, that predictions
 * restored from a snapshot are bit-identical to cold ones. Results are
 * written to BENCH_coldpath.json.
 */
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "analysis/snapshot.h"
#include "corpus/sections.h"
#include "facile/component.h"
#include "support/stats.h"

using namespace facile;

namespace {

/** Build the TPL/SKL request batch every mode of this bench uses. */
std::vector<engine::Request>
suiteBatch()
{
    const auto &suite = bench::evalSuite();
    std::vector<engine::Request> batch;
    batch.reserve(suite.size());
    for (const auto &b : suite)
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {}});
    return batch;
}

/** Order- and bit-sensitive digest of a prediction sequence. */
std::uint64_t
predictionDigest(const std::vector<model::Prediction> &preds)
{
    corpus::Xxh64State h;
    for (const model::Prediction &p : preds) {
        h.update(&p.throughput, sizeof p.throughput);
        h.update(p.componentValue.data(),
                 sizeof(double) * p.componentValue.size());
        const std::uint8_t b =
            static_cast<std::uint8_t>(p.primaryBottleneck);
        h.update(&b, 1);
    }
    return h.digest();
}

/**
 * Child mode (--startup-probe SNAPSHOT|-): the fresh-process half of
 * the warm-start measurement. Optionally loads the snapshot, then
 * serves the whole suite once through a caching 1-thread engine — the
 * restarted-server scenario — and prints machine-readable timings plus
 * a bit-exact digest of every prediction.
 */
int
startupProbe(const char *snapshotPath)
{
    const std::vector<engine::Request> batch = suiteBatch();
    engine::PredictionEngine::Options opts;
    opts.numThreads = 1;
    engine::PredictionEngine eng(opts);

    double loadMs = 0.0;
    if (std::strcmp(snapshotPath, "-") != 0) {
        const auto t0 = std::chrono::steady_clock::now();
        analysis::loadSnapshot(snapshotPath, {&eng});
        const auto t1 = std::chrono::steady_clock::now();
        loadMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<model::Prediction> out = eng.predictBatch(batch);
    const auto t1 = std::chrono::steady_clock::now();
    const double passMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("STARTUP %.6f %.6f %016llx\n", loadMs, passMs,
                static_cast<unsigned long long>(predictionDigest(out)));
    return 0;
}

/**
 * Child mode (--startup-probe-loadonly SNAPSHOT|-): the load-cost
 * probe. Times only the snapshot load and the first single-block
 * prediction after it, and prints the load mode the loader took plus a
 * bit-exact digest of that prediction. With "-" nothing is loaded: the
 * cold reference.
 */
int
startupProbeLoadOnly(const char *snapshotPath)
{
    engine::PredictionEngine::Options opts;
    opts.numThreads = 1;
    engine::PredictionEngine eng(opts);

    const auto t0 = std::chrono::steady_clock::now();
    analysis::SnapshotStats ss;
    if (std::strcmp(snapshotPath, "-") != 0)
        ss = analysis::loadSnapshot(snapshotPath, {&eng});
    const auto t1 = std::chrono::steady_clock::now();
    const double loadMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    // Suite generation is deliberately outside both timed regions.
    const auto &suite = bench::evalSuite();
    std::vector<engine::Request> one{
        {suite.front().bytesL, uarch::UArch::SKL, true, {}}};
    const auto t2 = std::chrono::steady_clock::now();
    const std::vector<model::Prediction> out = eng.predictBatch(one);
    const auto t3 = std::chrono::steady_clock::now();
    const double firstMs =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    std::printf("LOADONLY %.6f %.6f %d %016llx\n", loadMs, firstMs,
                static_cast<int>(ss.loadMode),
                static_cast<unsigned long long>(predictionDigest(out)));
    return 0;
}

/** Run one --startup-probe child and parse its STARTUP line. */
bool
runStartupProbe(const char *argv0, const std::string &snapshotArg,
                double &loadMs, double &passMs, std::uint64_t &digest)
{
    const std::string cmd = std::string("'") + argv0 +
                            "' --startup-probe '" + snapshotArg + "'";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return false;
    char line[256];
    bool ok = false;
    while (std::fgets(line, sizeof line, p)) {
        unsigned long long d = 0;
        if (std::sscanf(line, "STARTUP %lf %lf %llx", &loadMs, &passMs,
                        &d) == 3) {
            digest = d;
            ok = true;
        }
    }
    return ::pclose(p) == 0 && ok;
}

/** Run one --startup-probe-loadonly child and parse its LOADONLY line. */
bool
runLoadOnlyProbe(const char *argv0, const std::string &snapshotPath,
                 double &loadMs, double &firstMs, int &loadMode,
                 std::uint64_t &digest)
{
    const std::string cmd = std::string("'") + argv0 +
                            "' --startup-probe-loadonly '" +
                            snapshotPath + "'";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return false;
    char line[256];
    bool ok = false;
    while (std::fgets(line, sizeof line, p)) {
        unsigned long long d = 0;
        if (std::sscanf(line, "LOADONLY %lf %lf %d %llx", &loadMs,
                        &firstMs, &loadMode, &d) == 4) {
            digest = d;
            ok = true;
        }
    }
    return ::pclose(p) == 0 && ok;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 3 && std::strcmp(argv[1], "--startup-probe") == 0)
        return startupProbe(argv[2]);
    if (argc >= 3 &&
        std::strcmp(argv[1], "--startup-probe-loadonly") == 0)
        return startupProbeLoadOnly(argv[2]);

    const auto &suite = bench::evalSuite();
    const uarch::UArch arch = uarch::UArch::SKL;
    const bool loop = true;

    std::vector<engine::Request> batch;
    batch.reserve(suite.size());
    for (const auto &b : suite)
        batch.push_back({b.bytesL, arch, loop, {}});
    const auto nBlocks = static_cast<double>(batch.size());

    bench::BenchReport report("coldpath");
    report.scalar("suite_blocks", nBlocks);
    report.scalar("arch", "SKL");
    report.boolean("quick_mode", bench::quickMode());

    std::printf("COLD-PATH THROUGHPUT: uncached blocks/sec, %zu blocks "
                "(TPL, %s)\n",
                batch.size(), uarch::config(arch).abbrev);
    bench::printRule();
    std::printf("%-34s %12s %10s %10s\n", "Configuration", "blocks/s",
                "ms/block", "speedup");
    bench::printRule();

    // The serial reference: analyze + predict every block from
    // scratch, in the serving regime (explicit scratch, Payload::None:
    // bounds and bottleneck classification, no interpretability
    // payload). Minimum over the rounds; also the bit-identity oracle
    // below.
    model::PredictScratch scratch;
    std::vector<model::Prediction> fresh(batch.size());
    auto freshPass = [&] {
        for (std::size_t i = 0; i < batch.size(); ++i)
            fresh[i] = model::predict(bb::analyze(batch[i].bytes, arch),
                                      loop, batch[i].config, scratch);
    };
    double freshMs = 1e300;
    freshPass(); // warm-up (and first oracle fill)
    const model::PredictCountersSnapshot countersBefore =
        model::predictCounters();
    for (int round = 0; round < 8; ++round)
        freshMs = std::min(freshMs, eval::bestOfRunsMs(freshPass, 1, false));
    const model::PredictCountersSnapshot countersAfter =
        model::predictCounters();
    const double freshBps = 1000.0 * nBlocks / freshMs;
    std::printf("%-34s %12.0f %10.5f %10s\n", "serial, fresh", freshBps,
                freshMs / nBlocks, "1.00x");
    report.row("serial_fresh");
    report.metric("threads", 1);
    report.metric("blocks_per_sec", freshBps);

    bool identical = true;
    auto check = [&](const model::Prediction &p, std::size_t i,
                     const char *what) {
        if (!bench::samePrediction(p, fresh[i])) {
            std::fprintf(stderr, "MISMATCH vs fresh serial at block %zu "
                                 "(%s)\n",
                         i, what);
            identical = false;
        }
    };

    // The lazy-payload split: one Payload::Full pass must agree with
    // the bound-only predictions on everything but the payload
    // vectors.
    std::uint64_t fullPredictsDelta = 0;
    {
        const model::PredictCountersSnapshot fullBefore =
            model::predictCounters();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const model::Prediction full = model::predict(
                bb::analyze(batch[i].bytes, arch), loop, batch[i].config,
                scratch, model::Payload::Full);
            if (std::memcmp(&full.throughput, &fresh[i].throughput,
                            sizeof(double)) != 0 ||
                full.primaryBottleneck != fresh[i].primaryBottleneck) {
                std::fprintf(stderr, "MISMATCH bound-only vs full payload "
                                     "at block %zu\n",
                             i);
                identical = false;
            }
        }
        fullPredictsDelta = model::predictCounters().fullPredicts -
                            fullBefore.fullPredicts;
    }

    // Per-block cold latency percentiles on the serial path.
    {
        std::vector<double> us;
        us.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            auto t0 = std::chrono::steady_clock::now();
            model::Prediction p =
                model::predict(bb::analyze(batch[i].bytes, arch), loop,
                               batch[i].config, scratch);
            auto t1 = std::chrono::steady_clock::now();
            check(p, i, "latency probe");
            us.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                             .count());
        }
        const double p50 = percentile(us, 50);
        const double p99 = percentile(us, 99);
        std::printf("per-block cold latency: p50 %.2f us, p99 %.2f us\n",
                    p50, p99);
        report.scalar("p50_us", p50);
        report.scalar("p99_us", p99);
    }

    // Engine rows: the prediction cache off, so every block is
    // analyzed and predicted from scratch.
    for (int threads : {1, 2, 4, 8}) {
        engine::PredictionEngine::Options opts;
        opts.numThreads = threads;
        opts.cacheEnabled = false;
        engine::PredictionEngine eng(opts);

        std::vector<model::Prediction> out;
        const double ms =
            eval::bestOfRunsMs([&] { out = eng.predictBatch(batch); });
        const double bps = 1000.0 * nBlocks / ms;
        for (std::size_t i = 0; i < batch.size(); ++i)
            check(out[i], i, "engine uncached");

        char label[64];
        std::snprintf(label, sizeof label, "engine uncached, %d thread%s",
                      threads, threads == 1 ? "" : "s");
        std::printf("%-34s %12.0f %10.5f %9.2fx\n", label, bps,
                    ms / nBlocks, bps / freshBps);
        std::snprintf(label, sizeof label, "engine_uncached_%dt", threads);
        report.row(label);
        report.metric("threads", threads);
        report.metric("blocks_per_sec", bps);
    }

    // Warm-start round: quantify what a persistent snapshot
    // (src/analysis/snapshot.h) buys a *fresh process*. The parent
    // saves a 1-thread engine's prediction cache over the suite; two
    // children then each serve the full suite once through a caching
    // engine — one from zero, one from the snapshot — and report wall
    // time plus a bit-exact prediction digest. Matching digests are
    // the cross-process bit-identity gate.
    double saveMs = 0.0, warmSpeedup = 0.0;
    double coldPassMs = 0.0, warmLoadMs = 0.0, warmPassMs = 0.0;
    double snapshotBytes = 0.0;
    bool warmIdentical = false, warmMeasured = false;
    {
        engine::PredictionEngine::Options sopts;
        sopts.numThreads = 1;
        engine::PredictionEngine snapEng(sopts);
        snapEng.predictBatch(batch); // populate the prediction cache
        const std::string path =
            "facile_warmstart_" + std::to_string(::getpid()) + ".snap";
        try {
            const auto t0 = std::chrono::steady_clock::now();
            const analysis::SnapshotStats ss =
                analysis::saveSnapshot(path, {&snapEng});
            const auto t1 = std::chrono::steady_clock::now();
            saveMs = std::chrono::duration<double, std::milli>(t1 - t0)
                         .count();
            snapshotBytes = static_cast<double>(ss.bytes);

            double coldLoadMs = 0.0;
            std::uint64_t coldDigest = 0, warmDigest = 1;
            warmMeasured =
                runStartupProbe(argv[0], "-", coldLoadMs, coldPassMs,
                                coldDigest) &&
                runStartupProbe(argv[0], path, warmLoadMs, warmPassMs,
                                warmDigest);
            if (warmMeasured) {
                warmIdentical = coldDigest == warmDigest;
                warmSpeedup = coldPassMs / (warmLoadMs + warmPassMs);
                std::printf(
                    "warm start (fresh process, %zu-block suite): cold "
                    "%.2f ms vs snapshot load %.2f ms + warm pass "
                    "%.2f ms = %.2fx startup speedup\n",
                    batch.size(), coldPassMs, warmLoadMs, warmPassMs,
                    warmSpeedup);
                std::printf("warm-start bit identity (cold vs warm "
                            "child digests): %s\n",
                            warmIdentical ? "yes" : "NO");
                if (!warmIdentical)
                    identical = false;
            } else {
                std::printf("note: warm-start probe children failed to "
                            "run; skipping the warm-start round\n");
            }
        } catch (const analysis::SnapshotError &e) {
            std::printf("note: %s; skipping the warm-start round\n",
                        e.what());
        }
        std::remove(path.c_str());
    }

    // Snapshot load cost, in fresh child processes: a load-only child
    // times the load of the suite's predictions plus the first
    // single-block prediction (a cache hit), best of 3, and that
    // prediction must be bit-identical to a cold child's.
    double loadMs = 0.0, firstMs = 0.0;
    bool loadMeasured = false, firstIdentical = false;
    {
        engine::PredictionEngine snapEng({.numThreads = 1});
        snapEng.predictBatch(batch);
        const std::string path =
            "facile_loadprobe_" + std::to_string(::getpid()) + ".snap";
        auto bestOf = [&](const std::string &snap, double &bestLoadMs,
                          double &bestFirstMs, int &mode,
                          std::uint64_t &digest) {
            bestLoadMs = bestFirstMs = 1e300;
            bool ok = false;
            for (int i = 0; i < 3; ++i) {
                double l = 0.0, f = 0.0;
                if (runLoadOnlyProbe(argv[0], snap, l, f, mode, digest)) {
                    ok = true;
                    bestLoadMs = std::min(bestLoadMs, l);
                    bestFirstMs = std::min(bestFirstMs, f);
                }
            }
            return ok;
        };
        try {
            // generations=1: plain atomic replace, nothing to clean.
            analysis::saveSnapshot(path, {&snapEng, 1});
            int coldMode = 0, mode = 0;
            std::uint64_t coldDigest = 0, digest = 1;
            double coldLoadMs = 0.0, coldFirstMs = 0.0;
            loadMeasured =
                bestOf("-", coldLoadMs, coldFirstMs, coldMode,
                       coldDigest) &&
                bestOf(path, loadMs, firstMs, mode, digest);
            if (loadMeasured) {
                firstIdentical = coldDigest == digest;
                std::printf(
                    "snapshot load (fresh process): load %.3f ms + first "
                    "predict %.3f ms vs cold first predict %.3f ms\n",
                    loadMs, firstMs, coldFirstMs);
                if (mode !=
                    static_cast<int>(analysis::SnapshotLoadMode::Parsed))
                    std::printf("note: the load probe took load mode %d, "
                                "not the parse\n",
                                mode);
                if (!firstIdentical) {
                    std::printf("first-predict bit identity (cold vs "
                                "warm children): NO\n");
                    identical = false;
                }
            } else {
                std::printf("note: load-only probe children failed; "
                            "skipping the load round\n");
            }
        } catch (const analysis::SnapshotError &e) {
            std::printf("note: %s; skipping the load round\n", e.what());
        }
        std::remove(path.c_str());
    }
    bench::printRule();

    // Staged-pipeline counters over the timed serial rounds: how often
    // the precedence engines were skipped (self-carried-only dependence
    // graphs) and how the lazy-payload split fell out.
    const std::uint64_t precEvals =
        countersAfter.precedenceEvals - countersBefore.precedenceEvals;
    const std::uint64_t precSkips = countersAfter.precedenceShortCircuits -
                                    countersBefore.precedenceShortCircuits;
    const double precSkipRate =
        precEvals ? static_cast<double>(precSkips) /
                        static_cast<double>(precEvals)
                  : 0.0;
    // Deltas over the measured regions (same pattern as the skip rate):
    // the bound-only count covers the timed serial rounds, the
    // full-payload count the one full-payload pass — not cumulative
    // process totals, so restructuring the bench cannot silently skew
    // the checked-in trajectory.
    const std::uint64_t boundPredictsDelta =
        countersAfter.boundPredicts - countersBefore.boundPredicts;
    std::printf("precedence short-circuit: %.1f%% of %llu bound "
                "evaluations skipped the cycle-ratio engines\n",
                100.0 * precSkipRate,
                static_cast<unsigned long long>(precEvals));
    std::printf("lazy payload: %llu bound-only (timed serial rounds) vs "
                "%llu full-payload (one pass) predicts\n",
                static_cast<unsigned long long>(boundPredictsDelta),
                static_cast<unsigned long long>(fullPredictsDelta));
    std::printf("bit-identical to fresh serial predict: %s\n",
                identical ? "yes" : "NO");
    report.scalar("precedence_skip_rate", precSkipRate);
    report.scalar("precedence_evals",
                  static_cast<double>(precEvals));
    report.scalar("bound_only_predicts",
                  static_cast<double>(boundPredictsDelta));
    report.scalar("full_predicts",
                  static_cast<double>(fullPredictsDelta));
    if (warmMeasured) {
        report.scalar("snapshot_save_ms", saveMs);
        report.scalar("snapshot_bytes", snapshotBytes);
        report.scalar("startup_cold_ms", coldPassMs);
        report.scalar("startup_warm_load_ms", warmLoadMs);
        report.scalar("startup_warm_pass_ms", warmPassMs);
        report.scalar("warm_start_speedup", warmSpeedup);
        report.boolean("warm_bit_identical", warmIdentical);
    }
    if (loadMeasured) {
        report.scalar("snapshot_v2_mmap_load_ms", loadMs);
        report.scalar("snapshot_v2_first_predict_ms", firstMs);
        report.boolean("v2_first_predict_identical", firstIdentical);
    }
    report.boolean("bit_identical", identical);
    report.write();

    return identical ? 0 : 1;
}
