/**
 * @file
 * fresh_compile: a compiler calling the library in-process. One caller
 * thread submits one function's worth of never-seen blocks (64) per
 * PredictionEngine::predictBatch call, closed loop, to an engine with
 * nproc workers and default caches.
 *
 * The run is split into rounds, each a fresh process doing a fixed
 * amount of work, because a compiler is one process per job and the
 * interners are process-wide and append-only: one long-lived process
 * would measure an ever-warmer interner and grow by ~1 KiB per block.
 * Fixed work (sized so a round takes about --seconds / rounds at the
 * commit that defined the benchmark) keeps peak memory a property of the
 * inputs rather than of the speed. Every metric is the median over
 * rounds.
 */
#include <cmath>
#include <cstdio>
#include <optional>
#include <unistd.h>

#include "analysis/intern.h"
#include "bench.h"
#include "facile/component.h"
#include "uarch/config.h"

namespace pb {

using namespace facile;

namespace {

/** A round does about this many seconds of work (its RSS scales too). */
constexpr double kRoundSeconds = 1.0;
constexpr std::size_t kBatch = 64;
/** Work per second of --seconds: ~the 4-core rate when defined. */
constexpr double kRefBlocksPerS = 128000.0;
/** Serial probe items per round in the traced run. */
constexpr std::size_t kProbeItems = 400;
/** Batches per side of the 1-vs-n worker scaling probe. */
constexpr std::size_t kScalingBatches = 40;
/** One in this many served predictions is checked against serial. */
constexpr std::uint64_t kSampleEvery = 32;

/**
 * Walks the pool one function (64 bodies) at a time across every
 * (arch, notion): batch k covers bodies [64 * (k / 18), +64) on combo
 * k % 18, so no (arch, block, notion) repeats.
 */
class BatchCursor
{
  public:
    explicit BatchCursor(const FreshPool &pool) : pool_(pool) {}

    void next(std::vector<Request> &batch, std::vector<std::size_t> &items)
    {
        const std::size_t group = k_ / 18, combo = k_ % 18;
        if ((group + 1) * kBatch > pool_.bytesU.size())
            throw std::runtime_error("fresh pool exhausted");
        batch.resize(kBatch);
        items.resize(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
            items[i] = (group * kBatch + i) * 18 + combo;
            pool_.fill(items[i], batch[i]);
        }
        ++k_;
    }

  private:
    const FreshPool &pool_;
    std::size_t k_ = 0;
};

struct LoopStats
{
    std::uint64_t blocks = 0;
    double timedS = 0.0;
    std::vector<double> latUs;
    engine::BatchStats batch;

    double rate() const { return static_cast<double>(blocks) / timedS; }
};

/**
 * Closed loop of @p batches predictBatch calls. Building a batch from
 * the pool happens outside the timed call.
 */
void
closedLoop(engine::PredictionEngine &eng, BatchCursor &cur,
           std::size_t batches, std::uint64_t seed, Trace &trace,
           LoopStats &ls,
           std::vector<std::pair<std::size_t, Prediction>> &samples)
{
    std::vector<Request> batch;
    std::vector<std::size_t> items;
    for (std::size_t k = 0; k < batches; ++k) {
        cur.next(batch, items);
        engine::BatchStats st;
        const std::int64_t t0 = nowNs();
        std::vector<Prediction> out;
        {
            SpanGuard span(trace, "engine.batch", -1, ls.blocks);
            out = eng.predictBatch(batch, &st);
        }
        const double dt = static_cast<double>(nowNs() - t0) / 1e9;
        ls.timedS += dt;
        ls.latUs.push_back(dt * 1e6);
        ls.blocks += batch.size();
        ls.batch.requests += st.requests;
        ls.batch.analysisCacheHits += st.analysisCacheHits;
        ls.batch.predictionCacheHits += st.predictionCacheHits;
        for (std::size_t i = 0; i < items.size(); ++i)
            if (mixSeed(seed, items[i]) % kSampleEvery == 0)
                samples.emplace_back(items[i], std::move(out[i]));
    }
}

const char *
componentSpan(model::Component c)
{
    static const char *names[] = {
        "facile.predec", "facile.dec",   "facile.dsb",       "facile.lsd",
        "facile.issue",  "facile.ports", "facile.precedence"};
    return names[static_cast<int>(c)];
}

/**
 * Serial layer probes on never-seen items: per item, a "request" span
 * over bb::analyze and model::predict(Payload::None); then each
 * component the block's RegistryView evaluated (non-NaN bound) timed
 * alone through ComponentPredictor::bound; then model::explain.
 */
void
layerProbes(const FreshPool &pool, Trace &trace)
{
    model::PredictScratch scratch;
    Request req;
    for (std::size_t item = 0; item < kProbeItems; ++item) {
        pool.fill(item, req);
        std::optional<bb::BasicBlock> blk;
        Prediction pred;
        {
            SpanGuard root(trace, "request", -1, item);
            {
                SpanGuard s(trace, "bb.analyze", root.id(), item);
                blk.emplace(bb::analyze(req.bytes, req.arch));
            }
            SpanGuard s(trace, "facile.predict", root.id(), item);
            pred = model::predict(*blk, req.loop, req.config, scratch,
                                  Payload::None);
        }
        const model::RegistryView &view =
            model::Registry::forArch(req.arch).view(req.config);
        const model::ComponentPredictor *comps[] = {
            view.nFront > 0 ? view.front[0] : nullptr,
            view.nFront > 1 ? view.front[1] : nullptr,
            view.dsb,
            view.lsd,
            view.issue,
            view.ports,
            view.precedence};
        const model::PredictContext ctx{*blk, uarch::config(req.arch),
                                        req.loop, Payload::None, scratch};
        {
            SpanGuard root(trace, "components", -1, item);
            for (const model::ComponentPredictor *c : comps) {
                if (!c || std::isnan(pred.componentValue[static_cast<int>(
                              c->id())]))
                    continue;
                SpanGuard s(trace, componentSpan(c->id()), root.id(), item);
                volatile double b = c->bound(ctx);
                (void)b;
            }
        }
        SpanGuard s(trace, "facile.explain", -1, item);
        model::explain(*blk, req.config, scratch, pred);
    }
}

/** Time @p n batches from @p cur on @p eng; returns blocks per second. */
double
batchRate(engine::PredictionEngine &eng, BatchCursor &cur, std::size_t n,
          Trace &trace, const char *span)
{
    std::vector<Request> batch;
    std::vector<std::size_t> items;
    double s = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        cur.next(batch, items);
        const std::int64_t t0 = nowNs();
        {
            SpanGuard g(trace, span);
            eng.predictBatch(batch);
        }
        s += static_cast<double>(nowNs() - t0) / 1e9;
    }
    return static_cast<double>(n * kBatch) / s;
}

/** Bodies a cursor needs for @p batches batches. */
std::size_t
bodiesFor(std::size_t batches)
{
    return (batches / 18 + 1) * kBatch;
}

/** The traced round's layer metrics. */
void
traceRound(const Options &o, int round, const FreshPool &pool,
           engine::PredictionEngine &eng, const LoopStats &untraced,
           const LoopStats &traced, Trace &trace,
           std::map<std::string, double> &m)
{
    m["trace.overhead_pct"] =
        (untraced.rate() - traced.rate()) / untraced.rate() * 100.0;
    m["engine.batch_us"] = trace.meanSelfUs("engine.batch");

    const FreshPool probePool = makeFreshPool(
        mixSeed(o.seed, 5000 + static_cast<std::uint64_t>(round)),
        kProbeItems / 18 + 1);
    layerProbes(probePool, trace);
    const double analyzeUs = trace.meanSelfUs("bb.analyze");
    const double predictUs = trace.meanSelfUs("facile.predict");
    m["bb.analyze_us"] = analyzeUs;
    m["facile.predict_us"] = predictUs;
    double compSum = 0.0;
    for (int c = 0; c < model::kNumComponents; ++c) {
        const char *span = componentSpan(static_cast<model::Component>(c));
        // Per predicted block, so the components sum to predict_us.
        const double perBlockUs =
            trace.totalS(span) * 1e6 / static_cast<double>(kProbeItems);
        compSum += perBlockUs;
        m[std::string(span) + "_us"] = perBlockUs;
    }
    m["facile.unattributed_us"] = predictUs - compSum;
    m["facile.explain_us"] = trace.meanSelfUs("facile.explain");
    // Serial layer time per block vs the engine's worker time per block.
    m["trace.reconcile_ratio"] =
        (analyzeUs + predictUs) /
        (m["engine.batch_us"] * nproc() / static_cast<double>(kBatch));

    // Scaling: never-seen batches at n vs 1 worker, each on a fresh
    // engine; then an all-hit replay of the loop's first batches.
    const FreshPool scalePool = makeFreshPool(
        mixSeed(o.seed, 6000 + static_cast<std::uint64_t>(round)),
        bodiesFor(2 * kScalingBatches));
    BatchCursor scaleCur(scalePool);
    engine::EngineOptions one, all;
    one.numThreads = 1;
    all.numThreads = nproc();
    engine::PredictionEngine eng1(one), engN(all);
    const double bps1 =
        batchRate(eng1, scaleCur, kScalingBatches, trace, "engine.batch_1t");
    const double bpsN =
        batchRate(engN, scaleCur, kScalingBatches, trace, "engine.batch_nt");
    m["engine.scaling_nt_over_1t"] = bpsN / bps1;
    BatchCursor replay(pool);
    m["engine.hit_ns_per_req"] =
        1e9 / batchRate(eng, replay, kScalingBatches, trace,
                        "engine.batch_hit");
    trace.write(o.outDir + "/trace-fresh_compile-seed" +
                std::to_string(o.seed) + "-round" + std::to_string(round) +
                ".jsonl");
}

} // namespace

int
freshRoundMain(const Options &o, int round, double seconds)
{
    const std::size_t batches = std::max<std::size_t>(
        2, static_cast<std::size_t>(seconds * kRefBlocksPerS / kBatch));
    const FreshPool pool = makeFreshPool(
        mixSeed(o.seed, 1000 + static_cast<std::uint64_t>(round)),
        bodiesFor(batches + 1));
    Trace trace;
    const long rss0 = procStatusKb(getpid(), "VmRSS");
    const long hwm0 = procStatusKb(getpid(), "VmHWM");
    const analysis::InternStats intern0 =
        analysis::InstInterner::statsAllArchs();
    const model::PredictCountersSnapshot pc0 = model::predictCounters();

    BatchCursor cur(pool);
    std::vector<Request> batch;
    std::vector<std::size_t> items;
    cur.next(batch, items);
    const std::int64_t setup0 = nowNs();
    engine::EngineOptions eo;
    eo.numThreads = nproc();
    engine::PredictionEngine eng(eo);
    std::vector<Prediction> first = eng.predictBatch(batch);
    const double setupS = static_cast<double>(nowNs() - setup0) / 1e9;

    std::vector<std::pair<std::size_t, Prediction>> samples;
    for (std::size_t i = 0; i < items.size(); ++i)
        samples.emplace_back(items[i], std::move(first[i]));
    // The traced run does half the batches untraced, half traced: the
    // rate difference is the tracing overhead.
    LoopStats untraced, traced;
    closedLoop(eng, cur, o.trace ? batches / 2 : batches, o.seed, trace,
               untraced, samples);
    if (o.trace) {
        trace.enabled = true;
        closedLoop(eng, cur, batches - batches / 2, o.seed, trace, traced,
                   samples);
    }
    const long hwm1 = procStatusKb(getpid(), "VmHWM");
    const long rss1 = procStatusKb(getpid(), "VmRSS");
    const analysis::InternStats intern1 =
        analysis::InstInterner::statsAllArchs();
    const model::PredictCountersSnapshot pc1 = model::predictCounters();

    LoopStats all = untraced;
    all.blocks += traced.blocks;
    all.timedS += traced.timedS;
    all.latUs.insert(all.latUs.end(), traced.latUs.begin(),
                     traced.latUs.end());
    all.batch.requests += traced.batch.requests;
    all.batch.analysisCacheHits += traced.batch.analysisCacheHits;
    all.batch.predictionCacheHits += traced.batch.predictionCacheHits;

    Gate gate;
    Request req;
    for (const auto &[item, got] : samples) {
        pool.fill(item, req);
        gate.check(got, serialPredict(req));
    }

    std::map<std::string, double> m;
    m["blocks_per_s"] = all.rate();
    m["latency_p50_us"] = percentile(all.latUs, 50);
    m["latency_p99_us"] = percentile(all.latUs, 99);
    m["setup_s"] = setupS;
    m["peak_rss_mib"] =
        static_cast<double>((hwm1 > hwm0 ? hwm1 : rss1) - rss0) / 1024.0;
    m["attempted"] = static_cast<double>(all.blocks + kBatch);
    m["failed"] = static_cast<double>(gate.mismatches);
    m["checked"] = static_cast<double>(gate.checked);
    if (o.trace) {
        const double hits = static_cast<double>(intern1.hits - intern0.hits);
        const double misses =
            static_cast<double>(intern1.misses - intern0.misses);
        m["analysis.intern_hit_rate"] = hits / (hits + misses);
        m["analysis.intern_miss_per_kblock"] =
            misses * 1000.0 / static_cast<double>(all.blocks + kBatch);
        const double requests = static_cast<double>(all.batch.requests);
        m["engine.prediction_hit_rate"] =
            static_cast<double>(all.batch.predictionCacheHits) / requests;
        m["engine.analysis_hit_rate"] =
            static_cast<double>(all.batch.analysisCacheHits) / requests;
        m["facile.precedence_skip_rate"] =
            static_cast<double>(pc1.precedenceShortCircuits -
                                pc0.precedenceShortCircuits) /
            static_cast<double>(pc1.precedenceEvals - pc0.precedenceEvals);
        traceRound(o, round, pool, eng, untraced, traced, trace, m);
    }
    std::string line = "ROUND";
    for (const auto &[k, v] : m) {
        char buf[128];
        std::snprintf(buf, sizeof buf, " %s=%.17g", k.c_str(), v);
        line += buf;
    }
    std::printf("%s\n", line.c_str());
    return 0;
}

Result
runFreshCompile(const Options &o)
{
    Result res;
    std::vector<std::map<std::string, double>> rounds;
    const int nRounds =
        std::max(3, static_cast<int>(std::lround(o.seconds / kRoundSeconds)));
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.6f", o.seconds / nRounds);
    for (int r = 0; r < nRounds; ++r) {
        int status = 0;
        const std::string out = runCapture(
            {o.self, "fresh-round", "--seed", std::to_string(o.seed),
             "--round", std::to_string(r), "--seconds", secs, "--trace",
             o.trace ? "1" : "0", "--out-dir", o.outDir},
            status);
        const std::size_t at = out.rfind("ROUND");
        if (status != 0 || at == std::string::npos)
            throw std::runtime_error("fresh_compile round " +
                                     std::to_string(r) + " failed");
        rounds.push_back(parseKv(out.substr(at)));
    }
    auto med = [&](const std::string &k) {
        std::vector<double> v;
        for (const auto &m : rounds)
            v.push_back(m.at(k));
        return median(v);
    };
    double checked = 0;
    for (const auto &m : rounds) {
        res.attempted += static_cast<std::uint64_t>(m.at("attempted"));
        res.failed += static_cast<std::uint64_t>(m.at("failed"));
        checked += m.at("checked");
    }
    res.correct = res.failed == 0;
    res.info["rounds"] = std::to_string(nRounds);
    res.info["blocks"] = std::to_string(res.attempted);
    res.info["checked_vs_serial"] = std::to_string(static_cast<long>(checked));
    res.info["engine_threads"] = std::to_string(nproc());
    res.info["batch"] = std::to_string(kBatch);

    if (!o.trace) {
        res.add("blocks_per_s", med("blocks_per_s"), "blocks/s");
        res.add("latency_p50_us", med("latency_p50_us"), "us");
        res.add("latency_p99_us", med("latency_p99_us"), "us");
        res.add("setup_s", med("setup_s"), "s");
        res.add("peak_rss_mib", med("peak_rss_mib"), "MiB");
        engine::EngineOptions eo;
        eo.numThreads = nproc();
        engine::PredictionEngine eng(eo);
        const Accuracy acc = scoreAccuracy(
            [&](const std::vector<Request> &r) { return eng.predictBatch(r); });
        res.add("mape_pct", acc.mapePct, "%");
        res.add("kendall_tau", acc.kendall, "tau");
        return res;
    }
    std::map<std::string, double> layers;
    for (const LayerMetric &m : kLayerMetrics)
        if (rounds.front().count(m.name))
            layers[m.name] = med(m.name);
    emitLayers(res, layers);
    return res;
}

} // namespace pb
