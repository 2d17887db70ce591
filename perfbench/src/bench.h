/**
 * @file
 * Shared pieces of the repository benchmark driver: clocks and
 * percentiles, the in-memory span trace, the correctness gate, the
 * seeded input generators, and child-process management.
 *
 * The driver runs one workload per invocation (see perfbench/README.md
 * for the workloads, the metrics and the layer table). Everything it
 * reports is measured from outside the program: spans wrap calls the
 * benchmark makes into the library or over the wire, never code inside
 * it.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "engine/engine.h"
#include "facile/predictor.h"

namespace pb {

using facile::engine::Request;
using facile::model::Payload;
using facile::model::Prediction;

// ---- time and statistics ---------------------------------------------------

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile (p in [0, 100]) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * Percentile @p p of each consecutive window of kWindowSamples values
 * of @p v (in schedule order), then the median over windows: a stall
 * moves the windows it falls in, not the run's figure. A window of 2000
 * leaves 20 samples beyond its p99.
 */
double windowedPercentile(const std::vector<double> &v, double p);
inline constexpr std::size_t kWindowSamples = 2000;

// ---- metrics ---------------------------------------------------------------

/** One named metric with its unit, in output order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result of one workload run (the JSON line the driver prints). */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra facts for the result file: seed, input counts, notes. */
    std::map<std::string, std::string> info;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    std::string json() const;
};

// ---- trace -----------------------------------------------------------------

/**
 * In-memory span store for the traced run. Spans are recorded by the
 * benchmark around its own calls into each layer; self time is a
 * span's duration minus the time its direct children cover. Disabled
 * traces record nothing, so untraced runs pay one branch per call.
 */
class Trace
{
  public:
    struct Span
    {
        std::uint32_t name;
        std::int32_t parent; ///< index of the parent span, -1 for roots
        std::uint64_t request;
        std::int64_t start;
        std::int64_t end;
    };

    bool enabled = false;

    /** Open a span; returns its index (or -1 when disabled). */
    int begin(const char *name, int parent = -1, std::uint64_t request = 0);
    void end(int span);
    /** Record a finished span, e.g. one timed on another thread. */
    void add(const char *name, std::int64_t start, std::int64_t end,
             std::uint64_t request = 0);

    /** Mean self time of spans named @p name, in microseconds. */
    double meanSelfUs(const std::string &name) const;
    /** Median duration of spans named @p name, in microseconds. */
    double medianUs(const std::string &name) const;
    /** Summed duration of spans named @p name, in seconds. */
    double totalS(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the trace is disabled. */
class SpanGuard
{
  public:
    SpanGuard(Trace &t, const char *name, int parent = -1,
              std::uint64_t request = 0)
        : t_(t), id_(t.begin(name, parent, request))
    {}
    ~SpanGuard() { t_.end(id_); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;
    int id() const { return id_; }

  private:
    Trace &t_;
    int id_;
};

// ---- correctness -----------------------------------------------------------

/** Serial reference: bb::analyze + model::predict on this thread. */
Prediction serialPredict(const Request &req);

/**
 * Counts served predictions that differ from the serial reference
 * (eval::samePrediction, bit for bit).
 */
struct Gate
{
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;

    bool check(const Prediction &got, const Prediction &want);
};

/** Digest over the serialized fields of @p preds, in order. */
std::uint64_t digestPredictions(const std::vector<Prediction> &preds);

/**
 * The fixed digest set: serial Payload::Full predictions of the default
 * seed's first suite blocks on every arch and notion. Returns its
 * digest; the caller compares it with kExpectedDigest.
 */
std::uint64_t modelDigest();

/** Digest of modelDigest() at the commit that defined the benchmark. */
inline constexpr std::uint64_t kExpectedDigest = 0x16479747d8e4261aULL;

/**
 * Self-test of the gate: serves a small batch through an engine,
 * corrupts one prediction and one digest input, and returns true when
 * the gate reports exactly those failures.
 */
bool gateSelfTest(std::string &report);

// ---- inputs ----------------------------------------------------------------

/** The documented default workload seed (README: held-out seed 7919). */
inline constexpr std::uint64_t kDefaultSeed = 1;
/** Seed of the accuracy sample and of the digest set (never varied). */
inline constexpr std::uint64_t kFixedSampleSeed = 20231020;

/** Mix a seed with a stream index (splitmix64). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Never-repeating fresh traffic: unique generated bodies crossed with
 * all nine arches and both notions. Item i is body i / 18 on arch
 * (i % 18) / 2, TPL when i is odd; no two items share (arch, block,
 * notion).
 */
struct FreshPool
{
    std::vector<std::vector<std::uint8_t>> bytesU, bytesL;

    std::size_t size() const { return bytesU.size() * 18; }
    void fill(std::size_t i, Request &out) const;
};

/**
 * Generate @p bodies distinct bodies from @p seed (chunked, deduped),
 * none of whose byte strings appears in @p exclude.
 */
FreshPool makeFreshPool(std::uint64_t seed, std::size_t bodies,
                        const std::vector<Request> &exclude = {});

/**
 * A hot set of distinct (arch, block, notion) requests with their serial
 * predictions at both payload depths.
 */
struct HotSet
{
    std::vector<Request> reqs;
    std::vector<Prediction> expectNone;
    std::vector<Prediction> expectFull; ///< empty unless asked for
};

/**
 * The hot set's requests alone: @p n distinct items drawn from a
 * generated suite crossed with all arches and notions, in seeded order.
 * Computes nothing, so a fresh process can rebuild it without touching
 * the interners.
 */
std::vector<Request> makeHotRequests(std::uint64_t seed, std::size_t n);

/** makeHotRequests plus the serial predictions. */
HotSet makeHotSet(std::uint64_t seed, std::size_t n, bool withFull);

/** Zipf(s) sampler over ranks [0, n) from a seeded uniform stream. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s);
    std::size_t operator()(double u) const;

  private:
    std::vector<double> cdf_;
};

/** Accuracy on the fixed SKL sample, both notions. */
struct Accuracy
{
    double mapePct = 0.0;
    double kendall = 0.0;
};

/**
 * Score predictions of the fixed accuracy sample against the simulator
 * reference. @p predict maps the sample's requests (TPU bodies, then
 * TPL bodies) to served predictions; it runs after timing.
 */
Accuracy scoreAccuracy(
    const std::function<std::vector<Prediction>(const std::vector<Request> &)>
        &predict);

// ---- host and processes ----------------------------------------------------

/** CPUs in this process's affinity mask. */
int nproc();

/** VmHWM / VmRSS of a process in KiB (0 when unreadable). */
long procStatusKb(pid_t pid, const char *field);

/**
 * Spawn @p argv with stdout and stderr appended to @p logPath.
 * Children are registered and killed by killChildren() on any exit
 * path of the driver.
 */
pid_t spawnLogged(const std::vector<std::string> &argv,
                  const std::string &logPath);

/** Run @p argv to completion and return its standard output. */
std::string runCapture(const std::vector<std::string> &argv, int &status);

/** SIGINT the child, wait up to @p timeoutMs, then SIGKILL and reap. */
void stopChild(pid_t pid, int timeoutMs = 3000);

/** Stop every registered child that is still running. */
void killChildren();

// ---- per-layer metrics -----------------------------------------------------

/** Every per-layer metric a traced run reports, with its unit, in order. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;

/**
 * Append every per-layer metric to @p res, taking values from @p vals;
 * a metric the workload does not exercise reads 0 (README: "layer table").
 */
void emitLayers(Result &res, const std::map<std::string, double> &vals);

/** Parse "key=value" tokens of a child's result line. */
std::map<std::string, double> parseKv(const std::string &line);

/** Per-invocation settings shared by the workloads. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string self;    ///< path of this executable
    std::string binDir;  ///< where facile_server / facile_lb live
    std::string runDir;  ///< scratch files and sockets (relative path)
    std::string outDir;  ///< trace output
};

Result runFreshCompile(const Options &o);
Result runServeHot(const Options &o);
Result runServeMixedRouted(const Options &o);

/** Child entry of one fresh_compile round (a fresh process each). */
int freshRoundMain(const Options &o, int round, double seconds);

/** Child entry of the cold snapshot probe (fresh interners). */
int snapshotProbeMain(const Options &o, const std::string &path);

} // namespace pb

#endif // PERFBENCH_BENCH_H
