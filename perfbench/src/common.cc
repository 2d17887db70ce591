#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sched.h>
#include <spawn.h>
#include <string_view>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_set>

#include "bench.h"
#include "bhive/generator.h"
#include "corpus/sections.h"
#include "eval/harness.h"
#include "facile/component.h"
#include "isa/decoder.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "uarch/config.h"

extern char **environ;

namespace pb {

using namespace facile;

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

double
windowedPercentile(const std::vector<double> &v, double p)
{
    const std::size_t windows = v.size() / kWindowSamples;
    if (windows < 2)
        return percentile(v, p);
    std::vector<double> per;
    for (std::size_t k = 0; k < windows; ++k) {
        const auto first =
            v.begin() + static_cast<std::ptrdiff_t>(k * kWindowSamples);
        per.push_back(percentile(
            std::vector<double>(
                first, first + static_cast<std::ptrdiff_t>(kWindowSamples)),
            p));
    }
    return median(std::move(per));
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

std::string
Result::json() const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += jsonString(metrics[i].name) + ": {\"value\": " +
             jsonNumber(metrics[i].value) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    s += "}, \"info\": {";
    bool first = true;
    for (const auto &[k, v] : info) {
        if (!first)
            s += ", ";
        first = false;
        s += jsonString(k) + ": " + jsonString(v);
    }
    return s + "}}";
}

// ---- trace -----------------------------------------------------------------

int
Trace::begin(const char *name, int parent, std::uint64_t request)
{
    if (!enabled)
        return -1;
    std::uint32_t id = 0;
    while (id < names_.size() && names_[id] != name)
        ++id;
    if (id == names_.size())
        names_.emplace_back(name);
    spans_.push_back({id, parent, request, nowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Trace::end(int span)
{
    if (span >= 0)
        spans_[static_cast<std::size_t>(span)].end = nowNs();
}

void
Trace::add(const char *name, std::int64_t start, std::int64_t end,
           std::uint64_t request)
{
    const int id = begin(name, -1, request);
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].start = start;
    spans_[static_cast<std::size_t>(id)].end = end;
}

namespace {

/** Durations of every span and of the children under each span. */
struct SpanTimes
{
    std::vector<double> dur, childSum;
};

SpanTimes
spanTimes(const std::vector<Trace::Span> &spans)
{
    SpanTimes t;
    t.dur.resize(spans.size());
    t.childSum.assign(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        t.dur[i] = static_cast<double>(spans[i].end - spans[i].start);
        if (spans[i].parent >= 0)
            t.childSum[static_cast<std::size_t>(spans[i].parent)] += t.dur[i];
    }
    return t;
}

} // namespace

double
Trace::meanSelfUs(const std::string &name) const
{
    const SpanTimes t = spanTimes(spans_);
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (names_[spans_[i].name] == name) {
            sum += t.dur[i] - t.childSum[i];
            ++n;
        }
    return n ? sum / static_cast<double>(n) / 1e3 : 0.0;
}

double
Trace::medianUs(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (names_[s.name] == name)
            d.push_back(static_cast<double>(s.end - s.start) / 1e3);
    return median(std::move(d));
}

double
Trace::totalS(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (names_[s.name] == name)
            sum += static_cast<double>(s.end - s.start);
    return sum / 1e9;
}

void
Trace::write(const std::string &path) const
{
    std::ofstream f(path);
    for (const Span &s : spans_)
        f << "{\"name\": " << jsonString(names_[s.name])
          << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}\n";
}

// ---- correctness -----------------------------------------------------------

Prediction
serialPredict(const Request &req)
{
    thread_local model::PredictScratch scratch;
    try {
        const bb::BasicBlock blk = bb::analyze(req.bytes, req.arch);
        return model::predict(blk, req.loop, req.config, scratch,
                              req.payload);
    } catch (const isa::DecodeError &) {
        return Prediction{}; // the engine's crash protocol
    }
}

bool
Gate::check(const Prediction &got, const Prediction &want)
{
    ++checked;
    if (eval::samePrediction(got, want))
        return true;
    ++mismatches;
    return false;
}

std::uint64_t
digestPredictions(const std::vector<Prediction> &preds)
{
    std::vector<std::uint8_t> buf;
    auto put = [&](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf.insert(buf.end(), b, b + n);
    };
    for (const Prediction &p : preds) {
        put(&p.throughput, sizeof p.throughput);
        put(p.componentValue.data(),
            sizeof(double) * p.componentValue.size());
        put(&p.primaryBottleneck, sizeof p.primaryBottleneck);
        for (model::Component c : p.bottlenecks)
            put(&c, sizeof c);
        put(p.criticalChain.data(), sizeof(int) * p.criticalChain.size());
        put(&p.contendedPorts, sizeof p.contendedPorts);
        put(p.contendingInsts.data(),
            sizeof(int) * p.contendingInsts.size());
    }
    return corpus::xxh64(buf.data(), buf.size());
}

namespace {

std::vector<Request>
digestRequests()
{
    std::vector<Request> reqs;
    for (const bhive::Benchmark &b :
         bhive::generateSuite(kFixedSampleSeed, 2))
        for (uarch::UArch a : uarch::allUArchs())
            for (bool loop : {false, true}) {
                Request r;
                r.bytes = loop ? b.bytesL : b.bytesU;
                r.arch = a;
                r.loop = loop;
                r.payload = Payload::Full;
                reqs.push_back(std::move(r));
            }
    return reqs;
}

} // namespace

std::uint64_t
modelDigest()
{
    std::vector<Prediction> preds;
    for (const Request &r : digestRequests())
        preds.push_back(serialPredict(r));
    return digestPredictions(preds);
}

bool
gateSelfTest(std::string &report)
{
    std::vector<Request> reqs = digestRequests();
    reqs.resize(64);
    engine::EngineOptions eo;
    eo.numThreads = 2;
    engine::PredictionEngine eng(eo);
    std::vector<Prediction> served = eng.predictBatch(reqs);
    std::vector<Prediction> want;
    for (const Request &r : reqs)
        want.push_back(serialPredict(r));

    Gate clean;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        clean.check(served[i], want[i]);

    // Corrupt one prediction by a single bit of its throughput.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &served[17].throughput, sizeof bits);
    bits ^= 1;
    std::memcpy(&served[17].throughput, &bits, sizeof bits);
    Gate dirty;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        dirty.check(served[i], want[i]);
    const bool digestTrips =
        digestPredictions(served) != digestPredictions(want);

    const bool ok = clean.mismatches == 0 && dirty.mismatches == 1 &&
                    digestTrips;
    report = "gate self-test: clean batch " +
             std::to_string(clean.mismatches) +
             " mismatches, one corrupted bit -> " +
             std::to_string(dirty.mismatches) + " mismatch, digest " +
             (digestTrips ? "changed" : "UNCHANGED") +
             (ok ? " (ok)" : " (FAILED)");
    return ok;
}

// ---- inputs ----------------------------------------------------------------

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
FreshPool::fill(std::size_t i, Request &out) const
{
    const std::size_t body = i / 18, combo = i % 18;
    out.loop = combo % 2 == 1;
    out.bytes = out.loop ? bytesL[body] : bytesU[body];
    out.arch = uarch::allUArchs()[combo / 2];
    out.config = {};
    out.payload = Payload::None;
}

namespace {

std::string
key(const std::vector<std::uint8_t> &b)
{
    return std::string(b.begin(), b.end());
}

} // namespace

FreshPool
makeFreshPool(std::uint64_t seed, std::size_t bodies,
              const std::vector<Request> &exclude)
{
    std::unordered_set<std::string> seen;
    for (const Request &r : exclude)
        seen.insert(key(r.bytes));
    FreshPool pool;
    pool.bytesU.reserve(bodies);
    pool.bytesL.reserve(bodies);
    // Small chunks keep the generator's own peak memory negligible next
    // to what the program under test allocates.
    for (std::uint64_t chunk = 0; pool.bytesU.size() < bodies; ++chunk)
        for (bhive::Benchmark &b :
             bhive::generateSuite(mixSeed(seed, chunk), 100)) {
            if (pool.bytesU.size() == bodies)
                break;
            if (seen.count(key(b.bytesU)) || seen.count(key(b.bytesL)))
                continue;
            seen.insert(key(b.bytesU));
            seen.insert(key(b.bytesL));
            pool.bytesU.push_back(std::move(b.bytesU));
            pool.bytesL.push_back(std::move(b.bytesL));
        }
    return pool;
}

std::vector<Request>
makeHotRequests(std::uint64_t seed, std::size_t n)
{
    // Two random (arch, notion) combos per body: many distinct blocks,
    // so the set's cost varies little from seed to seed.
    std::vector<Request> all;
    std::unordered_set<std::string> seen;
    Rng rng(mixSeed(seed, 0x5f));
    // Short blocks repeat across bodies; a third more covers the dedup.
    const int perCategory =
        static_cast<int>(n * 2 / 3 / bhive::kNumCategories) + 2;
    for (const bhive::Benchmark &b :
         bhive::generateSuite(mixSeed(seed, 0xb07), perCategory))
        for (int pick = 0; pick < 2; ++pick) {
            const bool loop = rng.below(2) == 1;
            const uarch::UArch a = uarch::allUArchs()[rng.below(9)];
            const auto &bytes = loop ? b.bytesL : b.bytesU;
            std::string k = key(bytes);
            k += static_cast<char>(a);
            k += static_cast<char>(loop);
            if (!seen.insert(k).second)
                continue;
            Request r;
            r.bytes = bytes;
            r.arch = a;
            r.loop = loop;
            all.push_back(std::move(r));
        }
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1],
                  all[rng.below(static_cast<std::uint32_t>(i))]);
    if (all.size() > n)
        all.resize(n);
    return all;
}

HotSet
makeHotSet(std::uint64_t seed, std::size_t n, bool withFull)
{
    HotSet h;
    h.reqs = makeHotRequests(seed, n);
    for (const Request &r : h.reqs)
        h.expectNone.push_back(serialPredict(r));
    if (withFull)
        for (Request r : h.reqs) {
            r.payload = Payload::Full;
            h.expectFull.push_back(serialPredict(r));
        }
    return h;
}

Zipf::Zipf(std::size_t n, double s)
{
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        cdf_[i] = sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    for (double &c : cdf_)
        c /= sum;
}

std::size_t
Zipf::operator()(double u) const
{
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
}

Accuracy
scoreAccuracy(
    const std::function<std::vector<Prediction>(const std::vector<Request> &)>
        &predict)
{
    static const std::vector<bhive::Benchmark> sample =
        bhive::generateSuite(kFixedSampleSeed + 1, 20);
    static const eval::ArchSuite suite =
        eval::prepare(uarch::UArch::SKL, sample);
    std::vector<Request> reqs;
    for (bool loop : {false, true})
        for (const bhive::Benchmark *b : suite.benchmarks) {
            Request r;
            r.bytes = loop ? b->bytesL : b->bytesU;
            r.arch = uarch::UArch::SKL;
            r.loop = loop;
            reqs.push_back(std::move(r));
        }
    const std::vector<Prediction> preds = predict(reqs);
    std::vector<double> measured = suite.measuredU, predicted;
    measured.insert(measured.end(), suite.measuredL.begin(),
                    suite.measuredL.end());
    for (const Prediction &p : preds)
        predicted.push_back(round2(p.throughput));
    const eval::Accuracy a = eval::score(measured, predicted);
    return {a.mape * 100.0, a.kendall};
}

// ---- host and processes ----------------------------------------------------

int
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

long
procStatusKb(pid_t pid, const char *field)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    const std::string_view want(field);
    std::string line;
    while (std::getline(f, line))
        if (line.compare(0, want.size(), want) == 0 &&
            line.size() > want.size() && line[want.size()] == ':')
            return std::atol(line.c_str() + want.size() + 1);
    return 0;
}

namespace {

std::vector<pid_t> &
children()
{
    static std::vector<pid_t> pids;
    return pids;
}

pid_t
spawnWith(const std::vector<std::string> &argv,
          posix_spawn_file_actions_t *fa)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, args[0], fa, nullptr, args.data(), environ);
    if (rc != 0)
        throw std::runtime_error("spawn " + argv[0] + ": " +
                                 std::strerror(rc));
    children().push_back(pid);
    return pid;
}

void
forget(pid_t pid)
{
    auto &c = children();
    c.erase(std::remove(c.begin(), c.end(), pid), c.end());
}

} // namespace

pid_t
spawnLogged(const std::vector<std::string> &argv, const std::string &logPath)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    try {
        const pid_t pid = spawnWith(argv, &fa);
        posix_spawn_file_actions_destroy(&fa);
        return pid;
    } catch (...) {
        posix_spawn_file_actions_destroy(&fa);
        throw;
    }
}

std::string
runCapture(const std::vector<std::string> &argv, int &status)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    pid_t pid = -1;
    try {
        pid = spawnWith(argv, &fa);
    } catch (...) {
        posix_spawn_file_actions_destroy(&fa);
        close(fds[0]);
        close(fds[1]);
        throw;
    }
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    forget(pid);
    return out;
}

void
stopChild(pid_t pid, int timeoutMs)
{
    kill(pid, SIGINT);
    int status = 0;
    for (int waited = 0; waited < timeoutMs; ++waited) {
        if (waitpid(pid, &status, WNOHANG) == pid) {
            forget(pid);
            return;
        }
        usleep(1000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    forget(pid);
}

void
killChildren()
{
    for (pid_t pid : children()) {
        kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
    }
    children().clear();
}

// ---- per-layer metrics -----------------------------------------------------

const std::vector<LayerMetric> kLayerMetrics = {
    {"analysis.intern_hit_rate", "ratio"},
    {"analysis.intern_miss_per_kblock", "count/kblock"},
    {"bb.analyze_us", "us"},
    {"facile.predict_us", "us"},
    {"facile.predec_us", "us"},
    {"facile.dec_us", "us"},
    {"facile.dsb_us", "us"},
    {"facile.lsd_us", "us"},
    {"facile.issue_us", "us"},
    {"facile.ports_us", "us"},
    {"facile.precedence_us", "us"},
    {"facile.unattributed_us", "us"},
    {"facile.precedence_skip_rate", "ratio"},
    {"facile.explain_us", "us"},
    {"engine.batch_us", "us"},
    {"engine.hit_ns_per_req", "ns"},
    {"engine.scaling_nt_over_1t", "ratio"},
    {"engine.prediction_hit_rate", "ratio"},
    {"engine.analysis_hit_rate", "ratio"},
    {"server.ping_rtt_us", "us"},
    {"server.predict_rtt_us", "us"},
    {"server.admission_wait_us", "us"},
    {"server.codec_ns_per_frame", "ns"},
    {"server.batch_size_mean", "count"},
    {"server.wakeups_per_kreq", "count/kreq"},
    {"server.shed", "count"},
    {"cluster.router_hop_us", "us"},
    {"cluster.routed_predicts", "count"},
    {"cluster.failovers", "count"},
    {"analysis.snapshot_load_ms", "ms"},
    {"analysis.snapshot_first_predict_ms", "ms"},
    {"analysis.snapshot_save_ms", "ms"},
    {"loadgen.late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.reconcile_ratio", "ratio"},
};

void
emitLayers(Result &res, const std::map<std::string, double> &vals)
{
    for (const LayerMetric &m : kLayerMetrics) {
        const auto it = vals.find(m.name);
        res.add(m.name, it == vals.end() ? 0.0 : it->second, m.unit);
    }
}

std::map<std::string, double>
parseKv(const std::string &line)
{
    std::map<std::string, double> kv;
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t end = line.find_first_of(" \n", pos);
        if (end == std::string::npos)
            end = line.size();
        const std::string tok = line.substr(pos, end - pos);
        const std::size_t eq = tok.find('=');
        if (eq != std::string::npos)
            kv[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
        pos = end + 1;
    }
    return kv;
}

} // namespace pb
