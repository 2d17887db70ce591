/**
 * @file
 * The two serving workloads, driven from this process over Unix
 * sockets: serve_hot (one facile_server warm-started from a v2
 * snapshot, Zipf traffic over a hot set that fits the prediction cache)
 * and serve_mixed_routed (facile_lb over two cold backends, half
 * never-seen blocks, mixed arches and notions, ~5% Payload::Full).
 *
 * Each run: set up several times (spawn, HEALTH Ready, one pass over
 * the hot set) and keep the last instance; a closed-loop pipelined
 * phase for throughput; an open-loop phase at a fixed offered rate for
 * latency, timed from when each request was due. Every hot response is
 * compared bit for bit with serial model::predict, and a seeded sample
 * of the fresh ones.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "analysis/snapshot.h"
#include "bench.h"
#include "bb/basic_block.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/protocol.h"

namespace pb {

using namespace facile;
using server::Client;
using server::ServerStats;

namespace {

/** Fixed shape of one serving workload (recorded in the README). */
struct ServeConfig
{
    const char *name;
    int backends;           ///< facile_server processes
    bool routed;            ///< facile_lb in front of the backends
    int serverThreads;      ///< --threads of each backend
    bool warmSnapshot;      ///< --snapshot-load a v2 image made up front
    std::size_t hotSize;    ///< distinct (arch, block, notion) hot items
    double freshShare;      ///< share of never-seen blocks
    double fullShare;       ///< share asking for Payload::Full
    /**
     * Zipf exponent over the hot set (0: uniform). Routed traffic uses
     * uniform: with skew, which backend owns the few hottest items
     * would depend on the seed and dominate the figures.
     */
    double zipfS;
    int clientThreads;      ///< closed-loop connections, one thread each
    std::size_t batch;      ///< requests per pipelined predictMany
    int openConns;          ///< open-loop connections (one thread)
    double openRate;        ///< open-loop offered rate, requests/s
    /** Closed-loop work per second of --seconds: ~its rate when defined. */
    double closedRefRate;
};

/** Set-ups per run (setup_s is their median); the last two serve. */
constexpr int kSetups = 9;
constexpr std::size_t kServeHotItems = 4096;
constexpr std::uint64_t kSampleEvery = 32;
/** Probe repetitions in the traced run. */
constexpr int kRttProbes = 2000;
constexpr int kEngineProbeBatches = 200;
constexpr std::size_t kEngineProbeBatch = 512;

// ---- traffic ---------------------------------------------------------------

/** Where request j of a phase comes from. */
struct Slot
{
    bool fresh = false;
    std::size_t idx = 0;
    Payload payload = Payload::None;
};

/**
 * The seeded request mix. Phase streams are independent; fresh items
 * are handed out by one counter, so none repeats within a run.
 */
class Traffic
{
  public:
    Traffic(const ServeConfig &cfg, std::uint64_t seed, const HotSet &hot,
            const FreshPool &fresh)
        : cfg_(cfg), seed_(seed), hot_(hot), fresh_(fresh),
          zipf_(hot.reqs.size(), cfg.zipfS)
    {}

    Slot plan(std::uint64_t stream, std::uint64_t j)
    {
        const std::uint64_t h = mixSeed(seed_ ^ (stream << 48), j);
        auto unit = [](std::uint64_t x) {
            return static_cast<double>(x >> 11) * 0x1p-53;
        };
        Slot s;
        if (unit(mixSeed(h, 1)) < cfg_.fullShare)
            s.payload = Payload::Full;
        if (unit(mixSeed(h, 2)) < cfg_.freshShare) {
            s.fresh = true;
            s.idx = nextFresh_.fetch_add(1, std::memory_order_relaxed);
            if (s.idx >= fresh_.size())
                throw std::runtime_error("fresh pool exhausted");
        } else {
            s.idx = zipf_(unit(h));
        }
        return s;
    }

    void fill(const Slot &s, Request &r) const
    {
        if (s.fresh) {
            fresh_.fill(s.idx, r);
        } else {
            const Request &h = hot_.reqs[s.idx];
            r.bytes = h.bytes;
            r.arch = h.arch;
            r.loop = h.loop;
            r.config = h.config;
        }
        r.payload = s.payload;
    }

    /**
     * Check one served prediction: hot ones against the serial
     * reference now, a seeded sample of fresh ones kept for later.
     */
    void check(const Slot &s, const Prediction &got, Gate &gate,
               std::vector<std::pair<Slot, Prediction>> &samples) const
    {
        if (!s.fresh) {
            gate.check(got, s.payload == Payload::Full
                                ? hot_.expectFull[s.idx]
                                : hot_.expectNone[s.idx]);
        } else if (mixSeed(seed_, s.idx) % kSampleEvery == 0) {
            samples.emplace_back(s, got);
        }
    }

    std::size_t freshUsed() const { return nextFresh_.load(); }

  private:
    const ServeConfig &cfg_;
    std::uint64_t seed_;
    const HotSet &hot_;
    const FreshPool &fresh_;
    Zipf zipf_;
    std::atomic<std::size_t> nextFresh_{0};
};

// ---- processes -------------------------------------------------------------

/** One running instance of the workload's processes; stops them. */
struct Deployment
{
    std::vector<pid_t> pids;
    std::vector<std::string> backendSocks;
    std::string front; ///< where clients connect

    Deployment() = default;
    Deployment(Deployment &&) = default;
    Deployment &operator=(Deployment &&) = delete;
    ~Deployment()
    {
        for (auto it = pids.rbegin(); it != pids.rend(); ++it)
            stopChild(*it);
    }

    /** Summed peak RSS of the processes, KiB. */
    long peakRssKb() const
    {
        long kb = 0;
        for (pid_t pid : pids)
            kb += procStatusKb(pid, "VmHWM");
        return kb;
    }
};

/** Connect and ask HEALTH until Ready; throws after @p timeoutMs. */
void
waitReady(const std::string &sock, int timeoutMs = 20000)
{
    const std::int64_t until = nowNs() + std::int64_t{timeoutMs} * 1000000;
    for (;;) {
        try {
            Client c = Client::connectUnix(sock);
            if (c.health() == server::HealthState::Ready)
                return;
        } catch (const std::exception &) {
        }
        if (nowNs() > until)
            throw std::runtime_error("not ready: " + sock);
        usleep(200);
    }
}

Deployment
deploy(const ServeConfig &cfg, const Options &o, int instance,
       const std::string &snapshot)
{
    Deployment d;
    const std::string base = o.runDir + "/i" + std::to_string(instance);
    for (int b = 0; b < cfg.backends; ++b) {
        const std::string sock = base + "b" + std::to_string(b) + ".sock";
        std::vector<std::string> argv = {
            o.binDir + "/facile_server", "--unix", sock, "--threads",
            std::to_string(cfg.serverThreads), "--io-threads", "1"};
        if (!snapshot.empty()) {
            argv.push_back("--snapshot-load");
            argv.push_back(snapshot);
        }
        d.pids.push_back(spawnLogged(argv, o.runDir + "/servers.log"));
        d.backendSocks.push_back(sock);
    }
    for (const std::string &s : d.backendSocks)
        waitReady(s);
    d.front = d.backendSocks.front();
    if (cfg.routed) {
        d.front = base + "lb.sock";
        std::vector<std::string> argv = {o.binDir + "/facile_lb", "--unix",
                                         d.front};
        for (const std::string &s : d.backendSocks) {
            argv.push_back("--backend");
            argv.push_back("unix:" + s);
        }
        d.pids.push_back(spawnLogged(argv, o.runDir + "/servers.log"));
        waitReady(d.front);
    }
    return d;
}

/** Sum of STATS over the given sockets. */
ServerStats
statsOf(const std::vector<std::string> &socks)
{
    ServerStats sum;
    for (const std::string &s : socks) {
        const ServerStats x = Client::connectUnix(s).stats();
        sum.requests += x.requests;
        sum.predictions += x.predictions;
        sum.batches += x.batches;
        sum.analysisCacheHits += x.analysisCacheHits;
        sum.predictionCacheHits += x.predictionCacheHits;
        sum.overloadedQueue += x.overloadedQueue;
        sum.overloadedConn += x.overloadedConn;
        sum.ringFull += x.ringFull;
        sum.epollWakeups += x.epollWakeups;
        sum.routedPredicts += x.routedPredicts;
        sum.backendFailovers += x.backendFailovers;
    }
    return sum;
}

/** STATS of the backends (summed) and of the router, if any. */
struct Snap
{
    ServerStats servers, router;

    std::uint64_t shed() const
    {
        return servers.overloadedQueue + servers.overloadedConn +
               servers.ringFull + router.overloadedQueue;
    }
};

Snap
snap(const ServeConfig &cfg, const Deployment &d)
{
    return {statsOf(d.backendSocks),
            cfg.routed ? statsOf({d.front}) : ServerStats{}};
}

// ---- closed loop -----------------------------------------------------------

struct ClosedOut
{
    std::uint64_t ok = 0, failed = 0;
    double seconds = 0.0;
    std::vector<std::pair<std::int64_t, std::int64_t>> batchSpans;

    /**
     * Sustained rate: the phase cut into ten windows of equally many
     * completed batches, the median of their rates. A transient stall
     * moves one window, not the figure.
     */
    double rate(std::size_t batchSize) const
    {
        std::vector<std::int64_t> ends;
        std::int64_t start = batchSpans.empty() ? 0 : batchSpans[0].first;
        for (const auto &[s, e] : batchSpans) {
            start = std::min(start, s);
            ends.push_back(e);
        }
        std::sort(ends.begin(), ends.end());
        const std::size_t per = ends.size() / 10;
        if (per == 0)
            return static_cast<double>(ok) / seconds;
        std::vector<double> rates;
        for (std::size_t w = 0; w < 10; ++w) {
            const std::int64_t from = w == 0 ? start : ends[w * per - 1];
            const std::int64_t to = ends[(w + 1) * per - 1];
            rates.push_back(static_cast<double>(per * batchSize) * 1e9 /
                            static_cast<double>(to - from));
        }
        return median(std::move(rates));
    }
};

/**
 * Pipelined closed loop: each thread owns one connection and sends the
 * next predictMany batch when the previous one has returned, until it
 * has sent @p batches batches.
 */
ClosedOut
closedLoop(const ServeConfig &cfg, const std::string &front, Traffic &traffic,
           std::size_t batches, std::uint64_t stream, Gate &gate,
           std::vector<std::pair<Slot, Prediction>> &samples)
{
    struct PerThread
    {
        std::uint64_t ok = 0, failed = 0;
        Gate gate;
        std::vector<std::pair<Slot, Prediction>> samples;
        std::vector<std::pair<std::int64_t, std::int64_t>> spans;
        std::string error;
    };
    const int T = cfg.clientThreads;
    std::vector<PerThread> per(static_cast<std::size_t>(T));
    std::vector<Client> clients;
    for (int t = 0; t < T; ++t)
        clients.push_back(Client::connectUnix(front));
    const std::int64_t start = nowNs();
    std::vector<std::thread> threads;
    for (int t = 0; t < T; ++t)
        threads.emplace_back([&, t] {
            PerThread &me = per[static_cast<std::size_t>(t)];
            std::vector<Request> batch(cfg.batch);
            std::vector<Slot> slots(cfg.batch);
            std::vector<Prediction> res;
            std::uint64_t j = static_cast<std::uint64_t>(t);
            std::size_t k = 0;
            try {
                for (; k < batches; ++k) {
                    for (std::size_t i = 0; i < cfg.batch; ++i, j += T) {
                        slots[i] = traffic.plan(stream, j);
                        traffic.fill(slots[i], batch[i]);
                    }
                    const std::int64_t t0 = nowNs();
                    clients[static_cast<std::size_t>(t)].predictManyInto(
                        batch, res);
                    me.spans.emplace_back(t0, nowNs());
                    for (std::size_t i = 0; i < cfg.batch; ++i)
                        traffic.check(slots[i], res[i], me.gate,
                                      me.samples);
                    me.ok += cfg.batch;
                }
            } catch (const std::exception &e) {
                // The refused or lost batch and the ones never sent.
                me.failed += (batches - k) * cfg.batch;
                me.error = e.what();
            }
        });
    for (std::thread &th : threads)
        th.join();
    ClosedOut out;
    out.seconds = static_cast<double>(nowNs() - start) / 1e9;
    for (PerThread &p : per) {
        out.ok += p.ok;
        out.failed += p.failed;
        gate.checked += p.gate.checked;
        gate.mismatches += p.gate.mismatches;
        for (auto &s : p.samples)
            samples.push_back(std::move(s));
        out.batchSpans.insert(out.batchSpans.end(), p.spans.begin(),
                              p.spans.end());
        if (!p.error.empty())
            std::fprintf(stderr, "closed loop: %s\n", p.error.c_str());
    }
    return out;
}

// ---- open loop -------------------------------------------------------------

struct OpenOut
{
    std::vector<double> latUs, lateUs;
    std::uint64_t ok = 0, failed = 0;
    /** Failed replies by wire status (0: undecodable OK payload). */
    std::uint64_t refused[4] = {0, 0, 0, 0};
    std::uint64_t unanswered = 0;
};

int
connectRaw(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        throw std::runtime_error("connect failed: " + path);
    }
    return fd;
}

/**
 * Open loop from one thread over @p conns connections: request j is due
 * at start + j / rate whatever the replies do, and its latency runs from
 * that due time to when its reply was parsed. Unanswered or refused
 * requests count as failed, with the phase length as their latency.
 */
OpenOut
openLoop(const ServeConfig &cfg, const std::string &front, Traffic &traffic,
         double seconds, std::uint64_t stream, Gate &gate,
         std::vector<std::pair<Slot, Prediction>> &samples, Trace &trace)
{
    const int C = cfg.openConns;
    const std::uint64_t N =
        static_cast<std::uint64_t>(cfg.openRate * seconds);
    const double interval = 1e9 / cfg.openRate;
    struct Conn
    {
        int fd = -1;
        std::vector<std::uint8_t> out, in;
        std::size_t outOff = 0, inOff = 0;

        Conn() = default;
        Conn(const Conn &) = delete;
        Conn &operator=(const Conn &) = delete;
        ~Conn()
        {
            if (fd >= 0)
                ::close(fd);
        }
    };
    std::vector<Conn> conns(static_cast<std::size_t>(C));
    for (Conn &c : conns)
        c.fd = connectRaw(front);
    std::vector<Slot> slots(N);
    OpenOut o;
    const double failLatUs = seconds * 1e6;
    o.latUs.assign(N, failLatUs);
    o.lateUs.assign(N, 0.0);
    std::vector<bool> answered(N, false);

    const std::int64_t start = nowNs() + 2000000;
    auto due = [&](std::uint64_t j) {
        return start + static_cast<std::int64_t>(static_cast<double>(j) *
                                                  interval);
    };
    const std::int64_t deadline =
        due(N) + 2000000000LL; // replies may trail the schedule by 2 s
    std::uint64_t next = 0, done = 0;
    Request req;
    Prediction pred;
    std::vector<pollfd> pfds(static_cast<std::size_t>(C));
    std::uint8_t buf[65536];
    while (done < N) {
        std::int64_t now = nowNs();
        if (now > deadline)
            break;
        bool progress = false;
        while (next < N && due(next) <= now) {
            Conn &c = conns[next % static_cast<std::uint64_t>(C)];
            slots[next] = traffic.plan(stream, next);
            traffic.fill(slots[next], req);
            server::appendPredictRequest(c.out, next + 1, req);
            o.lateUs[next] = static_cast<double>(now - due(next)) / 1e3;
            ++next;
            progress = true;
        }
        for (Conn &c : conns) {
            while (c.outOff < c.out.size()) {
                const ssize_t n =
                    ::send(c.fd, c.out.data() + c.outOff,
                           c.out.size() - c.outOff,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
                if (n <= 0) {
                    if (n < 0 && (errno == EAGAIN || errno == EINTR))
                        break;
                    throw std::runtime_error("open loop: send failed");
                }
                c.outOff += static_cast<std::size_t>(n);
                progress = true;
            }
            if (c.outOff == c.out.size()) {
                c.out.clear();
                c.outOff = 0;
            }
            for (;;) {
                const ssize_t n = ::recv(c.fd, buf, sizeof buf,
                                         MSG_DONTWAIT);
                if (n <= 0) {
                    if (n < 0 && (errno == EAGAIN || errno == EINTR))
                        break;
                    throw std::runtime_error("open loop: peer closed");
                }
                c.in.insert(c.in.end(), buf, buf + n);
                progress = true;
            }
            const std::int64_t t = nowNs();
            while (c.in.size() - c.inOff >= server::kResponseHeaderSize) {
                const server::ResponseHeader h =
                    server::parseResponseHeader(c.in.data() + c.inOff);
                const std::size_t frame =
                    server::kResponseHeaderSize + h.len;
                if (c.in.size() - c.inOff < frame)
                    break;
                const std::uint8_t *payload =
                    c.in.data() + c.inOff + server::kResponseHeaderSize;
                c.inOff += frame;
                const std::uint64_t j = h.id - 1;
                if (h.id == 0 || j >= next || answered[j])
                    throw std::runtime_error("open loop: bad reply id");
                answered[j] = true;
                ++done;
                if (h.status !=
                        static_cast<std::uint8_t>(server::Status::Ok) ||
                    !server::decodePredictInto(payload, h.len, pred)) {
                    ++o.failed;
                    ++o.refused[std::min<std::uint8_t>(h.status, 3)];
                    continue;
                }
                traffic.check(slots[j], pred, gate, samples);
                o.latUs[j] = static_cast<double>(t - due(j)) / 1e3;
                if (j % 64 == 0)
                    trace.add("loadgen.request", due(j), t, j + 1);
                ++o.ok;
            }
            if (c.inOff > (1u << 20) || c.inOff == c.in.size()) {
                c.in.erase(c.in.begin(),
                           c.in.begin() +
                               static_cast<std::ptrdiff_t>(c.inOff));
                c.inOff = 0;
            }
        }
        if (progress)
            continue;
        now = nowNs();
        const std::int64_t wait =
            next < N ? due(next) - now : 1000000; // 1 ms idle poll
        // Sleep even when the next request is microseconds away: the
        // timer slack batches sends (late_p99_us shows by how much),
        // and a spinning generator takes a core the server needs.
        if (wait <= 0)
            continue;
        for (int i = 0; i < C; ++i)
            pfds[static_cast<std::size_t>(i)] = {
                conns[static_cast<std::size_t>(i)].fd,
                static_cast<short>(
                    POLLIN |
                    (conns[static_cast<std::size_t>(i)].out.empty()
                         ? 0
                         : POLLOUT)),
                0};
        const timespec ts{0, std::min<std::int64_t>(wait, 1000000)};
        ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    }
    o.failed += N - done; // never answered
    o.unanswered = N - done;
    return o;
}

// ---- traced-run probes -----------------------------------------------------

/** Median round trip of @p n calls of @p fn, recorded as @p span spans. */
template <class Fn>
double
rttProbe(Trace &trace, const char *span, int n, Fn fn)
{
    for (int i = 0; i < n; ++i) {
        SpanGuard g(trace, span, -1, static_cast<std::uint64_t>(i));
        fn(i);
    }
    return trace.medianUs(span);
}

/** Wire codec cost per PREDICT frame, both directions, on the hot set. */
double
codecProbe(Trace &trace, const HotSet &hot)
{
    std::vector<std::uint8_t> reqBuf, respBuf;
    Prediction out;
    std::size_t frames = 0;
    for (int rep = 0; rep < 20; ++rep) {
        SpanGuard g(trace, "server.codec");
        for (std::size_t i = 0; i < hot.reqs.size(); ++i) {
            reqBuf.clear();
            respBuf.clear();
            server::appendPredictRequest(reqBuf, i + 1, hot.reqs[i]);
            const server::RequestHeader h =
                server::parseRequestHeader(reqBuf.data());
            server::appendPredictResponse(respBuf, h.id, hot.expectNone[i]);
            const server::ResponseHeader rh =
                server::parseResponseHeader(respBuf.data());
            server::decodePredictInto(
                respBuf.data() + server::kResponseHeaderSize, rh.len, out);
            ++frames;
        }
    }
    return trace.totalS("server.codec") * 1e9 / static_cast<double>(frames);
}

/** In-process engine probes on all-hit batches of the hot set. */
void
engineProbes(Trace &trace, const HotSet &hot, std::map<std::string, double> &m)
{
    std::vector<Request> batch;
    for (std::size_t i = 0; i < kEngineProbeBatch; ++i)
        batch.push_back(hot.reqs[i % hot.reqs.size()]);
    auto rate = [&](int threads, const char *span) {
        engine::EngineOptions eo;
        eo.numThreads = threads;
        engine::PredictionEngine eng(eo);
        eng.predictBatch(hot.reqs); // warm: every probe request hits
        for (int k = 0; k < kEngineProbeBatches; ++k) {
            SpanGuard g(trace, span);
            eng.predictBatch(batch);
        }
        return static_cast<double>(kEngineProbeBatches * batch.size()) /
               trace.totalS(span);
    };
    const double rateN = rate(nproc(), "engine.batch_hit");
    const double rate1 = rate(1, "engine.batch_hit_1t");
    m["engine.batch_us"] = trace.meanSelfUs("engine.batch_hit");
    m["engine.hit_ns_per_req"] = 1e9 / rateN;
    m["engine.scaling_nt_over_1t"] = rateN / rate1;

    // predictOne on a hit: the engine's share of one served request.
    engine::EngineOptions eo;
    eo.numThreads = nproc();
    engine::PredictionEngine eng(eo);
    eng.predictBatch(hot.reqs);
    m["engine.predict_one_us"] = rttProbe(
        trace, "engine.predict_one", kRttProbes, [&](int i) {
            eng.predictOne(hot.reqs[static_cast<std::size_t>(i) %
                                    hot.reqs.size()]);
        });

    // model::explain on the hot blocks (the explain path of Full asks).
    model::PredictScratch scratch;
    for (std::size_t i = 0; i < std::min<std::size_t>(hot.reqs.size(), 1000);
         ++i) {
        const Request &r = hot.reqs[i];
        const bb::BasicBlock blk = bb::analyze(r.bytes, r.arch);
        Prediction p =
            model::predict(blk, r.loop, r.config, scratch, Payload::None);
        SpanGuard g(trace, "facile.explain", -1, i);
        model::explain(blk, r.config, scratch, p);
    }
    m["facile.explain_us"] = trace.meanSelfUs("facile.explain");
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/**
 * One request in flight: PING (wire and io loop only), PREDICT direct
 * to a backend and, when routed, both again through the router. The
 * admission wait is what PREDICT costs beyond PING and the engine.
 */
void
wireProbes(const ServeConfig &cfg, const Deployment &d, const HotSet &hot,
           Trace &trace, std::map<std::string, double> &layers)
{
    auto hotReq = [&](int i) -> const Request & {
        return hot.reqs[static_cast<std::size_t>(i) % hot.reqs.size()];
    };
    Client direct = Client::connectUnix(d.backendSocks.front());
    const double ping = rttProbe(trace, "server.ping", kRttProbes,
                                 [&](int) { direct.ping(); });
    const double predict =
        rttProbe(trace, "server.predict", kRttProbes, [&](int i) {
            direct.predict(hotReq(i).bytes, hotReq(i).arch, hotReq(i).loop);
        });
    engineProbes(trace, hot, layers);
    const double codecNs = codecProbe(trace, hot);
    const double one = layers["engine.predict_one_us"];
    layers.erase("engine.predict_one_us");
    layers["server.ping_rtt_us"] = ping;
    layers["server.predict_rtt_us"] = predict;
    layers["server.admission_wait_us"] = predict - ping - one;
    layers["server.codec_ns_per_frame"] = codecNs;
    // Layers on the blocking path of one request vs its round trip.
    double blocking = ping + one + codecNs / 1e3, e2e = predict;
    if (cfg.routed) {
        Client lb = Client::connectUnix(d.front);
        const double lbPing = rttProbe(trace, "cluster.ping", kRttProbes,
                                       [&](int) { lb.ping(); });
        const double lbPredict =
            rttProbe(trace, "cluster.predict", kRttProbes, [&](int i) {
                lb.predict(hotReq(i).bytes, hotReq(i).arch, hotReq(i).loop);
            });
        layers["cluster.router_hop_us"] = lbPredict - predict;
        blocking = lbPing + ping + one + 2 * codecNs / 1e3;
        e2e = lbPredict;
    }
    layers["trace.reconcile_ratio"] = blocking / e2e;
}

/** Snapshot bind and first predict, each in a fresh process. */
void
snapshotProbes(const Options &o, const std::string &snapshot,
               std::map<std::string, double> &layers)
{
    std::vector<double> load, first;
    for (int k = 0; k < 3; ++k) {
        int status = 0;
        const std::string out = runCapture(
            {o.self, "snapshot-probe", "--seed", std::to_string(o.seed),
             "--snapshot", snapshot},
            status);
        const std::size_t at = out.rfind("PROBE");
        if (status != 0 || at == std::string::npos)
            throw std::runtime_error("snapshot probe failed");
        const auto kv = parseKv(out.substr(at));
        load.push_back(kv.at("load_ms"));
        first.push_back(kv.at("first_predict_ms"));
    }
    layers["analysis.snapshot_load_ms"] = median(load);
    layers["analysis.snapshot_first_predict_ms"] = median(first);
}

// ---- the workload ----------------------------------------------------------

Result
runServe(const ServeConfig &cfg, const Options &o)
{
    Result res;
    Trace trace;
    std::map<std::string, double> layers;

    // Inputs, all before any timing.
    const HotSet hot = makeHotSet(o.seed, cfg.hotSize, cfg.fullShare > 0);
    // Fixed work: the closed phase sends what it would in half the run at
    // the reference rate, the open phase runs half the run on schedule.
    const std::size_t perBatchRound =
        static_cast<std::size_t>(cfg.clientThreads) * cfg.batch;
    const std::size_t closedBatches = std::max<std::size_t>(
        2, static_cast<std::size_t>(o.seconds / 2 * cfg.closedRefRate /
                                    static_cast<double>(perBatchRound)));
    const double requests =
        static_cast<double>(closedBatches * perBatchRound) +
        cfg.openRate * o.seconds / 2;
    const std::size_t freshBodies = static_cast<std::size_t>(
        requests * cfg.freshShare * 1.1 / 18.0 + 64);
    const FreshPool fresh =
        makeFreshPool(mixSeed(o.seed, 77), freshBodies, hot.reqs);
    Traffic traffic(cfg, o.seed, hot, fresh);
    res.info["hot_items"] = std::to_string(hot.reqs.size());
    res.info["fresh_bodies"] = std::to_string(fresh.bytesU.size());

    std::string snapshot;
    if (cfg.warmSnapshot) {
        snapshot = o.runDir + "/hot.snap";
        engine::PredictionEngine eng;
        eng.predictBatch(hot.reqs);
        analysis::SnapshotOptions so;
        so.engine = &eng;
        so.generations = 1;
        const std::int64_t t0 = nowNs();
        analysis::saveSnapshot(snapshot, so);
        layers["analysis.snapshot_save_ms"] = ms(nowNs() - t0);
    }

    Gate gate;
    std::vector<std::pair<Slot, Prediction>> samples;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setups;
    std::vector<Prediction> pass;
    auto setUp = [&](int instance) {
        const std::int64_t t0 = nowNs();
        Deployment d = deploy(cfg, o, instance, snapshot);
        Client::connectUnix(d.front).predictManyInto(hot.reqs, pass);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        for (std::size_t i = 0; i < hot.reqs.size(); ++i)
            gate.check(pass[i], hot.expectNone[i]);
        attempted += hot.reqs.size();
        return d;
    };
    // Set up several times; the last two deployments serve the closed
    // and the open phase, so each phase starts from the set-up state and
    // the memory fresh traffic leaves behind stays per phase.
    for (int s = 0; s < kSetups - 2; ++s)
        setUp(s);
    long rssKb = 0;

    // Closed loop: throughput. The traced run splits it into an
    // untraced and a traced half; the rate difference is the tracing
    // overhead.
    ClosedOut closed;
    Snap c0, c1;
    {
        Deployment d = setUp(kSetups - 2);
        c0 = snap(cfg, d);
        if (o.trace) {
            ClosedOut a = closedLoop(cfg, d.front, traffic, closedBatches / 2,
                                     1, gate, samples);
            trace.enabled = true;
            ClosedOut b =
                closedLoop(cfg, d.front, traffic,
                           closedBatches - closedBatches / 2, 3, gate, samples);
            for (const auto &[st, en] : b.batchSpans)
                trace.add("client.batch", st, en);
            const double ra = a.rate(cfg.batch), rb = b.rate(cfg.batch);
            layers["trace.overhead_pct"] = (ra - rb) / ra * 100.0;
            closed.ok = a.ok + b.ok;
            closed.failed = a.failed + b.failed;
            closed.seconds = a.seconds + b.seconds;
        } else {
            closed = closedLoop(cfg, d.front, traffic, closedBatches, 1, gate,
                                samples);
        }
        c1 = snap(cfg, d);
        rssKb = d.peakRssKb();
    }

    // Open loop: latency at the fixed offered rate.
    OpenOut open;
    Snap p0, p1;
    Accuracy acc;
    {
        Deployment d = setUp(kSetups - 1);
        p0 = snap(cfg, d);
        open = openLoop(cfg, d.front, traffic, o.seconds / 2, 2, gate, samples,
                        trace);
        p1 = snap(cfg, d);
        // Accuracy of what this path serves, after timing.
        acc = scoreAccuracy([&](const std::vector<Request> &r) {
            return Client::connectUnix(d.front).predictMany(r);
        });
        if (o.trace)
            wireProbes(cfg, d, hot, trace, layers);
    }
    attempted += closed.ok + closed.failed + open.ok + open.failed;
    failed += closed.failed + open.failed;
    res.info["closed_requests"] = std::to_string(closed.ok);
    res.info["open_requests"] = std::to_string(open.ok + open.failed);
    res.info["open_failed"] =
        "bad_request=" + std::to_string(open.refused[1]) +
        " overloaded=" + std::to_string(open.refused[2]) +
        " draining=" + std::to_string(open.refused[3]) +
        " undecodable=" + std::to_string(open.refused[0]) +
        " unanswered=" + std::to_string(open.unanswered);
    res.info["closed_failed"] = std::to_string(closed.failed);
    res.info["open_rate_per_s"] = std::to_string(cfg.openRate);
    res.info["fresh_used"] = std::to_string(traffic.freshUsed());

    if (!o.trace) {
        res.add("blocks_per_s", closed.rate(cfg.batch),
                "blocks/s");
        res.add("latency_p50_us", windowedPercentile(open.latUs, 50), "us");
        res.add("latency_p99_us", windowedPercentile(open.latUs, 99), "us");
        res.add("setup_s", median(setups), "s");
        res.add("peak_rss_mib", static_cast<double>(rssKb) / 1024.0, "MiB");
        res.add("mape_pct", acc.mapePct, "%");
        res.add("kendall_tau", acc.kendall, "tau");
    } else {
        const ServerStats &a = c0.servers, &b = c1.servers;
        const double dPred = static_cast<double>(b.predictions - a.predictions);
        layers["engine.prediction_hit_rate"] =
            static_cast<double>(b.predictionCacheHits - a.predictionCacheHits) /
            dPred;
        layers["engine.analysis_hit_rate"] =
            static_cast<double>(b.analysisCacheHits - a.analysisCacheHits) /
            dPred;
        layers["server.batch_size_mean"] =
            dPred / static_cast<double>(b.batches - a.batches);
        layers["server.wakeups_per_kreq"] =
            static_cast<double>(b.epollWakeups - a.epollWakeups) * 1000.0 /
            static_cast<double>(b.requests - a.requests);
        layers["server.shed"] =
            static_cast<double>(c1.shed() - c0.shed() + p1.shed() - p0.shed());
        layers["loadgen.late_p99_us"] = percentile(open.lateUs, 99);
        if (cfg.routed) {
            layers["cluster.routed_predicts"] = static_cast<double>(
                c1.router.routedPredicts - c0.router.routedPredicts +
                p1.router.routedPredicts - p0.router.routedPredicts);
            layers["cluster.failovers"] = static_cast<double>(
                c1.router.backendFailovers - c0.router.backendFailovers +
                p1.router.backendFailovers - p0.router.backendFailovers);
        }
        if (cfg.warmSnapshot)
            snapshotProbes(o, snapshot, layers);
    }

    // Fresh sample: serial reference after timing.
    Request req;
    for (const auto &[slot, got] : samples) {
        traffic.fill(slot, req);
        gate.check(got, serialPredict(req));
    }
    res.info["checked_vs_serial"] = std::to_string(gate.checked);
    res.attempted = attempted;
    res.failed = failed + gate.mismatches;
    if (gate.mismatches > 0)
        res.correct = false;
    if (o.trace) {
        trace.write(o.outDir + "/trace-" + cfg.name + "-seed" +
                    std::to_string(o.seed) + ".jsonl");
        emitLayers(res, layers);
    }
    return res;
}

} // namespace

int
snapshotProbeMain(const Options &o, const std::string &path)
{
    const std::vector<Request> hot = makeHotRequests(o.seed, kServeHotItems);
    engine::PredictionEngine eng;
    analysis::SnapshotOptions so;
    so.engine = &eng;
    so.generations = 1;
    const std::int64_t t0 = nowNs();
    analysis::loadSnapshot(path, so);
    const std::int64_t t1 = nowNs();
    eng.predictOne(hot.front());
    const std::int64_t t2 = nowNs();
    std::printf("PROBE load_ms=%.9f first_predict_ms=%.9f\n", ms(t1 - t0),
                ms(t2 - t1));
    return 0;
}

Result
runServeHot(const Options &o)
{
    // Open rate ~0.16 of the closed-loop rate (~1.3M/s on 4 cores): at
    // 0.5 the tail swings run to run, and a stall sheds requests.
    static const ServeConfig cfg = {.name = "serve_hot",
                                    .backends = 1,
                                    .routed = false,
                                    .serverThreads = 2,
                                    .warmSnapshot = true,
                                    .hotSize = kServeHotItems,
                                    .freshShare = 0.0,
                                    .fullShare = 0.0,
                                    .zipfS = 0.99,
                                    .clientThreads = 2,
                                    .batch = 1024,
                                    .openConns = 4,
                                    .openRate = 200000.0,
                                    .closedRefRate = 1450000.0};
    return runServe(cfg, o);
}

Result
runServeMixedRouted(const Options &o)
{
    // Fresh traffic grows each backend by ~2 KiB per block, so the work
    // per run is held to ~300k requests per phase (~0.5 GiB per phase).
    static const ServeConfig cfg = {.name = "serve_mixed_routed",
                                    .backends = 2,
                                    .routed = true,
                                    .serverThreads = 1,
                                    .warmSnapshot = false,
                                    .hotSize = 2048,
                                    .freshShare = 0.5,
                                    .fullShare = 0.05,
                                    .zipfS = 0.0,
                                    .clientThreads = 2,
                                    .batch = 256,
                                    .openConns = 4,
                                    .openRate = 30000.0,
                                    .closedRefRate = 30000.0};
    return runServe(cfg, o);
}

} // namespace pb
