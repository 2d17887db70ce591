/**
 * @file
 * Cluster-mode tests: rendezvous routing properties and the facile_lb
 * router data plane (bit-identity through backends, id isolation
 * across clients, failover on backend death with zero caller-visible
 * failures through a plain Client — no client-side retry).
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bhive/generator.h"
#include "cluster/membership.h"
#include "cluster/router.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/server.h"

namespace facile::cluster {
namespace {

using model::Prediction;

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(7777, 2);
    return s;
}

std::string
freshUnixPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/facile_cluster_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
}

::testing::AssertionResult
bitIdentical(const Prediction &a, const Prediction &b)
{
    if (std::memcmp(&a.throughput, &b.throughput, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "throughput " << a.throughput << " vs " << b.throughput;
    if (std::memcmp(a.componentValue.data(), b.componentValue.data(),
                    sizeof(double) * a.componentValue.size()) != 0)
        return ::testing::AssertionFailure() << "componentValue differs";
    if (a.bottlenecks != b.bottlenecks)
        return ::testing::AssertionFailure() << "bottlenecks differ";
    return ::testing::AssertionSuccess();
}

Prediction
serialPredict(const engine::Request &r)
{
    model::PredictScratch scratch;
    return model::predict(bb::analyze(r.bytes, r.arch), r.loop, r.config,
                          scratch, r.payload);
}

/** N in-process backends, each with its own engine, on unix sockets. */
struct Fleet
{
    std::vector<std::unique_ptr<engine::PredictionEngine>> engines;
    std::vector<std::unique_ptr<server::PredictionServer>> servers;
    std::vector<Endpoint> endpoints;

    explicit Fleet(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            engines.push_back(std::make_unique<engine::PredictionEngine>(
                engine::EngineOptions{.numThreads = 2}));
            server::ServerOptions o;
            o.unixPath = freshUnixPath();
            o.engine = engines.back().get();
            servers.push_back(
                std::make_unique<server::PredictionServer>(o));
            servers.back()->start();
            endpoints.push_back(parseEndpoint("unix:" + o.unixPath));
        }
    }

    ~Fleet()
    {
        for (auto &s : servers)
            s->stop();
    }
};

// ---- membership ------------------------------------------------------------

TEST(Membership, ParseEndpoint)
{
    Endpoint u = parseEndpoint("unix:/tmp/a.sock");
    EXPECT_TRUE(u.isUnix());
    EXPECT_EQ(u.path, "/tmp/a.sock");
    EXPECT_EQ(u.label(), "unix:/tmp/a.sock");

    Endpoint t = parseEndpoint("127.0.0.1:9000");
    EXPECT_FALSE(t.isUnix());
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 9000);
    EXPECT_EQ(t.label(), "127.0.0.1:9000");

    EXPECT_THROW(parseEndpoint("unix:"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("nocolon"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:notaport"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:70000"), std::invalid_argument);
}

TEST(Membership, RouteKeyIsContentAddressed)
{
    const std::vector<std::uint8_t> a = {0x90, 0x90};
    const std::vector<std::uint8_t> b = {0x90, 0x91};
    EXPECT_EQ(routeKey(1, a.data(), a.size()),
              routeKey(1, a.data(), a.size()));
    EXPECT_NE(routeKey(1, a.data(), a.size()),
              routeKey(2, a.data(), a.size()));
    EXPECT_NE(routeKey(1, a.data(), a.size()),
              routeKey(1, b.data(), b.size()));
}

TEST(Membership, RendezvousMovesOnlyTheDeadBackendsKeys)
{
    std::vector<Endpoint> eps;
    for (int i = 0; i < 4; ++i)
        eps.push_back(parseEndpoint("unix:/tmp/backend" +
                                    std::to_string(i) + ".sock"));
    BackendPool pool(eps);

    constexpr std::size_t kKeys = 10000;
    std::vector<std::size_t> before(kKeys);
    std::size_t onDead = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
        before[k] = pool.pick(k * 0x9e3779b97f4a7c15ULL);
        ASSERT_NE(before[k], BackendPool::npos);
        if (before[k] == 2)
            ++onDead;
    }
    // Sanity: the key space is actually spread (each backend owns a
    // nontrivial share).
    EXPECT_GT(onDead, kKeys / 10);

    pool.setState(2, BackendState::Down);
    for (std::size_t k = 0; k < kKeys; ++k) {
        const std::size_t after = pool.pick(k * 0x9e3779b97f4a7c15ULL);
        ASSERT_NE(after, BackendPool::npos);
        if (before[k] != 2)
            EXPECT_EQ(after, before[k]) << "key " << k << " moved "
                                           "although its backend lives";
        else
            EXPECT_NE(after, 2u);
    }

    // Same endpoints, fresh pool: the assignment is a pure function of
    // the labels, so a router restart reshuffles nothing.
    BackendPool again(eps);
    for (std::size_t k = 0; k < kKeys; ++k)
        EXPECT_EQ(again.pick(k * 0x9e3779b97f4a7c15ULL), before[k]);
}

// ---- router data plane -----------------------------------------------------

TEST(Router, BitIdenticalThroughTwoBackends)
{
    Fleet fleet(2);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        for (uarch::UArch arch : uarch::allUArchs()) {
            reqs.push_back({b.bytesU, arch, false, {}});
            reqs.push_back({b.bytesL, arch, true, {}});
        }

    auto client = server::Client::connectUnix(ro.unixPath);
    auto out = client.predictMany(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i;

    const server::ServerStats rs = router.stats();
    EXPECT_EQ(rs.routedPredicts, reqs.size());
    EXPECT_EQ(rs.backendFailovers, 0u);

    // The shards really are shards: both backends served some of the
    // traffic, and together they served all of it.
    std::uint64_t served = 0;
    for (const auto &ep : fleet.endpoints) {
        auto bc = server::Client::connectUnix(ep.path);
        const std::uint64_t p = bc.stats().predictions;
        EXPECT_GT(p, 0u) << ep.label();
        served += p;
    }
    EXPECT_EQ(served, reqs.size());
    router.stop();
}

TEST(Router, ControlOpsAnsweredLocally)
{
    Fleet fleet(1);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    auto client = server::Client::connectUnix(ro.unixPath);
    client.ping();
    EXPECT_EQ(client.health(), server::HealthState::Ready);
    // Snapshot administration addresses a specific replica; the router
    // refuses it rather than forwarding somewhere arbitrary.
    EXPECT_FALSE(client.snapshot());
    const server::ServerStats s = client.stats();
    EXPECT_GE(s.requests, 3u);
    EXPECT_EQ(s.predictions, 0u); // the router predicts nothing itself
    router.stop();
}

TEST(Router, NoCrossClientIdLeakage)
{
    Fleet fleet(2);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    // Two clients pipeline concurrently. Both number their requests
    // from 1 (fresh Client state), so every id collides on the shared
    // backend pipes; each must still get exactly its own answers.
    auto work = [&](int salt) {
        std::vector<engine::Request> reqs;
        for (const auto &b : suite()) {
            engine::Request r{b.bytesL, uarch::UArch::SKL, true, {}};
            r.arch = salt ? uarch::UArch::ICL : uarch::UArch::SKL;
            reqs.push_back(std::move(r));
        }
        auto client = server::Client::connectUnix(ro.unixPath);
        for (int round = 0; round < 20; ++round) {
            auto out = client.predictMany(reqs);
            ASSERT_EQ(out.size(), reqs.size());
            for (std::size_t i = 0; i < reqs.size(); ++i)
                ASSERT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
                    << "client " << salt << " round " << round
                    << " request " << i;
        }
    };
    std::thread t1([&] { work(0); });
    std::thread t2([&] { work(1); });
    t1.join();
    t2.join();
    router.stop();
}

TEST(Router, BackendDeathFailsOverWithZeroCallerVisibleFailures)
{
    // Three real backends plus a "blackhole": a socket that accepts
    // the router's connection and swallows forwarded frames without
    // ever answering. Requests routed to it are guaranteed to be
    // pending when its connection is cut, so the failover replay path
    // runs deterministically (killing a real server races with its
    // responses).
    Fleet fleet(3);
    const std::string holePath = freshUnixPath();
    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, holePath.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr), 0);
    ASSERT_EQ(::listen(listenFd, 8), 0);
    std::atomic<int> holeConn{-1};
    std::thread hole([&] {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        holeConn.store(fd);
        std::uint8_t buf[4096];
        while (fd >= 0 && ::read(fd, buf, sizeof buf) > 0) {
        }
    });

    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    ro.backends.push_back(parseEndpoint("unix:" + holePath));
    // Probes must not declare the blackhole dead before the cut does.
    ro.healthIntervalMs = 10000;
    Router router(ro);
    router.start();

    // Each (block, arch) pair is its own routing key. The blackhole's
    // label (its socket path) differs per run, so the failover needs
    // enough distinct keys that its rendezvous share is never empty:
    // 20 keys left it empty in about 1 run in 300, 180 keys leave it
    // empty with probability (3/4)^180.
    std::vector<engine::Request> reqs;
    while (reqs.size() < 600)
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : suite())
                reqs.push_back({b.bytesL, arch, true, {}});

    std::thread killer([&] {
        // Cut once the router has routed the whole pipelined window:
        // the blackhole's share is then pending however slow the host
        // is (a fixed delay could cut before anything reached it).
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (router.stats().routedPredicts < reqs.size() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ::close(listenFd); // re-dials now fail too
        const int fd = holeConn.load();
        if (fd >= 0)
            ::shutdown(fd, SHUT_RDWR);
    });

    // A plain Client: no retry behind it, so every answer below comes
    // from the router's own failover replay.
    auto client = server::Client::connectUnix(ro.unixPath);
    auto out = client.predictMany(reqs); // throws on any failure
    killer.join();
    hole.join();
    if (holeConn.load() >= 0)
        ::close(holeConn.load());
    ::unlink(holePath.c_str());
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i;

    // The blackhole held its shard's requests when it died; every one
    // of them was replayed to a surviving backend, not failed.
    EXPECT_GT(router.stats().backendFailovers, 0u);

    // The fleet keeps serving after the death, bit-identically.
    auto p = client.predict(suite()[0].bytesU, uarch::UArch::RKL, false);
    EXPECT_TRUE(bitIdentical(
        p, serialPredict({suite()[0].bytesU, uarch::UArch::RKL, false,
                          {}})));
    router.stop();
}

TEST(Router, NoRoutableBackendAnswersOverloaded)
{
    // One backend that never existed: the dial fails synchronously
    // (ENOENT on the unix path), so every PREDICT is shed with the
    // retryable OVERLOADED status (ProtocolError::retryable()).
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = {parseEndpoint("unix:/tmp/facile_cluster_nonexistent_" +
                                 std::to_string(::getpid()) + ".sock")};
    Router router(ro);
    router.start();

    auto client = server::Client::connectUnix(ro.unixPath);
    client.ping(); // control plane still answers
    try {
        client.predict(suite()[0].bytesU, uarch::UArch::SKL, false);
        FAIL() << "expected OVERLOADED";
    } catch (const server::ProtocolError &e) {
        EXPECT_TRUE(e.retryable()) << e.what();
    }
    EXPECT_GT(router.stats().overloadedQueue, 0u);
    router.stop();
}

// ---- soak (the TSan job runs this whole binary) ----------------------------

TEST(ClusterSoak, FourBackendsOneKilledUnderLoad)
{
    Fleet fleet(4);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    ro.healthIntervalMs = 25;
    Router router(ro);
    router.start();

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        for (uarch::UArch arch : uarch::allUArchs())
            reqs.push_back({b.bytesL, arch, true, {}});
    std::vector<Prediction> expected(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        expected[i] = serialPredict(reqs[i]);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> rounds{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t)
        clients.emplace_back([&] {
            auto c = server::Client::connectUnix(ro.unixPath);
            while (!stop.load()) {
                auto out = c.predictMany(reqs);
                for (std::size_t i = 0; i < reqs.size(); ++i)
                    ASSERT_TRUE(bitIdentical(out[i], expected[i]))
                        << "request " << i;
                rounds.fetch_add(1);
            }
        });

    // Let traffic flow, kill one backend, keep the load up while the
    // router fails over and the probes mark it dead.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    fleet.servers[2]->stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true);
    for (auto &t : clients)
        t.join();

    EXPECT_GT(rounds.load(), 0u);
    const server::ServerStats rs = router.stats();
    EXPECT_GT(rs.routedPredicts, 0u);
    router.stop();
}

} // namespace
} // namespace facile::cluster
