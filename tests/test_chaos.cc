/**
 * @file
 * Chaos soak: the end-to-end fault-tolerance property the rest of the
 * robustness layer exists to serve. A prediction server runs in a
 * CHILD process; a fleet of plain Clients (connection count adapted to
 * RLIMIT_NOFILE toward a 256-connection target), each behind a small
 * test-local replay loop, sustains pipelined traffic against it. Once
 * a quarter of a pass's operations have completed, the parent
 * SIGKILLs the server, tears the primary snapshot file the way a
 * mid-write kill would, and respawns the server warm — it must fall
 * back to the previous snapshot generation, and every client must
 * reconnect and replay with ZERO failed operations and bit-identical
 * predictions throughout.
 *
 * In FACILE_FAULT_INJECT builds the child additionally runs with
 * env-armed chaos (FACILE_FAULT_SEED / FACILE_FAULT_ONE_IN): seeded
 * random EINTR and short reads/writes at every wrapped syscall site
 * while it serves.
 *
 * The server half is this same binary re-executed with
 * --gtest_filter=ChaosProbe.Serve (the test_snapshot child-probe
 * idiom, plus fork/exec so the parent holds the pid to SIGKILL).
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/server.h"

namespace facile::server {
namespace {

std::string
chaosSockPath()
{
    return "/tmp/facile_chaos_" + std::to_string(::getpid()) + ".sock";
}

std::string
chaosSnapPath()
{
    return "/tmp/facile_chaos_" + std::to_string(::getpid()) + ".bin";
}

/**
 * Child half: serve on FACILE_CHAOS_SOCK until SIGKILLed. Saves go to
 * FACILE_CHAOS_SNAP; FACILE_CHAOS_LOAD additionally warm-starts from
 * it (through the generation walk). Skips in a normal test run.
 */
TEST(ChaosProbe, Serve)
{
    const char *sock = std::getenv("FACILE_CHAOS_SOCK");
    if (!sock)
        GTEST_SKIP() << "probe mode only (spawned by ChaosSoak)";
    ServerOptions opts;
    opts.unixPath = sock;
    if (const char *snap = std::getenv("FACILE_CHAOS_SNAP")) {
        opts.snapshotPath = snap;
        if (std::getenv("FACILE_CHAOS_LOAD"))
            opts.snapshotLoadPath = snap;
    }
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();
    for (;;) // only SIGKILL ends a chaos probe
        std::this_thread::sleep_for(std::chrono::seconds(1));
}

/** fork+exec this binary as a chaos server child; returns its pid. */
pid_t
spawnServerChild(const std::string &sock, const std::string &snap,
                 bool warmLoad)
{
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    EXPECT_GT(n, 0);
    self[n] = '\0';

    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child. Env over argv so the gtest filter stays a plain string.
    ::setenv("FACILE_CHAOS_SOCK", sock.c_str(), 1);
    ::setenv("FACILE_CHAOS_SNAP", snap.c_str(), 1);
    if (warmLoad)
        ::setenv("FACILE_CHAOS_LOAD", "1", 1);
    // Seeded chaos inside the serving child (no-op env in builds
    // without FACILE_FAULT_INJECT): 1-in-97 of every wrapped syscall
    // site EINTRs or goes short while the fleet hammers it.
    ::setenv("FACILE_FAULT_SEED", warmLoad ? "1302" : "713", 1);
    ::setenv("FACILE_FAULT_ONE_IN", "97", 1);
    ::execl(self, self, "--gtest_filter=ChaosProbe.Serve",
            static_cast<char *>(nullptr));
    std::_Exit(127); // exec failed
}

/** Wait (bounded) until a listener accepts on @p path. */
bool
waitForServer(const std::string &path)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof addr.sun_path - 1);
        const int rc =
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr);
        ::close(fd);
        if (rc == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

/**
 * One fleet connection behind a test-local replay loop: on a
 * TransportError it drops the socket, sleeps a few ms, reconnects and
 * re-sends the whole operation, until a deadline. PREDICT is pure, so
 * a replay is safe. Any other error reaches the caller.
 */
class ReplayingClient
{
  public:
    explicit ReplayingClient(std::string path) : path_(std::move(path)) {}

    /** Run op(client) to completion, replaying it on transport faults. */
    template <class Op>
    auto
    run(Op &&op)
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        for (bool faulted = false;; faulted = true) {
            try {
                if (!conn_) {
                    conn_.emplace(Client::connectUnix(path_));
                    if (dialed_)
                        ++reconnects;
                    dialed_ = true;
                }
                if (faulted)
                    ++replays;
                return op(*conn_);
            } catch (const TransportError &) {
                conn_.reset();
                if (std::chrono::steady_clock::now() >= deadline)
                    throw;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    }

    std::uint64_t reconnects = 0; ///< successful dials after the first
    std::uint64_t replays = 0;    ///< operations re-sent after a fault

  private:
    std::string path_;
    std::optional<Client> conn_;
    bool dialed_ = false;
};

void
removeSnapshotGenerations(const std::string &snap)
{
    for (int g = 0; g <= analysis::kSnapshotGenerations; ++g)
        std::remove(analysis::snapshotGenerationPath(snap, g).c_str());
}

TEST(ChaosSoak, SigkillUnderLoadRestartsWarmAndEveryClientReconnects)
{
    const std::string sock = chaosSockPath();
    const std::string snap = chaosSnapPath();
    removeSnapshotGenerations(snap);

    // Fleet sizing toward the 256-connection target, adapted to the
    // parent's fd budget (each client holds one socket).
    rlimit rl{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
    const std::size_t fleet = std::min<std::size_t>(
        256, rl.rlim_cur > 300 ? (rl.rlim_cur - 150) / 2 : 32);
    const std::size_t threads =
        std::min<std::size_t>(8, std::max<std::size_t>(1, fleet / 8));

    // Ground truth, serially, in this process: bit-identity across
    // the crash/restart is judged against these.
    const auto &suiteRef = bhive::generateSuite(2024, 2);
    std::vector<engine::Request> batch;
    for (const auto &b : suiteRef) {
        batch.push_back({b.bytesU, uarch::UArch::SKL, false, {}});
        batch.push_back({b.bytesL, uarch::UArch::ICL, true, {}});
    }
    model::PredictScratch scratch;
    std::vector<model::Prediction> expected;
    for (const auto &r : batch)
        expected.push_back(model::predict(bb::analyze(r.bytes, r.arch),
                                          r.loop, r.config, scratch));

    // ---- phase 1: cold server, fleet connects and verifies --------
    pid_t server = spawnServerChild(sock, snap, /*warmLoad=*/false);
    ASSERT_GT(server, 0);
    ASSERT_TRUE(waitForServer(sock)) << "cold server never came up";

    std::vector<std::vector<ReplayingClient>> fleetByThread(threads);
    for (std::size_t t = 0; t < threads; ++t)
        for (std::size_t c = t; c < fleet; c += threads)
            fleetByThread[t].emplace_back(sock);

    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> opFailures{0};
    std::atomic<std::size_t> opsDone{0}; // completed fleet operations
    auto runOp = [&](ReplayingClient &client,
                     std::vector<model::Prediction> &out) {
        try {
            client.run([&](Client &c) { c.predictManyInto(batch, out); });
        } catch (const std::exception &) {
            ++opFailures;
            return;
        }
        if (out.size() != expected.size()) {
            ++mismatches;
            return;
        }
        for (std::size_t i = 0; i < out.size(); ++i)
            if (std::memcmp(&out[i].throughput, &expected[i].throughput,
                            sizeof(double)) != 0)
                ++mismatches;
    };
    auto runPass = [&](std::size_t iterations) {
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back([&, t] {
                std::vector<model::Prediction> out;
                for (std::size_t it = 0; it < iterations; ++it)
                    for (auto &client : fleetByThread[t]) {
                        runOp(client, out);
                        opsDone.fetch_add(1);
                        opsDone.notify_all();
                    }
            });
        for (auto &w : workers)
            w.join();
    };

    runPass(1);
    ASSERT_EQ(mismatches.load(), 0u) << "cold fleet diverged";
    ASSERT_EQ(opFailures.load(), 0u) << "cold fleet saw failures";

    // Two server-side saves so a previous generation (.g1) exists for
    // the fallback. Saves may fail transiently under injected chaos —
    // retry; what matters is that two eventually commit.
    {
        ReplayingClient admin(sock);
        int saves = 0;
        for (int tries = 0; saves < 2 && tries < 200; ++tries)
            if (admin.run([](Client &c) { return c.snapshot(); }))
                ++saves;
        ASSERT_EQ(saves, 2) << "server never committed two snapshots";
    }

    auto fleetTotal = [&](std::uint64_t ReplayingClient::*counter) {
        std::uint64_t sum = 0;
        for (auto &perThread : fleetByThread)
            for (auto &client : perThread)
                sum += client.*counter;
        return sum;
    };

    // ---- phase 2: SIGKILL mid-traffic, tear the snapshot, respawn -
    // The kill is clocked by progress, not by a sleep: it lands once a
    // quarter of this pass's operations have completed, however fast
    // the server answers.
    constexpr std::size_t kPass2Iterations = 4;
    const std::size_t killAt =
        opsDone.load() + kPass2Iterations * fleet / 4;
    const std::uint64_t replaysBefore =
        fleetTotal(&ReplayingClient::replays);
    std::thread chaos([&] {
        for (std::size_t done; (done = opsDone.load()) < killAt;)
            opsDone.wait(done);
        ASSERT_EQ(::kill(server, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(server, &status, 0), server);
        ASSERT_TRUE(WIFSIGNALED(status));

        // The kill "caught a save mid-write": cut the primary image to
        // its first half so only the generation walk can recover.
        struct stat st {};
        ASSERT_EQ(::stat(snap.c_str(), &st), 0);
        ASSERT_GT(st.st_size, 0);
        ASSERT_EQ(::truncate(snap.c_str(), st.st_size / 2), 0);

        server = spawnServerChild(sock, snap, /*warmLoad=*/true);
        ASSERT_GT(server, 0);
        EXPECT_TRUE(waitForServer(sock)) << "warm server never came up";
    });
    runPass(kPass2Iterations); // the kill lands inside this pass
    chaos.join();
    EXPECT_GT(fleetTotal(&ReplayingClient::replays), replaysBefore)
        << "no batch was replayed during the pass the kill landed in";

    // One more full pass with the warm server definitely up: any
    // client that finished pass 2 before the kill still holds a dead
    // socket here, so after this EVERY client has reconnected.
    runPass(1);

    EXPECT_EQ(mismatches.load(), 0u)
        << "predictions diverged across the crash";
    EXPECT_EQ(opFailures.load(), 0u)
        << "an operation failed despite reconnect and replay";

    // The recovery really happened and is observable: every client
    // reconnected and replayed, and the warm restart fell back past
    // the torn primary (server-side counter over the wire).
    EXPECT_GE(fleetTotal(&ReplayingClient::reconnects), fleet)
        << "every held connection died with the server";
    EXPECT_GE(fleetTotal(&ReplayingClient::replays), fleet);

    ReplayingClient admin(sock);
    ServerStats s = admin.run([](Client &c) { return c.stats(); });
    EXPECT_GE(s.snapshotFallbacks, 1u)
        << "warm start did not use the generation fallback";
    EXPECT_EQ(s.drainSheds, 0u);

    ASSERT_EQ(::kill(server, SIGKILL), 0);
    ::waitpid(server, nullptr, 0);
    std::remove(sock.c_str());
    removeSnapshotGenerations(snap);
}

} // namespace
} // namespace facile::server
