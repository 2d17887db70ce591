#include "cluster/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/frame_parser.h"
#include "server/net_util.h"
#include "server/write_queue.h"
#include "uarch/config.h"

namespace facile::cluster {

namespace {

using Clock = std::chrono::steady_clock;
using namespace facile::server;

/** Router-generated HEALTH probe ids live above every forwarded id. */
constexpr std::uint64_t kProbeIdBit = 1ULL << 63;

} // namespace

struct Router::Impl
{
    /** Epoll registration tag, dispatched on kind (server.cc idiom). */
    struct EvSource
    {
        enum class Kind : std::uint8_t {
            TcpListen,
            UnixListen,
            Wake,
            Client,
            Backend
        };
        Kind kind;
        explicit EvSource(Kind k) : kind(k) {}
    };

    /** What both connection kinds share: the socket's write side. */
    struct Peer : EvSource
    {
        using EvSource::EvSource;
        int fd = -1;
        bool wantWrite = false; ///< EPOLLOUT armed
        WriteQueue outq;
        /** Frames staged during one event; flushed in one sendmsg. */
        std::vector<std::uint8_t> stage;
    };

    /** One downstream client connection. Io-thread-owned. */
    struct ClientConn : Peer, std::enable_shared_from_this<ClientConn>
    {
        ClientConn() : Peer(Kind::Client) {}
        bool open = true;
        FrameParser parser;
    };

    enum class ConnState : std::uint8_t { Down, Connecting, Up };

    /**
     * One upstream backend: a single pipelined connection shared by
     * every client, re-dialed with backoff across its lifetimes.
     */
    struct BackendConn : Peer
    {
        BackendConn() : Peer(Kind::Backend) {}
        std::size_t idx = 0;
        ConnState connState = ConnState::Down;
        bool draining = false; ///< last HEALTH answer was Draining
        /** Frames produced while the connect is still in flight. */
        std::vector<std::uint8_t> preConnect;

        /** RESPONSE-frame reassembly (12-byte headers, not requests). */
        std::vector<std::uint8_t> inbuf;
        std::size_t parsed = 0;

        bool probeOutstanding = false;
        int missedProbes = 0;

        int backoffMs = 0;
        Clock::time_point reconnectAt{};
    };

    /** One forwarded PREDICT awaiting its backend response. */
    struct Pending
    {
        std::shared_ptr<ClientConn> conn;
        std::uint64_t origId = 0;
        std::uint64_t key = 0; ///< routeKey, for failover re-picks
        std::size_t backendIdx = 0;
        /** Full request frame, router id already written — the replay
         *  unit when its backend dies. */
        std::vector<std::uint8_t> frame;
    };

    RouterOptions opts;
    BackendPool pool;

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    Clock::time_point startTime;

    int epfd = -1;
    int wakeFd = -1;
    int tcpFd = -1;
    int unixFd = -1;
    int boundTcpPort = -1;
    EvSource tcpTag{EvSource::Kind::TcpListen};
    EvSource unixTag{EvSource::Kind::UnixListen};
    EvSource wakeTag{EvSource::Kind::Wake};
    std::thread thr;

    std::vector<std::shared_ptr<ClientConn>> clients;
    std::vector<std::unique_ptr<BackendConn>> backends;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t nextId = 1;
    std::uint64_t nextProbeId = kProbeIdBit;
    /** Backends that died mid-dispatch; failover runs between events. */
    std::deque<std::size_t> deadQueue;

    std::atomic<std::uint64_t> requestCount{0};
    std::atomic<std::uint64_t> routedPredicts{0};
    std::atomic<std::uint64_t> backendFailovers{0};
    std::atomic<std::uint64_t> noBackendSheds{0};
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> connectionsOpen{0};

    explicit Impl(RouterOptions o)
        : opts(std::move(o)), pool(opts.backends)
    {
        if (opts.backends.empty())
            throw std::invalid_argument("router needs >= 1 backend");
        backends.reserve(opts.backends.size());
        for (std::size_t i = 0; i < opts.backends.size(); ++i) {
            auto b = std::make_unique<BackendConn>();
            b->idx = i;
            b->backoffMs = opts.reconnectBackoffMs;
            backends.push_back(std::move(b));
        }
    }

    /** Register (@p add) or change @p p's epoll interest. */
    void
    setEvents(Peer &p, std::uint32_t events, bool add)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.ptr = static_cast<EvSource *>(&p);
        ::epoll_ctl(epfd, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, p.fd, &ev);
    }

    // ---- backend lifecycle -------------------------------------------------

    /** True once @p b may receive forwarded frames. */
    bool
    routable(const BackendConn &b) const
    {
        return b.connState != ConnState::Down && !b.draining;
    }

    void
    refreshPoolState(BackendConn &b)
    {
        pool.setState(b.idx, b.connState == ConnState::Down
                                 ? BackendState::Down
                                 : (b.draining ? BackendState::Draining
                                               : BackendState::Up));
    }

    void
    dialBackend(std::size_t i)
    {
        BackendConn &b = *backends[i];
        const Endpoint &ep = pool.endpoint(i);
        const int fd =
            ::socket(ep.isUnix() ? AF_UNIX : AF_INET,
                     SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            scheduleRetry(b);
            return;
        }
        int rc;
        if (ep.isUnix()) {
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, ep.path.c_str(),
                         sizeof addr.sun_path - 1);
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof addr);
        } else {
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
            if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) !=
                1) {
                ::close(fd);
                scheduleRetry(b);
                return;
            }
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof addr);
        }
        if (rc < 0 && errno != EINPROGRESS) {
            ::close(fd);
            scheduleRetry(b);
            return;
        }
        if (!ep.isUnix()) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        b.fd = fd;
        if (rc == 0) {
            b.connState = ConnState::Up;
            setEvents(b, EPOLLIN, /*add=*/true);
            onBackendConnected(b);
        } else {
            // Routable while connecting: frames queue in preConnect
            // and flush the moment the handshake completes, so early
            // traffic is buffered instead of shed.
            b.connState = ConnState::Connecting;
            setEvents(b, EPOLLIN | EPOLLOUT, /*add=*/true);
        }
        refreshPoolState(b);
    }

    void
    onBackendConnected(BackendConn &b)
    {
        b.connState = ConnState::Up;
        b.backoffMs = opts.reconnectBackoffMs;
        b.missedProbes = 0;
        b.probeOutstanding = false;
        refreshPoolState(b);
        if (!b.preConnect.empty()) {
            std::vector<std::uint8_t> out;
            out.swap(b.preConnect);
            writePeer(b, out.data(), out.size());
        }
        sendProbe(b);
    }

    void
    scheduleRetry(BackendConn &b)
    {
        b.connState = ConnState::Down;
        b.fd = -1;
        b.reconnectAt =
            Clock::now() + std::chrono::milliseconds(b.backoffMs);
        b.backoffMs =
            std::min(b.backoffMs * 2, opts.reconnectBackoffMaxMs);
        refreshPoolState(b);
    }

    /**
     * Declare @p b dead: close, reset stream state, queue its pendings
     * for failover (drained by drainDeadBackends between events — not
     * inline, so the pending map is never mutated mid-iteration), and
     * arm the reconnect backoff.
     */
    void
    markBackendDead(BackendConn &b)
    {
        if (b.connState == ConnState::Down)
            return;
        if (b.fd >= 0) {
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, b.fd, nullptr);
            ::close(b.fd);
        }
        b.outq = WriteQueue();
        b.stage.clear();
        b.preConnect.clear();
        b.inbuf.clear();
        b.parsed = 0;
        b.wantWrite = false;
        b.draining = false;
        scheduleRetry(b);
        deadQueue.push_back(b.idx);
    }

    void
    drainDeadBackends()
    {
        while (!deadQueue.empty()) {
            const std::size_t dead = deadQueue.front();
            deadQueue.pop_front();
            std::vector<std::uint64_t> rids;
            for (const auto &[rid, p] : pending)
                if (p.backendIdx == dead)
                    rids.push_back(rid);
            for (std::uint64_t rid : rids) {
                auto it = pending.find(rid);
                if (it == pending.end() || it->second.backendIdx != dead)
                    continue; // already failed over by a nested death
                Pending &p = it->second;
                const std::size_t next = pool.pick(p.key, dead);
                if (next == BackendPool::npos) {
                    // Nothing left to replay onto: surface retryable
                    // backpressure; a caller that backs off and
                    // re-sends succeeds once a backend returns.
                    std::vector<std::uint8_t> reply;
                    appendStatusResponse(reply, p.origId, Op::Predict,
                                         Status::Overloaded);
                    writeClient(*p.conn, reply.data(), reply.size());
                    pending.erase(it);
                    continue;
                }
                p.backendIdx = next;
                backendFailovers.fetch_add(1, std::memory_order_relaxed);
                sendToBackend(next, p.frame.data(), p.frame.size());
            }
            flushStagedBackends();
        }
    }

    /** Queue @p data on backend @p i, whatever its connection state. */
    void
    sendToBackend(std::size_t i, const std::uint8_t *data,
                  std::size_t len)
    {
        BackendConn &b = *backends[i];
        if (b.connState == ConnState::Connecting) {
            b.preConnect.insert(b.preConnect.end(), data, data + len);
            return;
        }
        if (b.connState == ConnState::Down)
            return; // its pendings are already queued for failover
        // Stage, don't write: every frame a single event batch routes
        // here rides out in ONE gathered sendmsg (flushStagedBackends)
        // instead of a ~30-byte syscall per frame — and the backend's
        // reader then sees the whole burst at once, so its admission
        // batches stay large.
        b.stage.insert(b.stage.end(), data, data + len);
    }

    void
    flushBackend(BackendConn &b)
    {
        if (b.connState == ConnState::Up && !b.stage.empty())
            flushStage(b);
    }

    void
    flushStagedBackends()
    {
        for (auto &bp : backends)
            flushBackend(*bp);
    }

    void
    sendProbe(BackendConn &b)
    {
        if (b.connState != ConnState::Up)
            return;
        std::vector<std::uint8_t> frame;
        appendControlRequest(frame, nextProbeId++, Op::Health);
        b.probeOutstanding = true;
        writePeer(b, frame.data(), frame.size());
    }

    // ---- backend responses -------------------------------------------------

    void
    backendReadable(BackendConn &b, std::vector<std::uint8_t> &chunk)
    {
        for (;;) {
            const ssize_t n = ::read(b.fd, chunk.data(), chunk.size());
            if (n > 0) {
                b.inbuf.insert(b.inbuf.end(), chunk.data(),
                               chunk.data() + n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            markBackendDead(b); // EOF or hard error
            return;
        }
        std::vector<ClientConn *> touched;
        while (b.inbuf.size() - b.parsed >= kResponseHeaderSize) {
            const ResponseHeader h =
                parseResponseHeader(b.inbuf.data() + b.parsed);
            if (b.inbuf.size() - b.parsed < kResponseHeaderSize + h.len)
                break;
            const std::uint8_t *payload =
                b.inbuf.data() + b.parsed + kResponseHeaderSize;
            b.parsed += kResponseHeaderSize + h.len;
            if (h.id & kProbeIdBit) {
                handleProbeResponse(b, h, payload);
                continue;
            }
            auto it = pending.find(h.id);
            if (it == pending.end())
                continue; // replayed elsewhere, or stale after failover
            Pending p = std::move(it->second);
            pending.erase(it);
            ClientConn &cc = *p.conn;
            if (!cc.open)
                continue; // caller hung up; drop the answer
            // Rewrite the router id back to the client's own id; the
            // rest of the frame is forwarded byte-exactly. Staged per
            // client so a burst of responses flushes in one sendmsg.
            if (cc.stage.empty())
                touched.push_back(&cc);
            const std::size_t off = cc.stage.size();
            cc.stage.resize(off + kResponseHeaderSize + h.len);
            std::memcpy(cc.stage.data() + off,
                        b.inbuf.data() + b.parsed - kResponseHeaderSize -
                            h.len,
                        kResponseHeaderSize + h.len);
            std::memcpy(cc.stage.data() + off, &p.origId,
                        sizeof p.origId);
        }
        for (ClientConn *cc : touched)
            flushClientStage(*cc);
        if (b.parsed == b.inbuf.size()) {
            b.inbuf.clear();
            b.parsed = 0;
        } else if (b.parsed > 64 * 1024) {
            b.inbuf.erase(b.inbuf.begin(),
                          b.inbuf.begin() +
                              static_cast<std::ptrdiff_t>(b.parsed));
            b.parsed = 0;
        }
    }

    void
    handleProbeResponse(BackendConn &b, const ResponseHeader &h,
                        const std::uint8_t *payload)
    {
        b.probeOutstanding = false;
        b.missedProbes = 0;
        if (h.status != static_cast<std::uint8_t>(Status::Ok) ||
            h.op != static_cast<std::uint8_t>(Op::Health))
            return;
        const auto state = decodeHealthPayload(payload, h.len);
        const bool draining =
            state && *state == HealthState::Draining;
        if (draining != b.draining) {
            b.draining = draining;
            refreshPoolState(b);
        }
    }

    // ---- client side -------------------------------------------------------

    void
    closeClient(ClientConn &c)
    {
        if (!c.open)
            return;
        c.open = false;
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = -1;
        connectionsOpen.fetch_sub(1, std::memory_order_relaxed);
        // Pendings it owns stay in the map: the backend will still
        // answer, and the response is matched then dropped — erasing
        // here would let a later request reuse the router id while the
        // old answer is still in flight.
    }

    void
    flushClientStage(ClientConn &c)
    {
        if (c.stage.empty())
            return;
        if (!c.open) {
            c.stage.clear();
            return;
        }
        flushStage(c);
    }

    void
    writeClient(ClientConn &c, const std::uint8_t *data, std::size_t len)
    {
        if (c.open)
            writePeer(c, data, len);
    }

    // ---- write side, both connection kinds ---------------------------------

    /** Arm or disarm EPOLLOUT on an Up backend or an open client. */
    void
    setWantWrite(Peer &p, bool want)
    {
        if (p.wantWrite == want)
            return;
        setEvents(p, EPOLLIN | (want ? EPOLLOUT : 0u), /*add=*/false);
        p.wantWrite = want;
    }

    /**
     * Act on one write's outcome: a drained queue disarms EPOLLOUT, a
     * blocked one arms it, and a gone peer is closed (a client) or
     * declared dead (a backend).
     */
    void
    applyWriteResult(Peer &p, WriteQueue::Result r)
    {
        switch (r) {
          case WriteQueue::Result::Drained:
            setWantWrite(p, false);
            return;
          case WriteQueue::Result::Blocked:
            setWantWrite(p, true);
            return;
          case WriteQueue::Result::PeerGone:
            if (p.kind == EvSource::Kind::Client)
                closeClient(static_cast<ClientConn &>(p));
            else
                markBackendDead(static_cast<BackendConn &>(p));
            return;
        }
    }

    /** Write @p data to @p p, queued behind any bytes still unsent. */
    void
    writePeer(Peer &p, const std::uint8_t *data, std::size_t len)
    {
        iovec iov{const_cast<std::uint8_t *>(data), len};
        applyWriteResult(p, p.outq.writeGather(p.fd, &iov, 1));
    }

    /** Send @p p's staged frames in one gathered write. */
    void
    flushStage(Peer &p)
    {
        // writeGather copies any unsent tail into the outq, so the
        // stage can be dropped whatever the outcome.
        iovec iov{p.stage.data(), p.stage.size()};
        const auto r = p.outq.writeGather(p.fd, &iov, 1);
        p.stage.clear();
        applyWriteResult(p, r);
    }

    void
    acceptReady(int listenFd, bool tcp)
    {
        for (;;) {
            const int fd = ::accept4(listenFd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR || errno == ECONNABORTED)
                    continue;
                break;
            }
            if (tcp) {
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof one);
            }
            auto conn = std::make_shared<ClientConn>();
            conn->fd = fd;
            conn->parser = FrameParser({opts.maxBufferedPerConn});
            connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
            connectionsOpen.fetch_add(1, std::memory_order_relaxed);
            setEvents(*conn, EPOLLIN, /*add=*/true);
            clients.push_back(std::move(conn));
        }
    }

    void
    clientReadable(const std::shared_ptr<ClientConn> &conn,
                   std::vector<std::uint8_t> &chunk)
    {
        ClientConn &c = *conn;
        for (;;) {
            const ssize_t n = ::read(c.fd, chunk.data(), chunk.size());
            if (n > 0) {
                if (!c.parser.feed(chunk.data(),
                                   static_cast<std::size_t>(n))) {
                    closeClient(c); // oversize backlog: protocol abuse
                    return;
                }
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            closeClient(c); // EOF or hard error
            return;
        }
        std::vector<std::uint8_t> reply;
        FrameView f;
        while (c.open && c.parser.next(f))
            handleClientFrame(conn, f.header, f.payload, reply);
        if (!reply.empty())
            writeClient(c, reply.data(), reply.size());
        flushStagedBackends();
    }

    void
    handleClientFrame(const std::shared_ptr<ClientConn> &conn,
                      const RequestHeader &h,
                      const std::uint8_t *payload,
                      std::vector<std::uint8_t> &reply)
    {
        requestCount.fetch_add(1, std::memory_order_relaxed);
        switch (static_cast<Op>(h.op)) {
          case Op::Ping:
            appendStatusResponse(reply, h.id, Op::Ping, Status::Ok);
            return;
          case Op::Stats:
            appendStatsResponse(reply, h.id, snapshotStats());
            return;
          case Op::Health:
            appendHealthResponse(reply, h.id, HealthState::Ready);
            return;
          case Op::Snapshot:
            // Snapshot administration (SAVE) targets ONE replica;
            // through a hashing router "which one" is meaningless, so
            // the op is refused rather than forwarded somewhere
            // arbitrary.
            appendStatusResponse(reply, h.id, Op::Snapshot,
                                 Status::BadRequest);
            return;
          case Op::Predict: {
            if (h.arch >= uarch::allUArchs().size() ||
                h.len > kMaxBlockBytes) {
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::BadRequest);
                return;
            }
            const std::uint64_t key = routeKey(h.arch, payload, h.len);
            const std::size_t idx = pool.pick(key);
            if (idx == BackendPool::npos) {
                noBackendSheds.fetch_add(1, std::memory_order_relaxed);
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::Overloaded);
                return;
            }
            const std::uint64_t rid = nextId++;
            Pending p;
            p.conn = conn;
            p.origId = h.id;
            p.key = key;
            p.backendIdx = idx;
            // The client's frame bytes are contiguous in the parser
            // buffer (header immediately before payload): copy them
            // and rewrite the id in place.
            p.frame.assign(payload - kRequestHeaderSize,
                           payload + h.len);
            std::memcpy(p.frame.data(), &rid, sizeof rid);
            const auto [it, inserted] = pending.emplace(rid, std::move(p));
            (void)inserted;
            routedPredicts.fetch_add(1, std::memory_order_relaxed);
            sendToBackend(idx, it->second.frame.data(),
                          it->second.frame.size());
            return;
          }
          default:
            appendStatusResponse(reply, h.id, static_cast<Op>(h.op),
                                 Status::BadRequest);
            return;
        }
    }

    // ---- stats -------------------------------------------------------------

    server::ServerStats
    snapshotStats() const
    {
        server::ServerStats s;
        s.requests = requestCount.load(std::memory_order_relaxed);
        s.routedPredicts =
            routedPredicts.load(std::memory_order_relaxed);
        s.backendFailovers =
            backendFailovers.load(std::memory_order_relaxed);
        // No-backend sheds reuse the admission-overload counter: the
        // router's "queue" is its backend set, and both answer the
        // same OVERLOADED status.
        s.overloadedQueue =
            noBackendSheds.load(std::memory_order_relaxed);
        s.connectionsAccepted =
            connectionsAccepted.load(std::memory_order_relaxed);
        s.connectionsOpen =
            connectionsOpen.load(std::memory_order_relaxed);
        s.uptimeMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - startTime)
                .count());
        return s;
    }

    // ---- io loop -----------------------------------------------------------

    void
    ioLoop()
    {
        constexpr int kMaxEvents = 64;
        epoll_event evs[kMaxEvents];
        std::vector<std::uint8_t> chunk(64 * 1024);
        auto nextProbeAt =
            Clock::now() +
            std::chrono::milliseconds(opts.healthIntervalMs);

        while (!stopping.load(std::memory_order_acquire)) {
            const auto now = Clock::now();
            int timeout = msUntil(nextProbeAt, now, 1000);
            for (const auto &b : backends)
                if (b->connState == ConnState::Down)
                    timeout = std::min(
                        timeout, msUntil(b->reconnectAt, now, 1000));
            const int n = ::epoll_wait(epfd, evs, kMaxEvents, timeout);
            if (n < 0 && errno != EINTR)
                break;
            if (stopping.load(std::memory_order_acquire))
                break;
            for (int i = 0; i < std::max(n, 0); ++i) {
                auto *src = static_cast<EvSource *>(evs[i].data.ptr);
                switch (src->kind) {
                  case EvSource::Kind::TcpListen:
                    acceptReady(tcpFd, true);
                    break;
                  case EvSource::Kind::UnixListen:
                    acceptReady(unixFd, false);
                    break;
                  case EvSource::Kind::Wake:
                    drainWakeFd(wakeFd);
                    break;
                  case EvSource::Kind::Client: {
                    auto &c = *static_cast<ClientConn *>(src);
                    if (!c.open)
                        break; // closed earlier in this batch
                    if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                        closeClient(c);
                        break;
                    }
                    if (evs[i].events & EPOLLOUT)
                        applyWriteResult(c, c.outq.flush(c.fd));
                    if (c.open && (evs[i].events & EPOLLIN))
                        clientReadable(c.shared_from_this(), chunk);
                    break;
                  }
                  case EvSource::Kind::Backend: {
                    auto &b = *static_cast<BackendConn *>(src);
                    if (b.connState == ConnState::Down || b.fd < 0)
                        break; // died earlier in this batch
                    if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                        markBackendDead(b);
                        break;
                    }
                    if (evs[i].events & EPOLLOUT)
                        backendWritable(b);
                    if (b.connState != ConnState::Down &&
                        (evs[i].events & EPOLLIN))
                        backendReadable(b, chunk);
                    break;
                  }
                }
                drainDeadBackends();
            }
            const auto after = Clock::now();
            if (after >= nextProbeAt) {
                healthTick();
                drainDeadBackends();
                sweepClients();
                nextProbeAt =
                    after +
                    std::chrono::milliseconds(opts.healthIntervalMs);
            }
            for (std::size_t i = 0; i < backends.size(); ++i)
                if (backends[i]->connState == ConnState::Down &&
                    backends[i]->reconnectAt <= after)
                    dialBackend(i);
        }
    }

    void
    backendWritable(BackendConn &b)
    {
        if (b.connState == ConnState::Connecting) {
            int err = 0;
            socklen_t elen = sizeof err;
            ::getsockopt(b.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
            if (err != 0) {
                markBackendDead(b);
                return;
            }
            setEvents(b, EPOLLIN, /*add=*/false);
            onBackendConnected(b);
            return;
        }
        applyWriteResult(b, b.outq.flush(b.fd));
    }

    void
    healthTick()
    {
        for (auto &bp : backends) {
            BackendConn &b = *bp;
            if (b.connState != ConnState::Up)
                continue;
            if (b.probeOutstanding &&
                ++b.missedProbes >= opts.healthMissLimit) {
                // A peer that stopped answering probes is as dead as
                // one whose socket reset — SIGSTOP, livelock, or a
                // half-open connection all land here.
                markBackendDead(b);
                continue;
            }
            sendProbe(b);
        }
    }

    /** Reap closed client connections (kept alive through the event
     *  batch that closed them — see closeClient). */
    void
    sweepClients()
    {
        clients.erase(std::remove_if(clients.begin(), clients.end(),
                                     [](const auto &c) {
                                         return !c->open;
                                     }),
                      clients.end());
    }

    // ---- lifecycle ---------------------------------------------------------

    void
    start()
    {
        if (running.load())
            throw std::runtime_error("router already running");
        stopping.store(false);
        startTime = Clock::now();
        // Whatever is open when any step throws is closed, so a failed
        // start leaves no descriptor and no bound port behind.
        try {
            if (opts.tcpPort >= 0)
                tcpFd = listenTcp(opts.tcpHost, opts.tcpPort, boundTcpPort);
            if (!opts.unixPath.empty())
                unixFd = listenUnix(opts.unixPath);
            epfd = ::epoll_create1(EPOLL_CLOEXEC);
            if (epfd < 0)
                throwErrno("epoll_create1");
            wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
            if (wakeFd < 0)
                throwErrno("eventfd");
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = &wakeTag;
            ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakeFd, &ev);
            if (tcpFd >= 0) {
                ev.data.ptr = &tcpTag;
                ::epoll_ctl(epfd, EPOLL_CTL_ADD, tcpFd, &ev);
            }
            if (unixFd >= 0) {
                ev.data.ptr = &unixTag;
                ::epoll_ctl(epfd, EPOLL_CTL_ADD, unixFd, &ev);
            }
            for (std::size_t i = 0; i < backends.size(); ++i)
                dialBackend(i);
            thr = std::thread([this] { ioLoop(); });
        } catch (...) {
            closeAll();
            throw;
        }
        running.store(true);
    }

    void
    stop()
    {
        if (!running.exchange(false))
            return;
        stopping.store(true, std::memory_order_release);
        signalWakeFd(wakeFd);
        if (thr.joinable())
            thr.join();
        closeAll();
    }

    /** Close every descriptor the router holds; unlink its socket. */
    void
    closeAll()
    {
        for (auto &c : clients)
            if (c->open) {
                ::close(c->fd);
                c->open = false;
            }
        clients.clear();
        pending.clear();
        for (auto &b : backends) {
            if (b->fd >= 0)
                ::close(b->fd);
            b->fd = -1;
            b->connState = ConnState::Down;
            b->outq = WriteQueue();
            b->preConnect.clear();
            b->inbuf.clear();
            b->parsed = 0;
        }
        if (tcpFd >= 0)
            ::close(tcpFd);
        if (unixFd >= 0) {
            ::close(unixFd);
            ::unlink(opts.unixPath.c_str());
        }
        if (wakeFd >= 0)
            ::close(wakeFd);
        if (epfd >= 0)
            ::close(epfd);
        tcpFd = unixFd = wakeFd = epfd = -1;
    }
};

Router::Router(RouterOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

Router::~Router()
{
    impl_->stop();
}

void
Router::start()
{
    impl_->start();
}

void
Router::stop()
{
    impl_->stop();
}

int
Router::tcpPort() const
{
    return impl_->boundTcpPort;
}

const std::string &
Router::unixPath() const
{
    return impl_->opts.unixPath;
}

server::ServerStats
Router::stats() const
{
    return impl_->snapshotStats();
}

} // namespace facile::cluster
