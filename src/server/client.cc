#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "server/net_util.h"
#include "testing/fault.h"

namespace facile::server {

namespace {

/** Map a non-OK response status to a typed ProtocolError. */
void
throwOnRejected(const ResponseHeader &h)
{
    if (h.status == static_cast<std::uint8_t>(Status::Ok))
        return;
    if (h.status == static_cast<std::uint8_t>(Status::Overloaded))
        throw ProtocolError("server overloaded (back off and retry)",
                            Status::Overloaded);
    if (h.status == static_cast<std::uint8_t>(Status::Draining))
        throw ProtocolError("server draining (retry elsewhere or back "
                            "off)",
                            Status::Draining);
    throw ProtocolError("server rejected request (status " +
                            std::to_string(h.status) + ")",
                        static_cast<Status>(h.status));
}

[[noreturn]] void
throwTransport(const std::string &what)
{
    throw TransportError(what + ": " + std::strerror(errno));
}

/**
 * Finish a connect(2) that was interrupted by a signal: the kernel
 * keeps establishing the connection asynchronously, so poll for
 * writability and read the final outcome from SO_ERROR — calling
 * connect() again would race the handshake and can report EALREADY
 * or EISCONN depending on timing.
 */
void
finishInterruptedConnect(int fd, const std::string &what)
{
    for (;;) {
        pollfd pf{fd, POLLOUT, 0};
        const int rc = ::poll(&pf, 1, -1);
        if (rc >= 0)
            break;
        if (errno != EINTR)
            throwTransport(what);
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0)
        throwTransport(what);
    if (err != 0) {
        errno = err;
        throwTransport(what);
    }
}

/**
 * connect(2) with EINTR completion and a fault-injection point. The
 * injection runs *after* the real connect so a forced EINTR models
 * the true syscall semantics (interrupted, but the handshake
 * continues in the background).
 */
void
connectOrThrow(int fd, const sockaddr *addr, socklen_t len,
               const std::string &what)
{
    int rc = ::connect(fd, addr, len);
    const auto fa = testing::faultPoint("client.connect", 0);
    if (fa.err && rc == 0) {
        errno = fa.err;
        rc = -1;
    }
    if (rc == 0)
        return;
    if (errno == EINTR) {
        finishInterruptedConnect(fd, what);
        return;
    }
    throwTransport(what);
}

} // namespace

Client
Client::connectTcp(const std::string &host, int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throwErrno("socket(AF_INET)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("bad host (want a dotted quad): " + host);
    }
    try {
        connectOrThrow(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr,
                       "connect " + host + ":" + std::to_string(port));
    } catch (...) {
        ::close(fd);
        throw;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    setNonBlocking(fd); // connect stays blocking; the session is not
    return Client(fd);
}

Client
Client::connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("unix path too long: " + path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throwErrno("socket(AF_UNIX)");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    try {
        connectOrThrow(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr, "connect " + path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    setNonBlocking(fd);
    return Client(fd);
}

Client::Client(int fd) : fd_(fd) {}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), nextId_(other.nextId_),
      inbuf_(std::move(other.inbuf_)), parsed_(other.parsed_)
{}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        nextId_ = other.nextId_;
        inbuf_ = std::move(other.inbuf_);
        parsed_ = other.parsed_;
    }
    return *this;
}

bool
Client::drainSocket()
{
    std::uint8_t chunk[64 * 1024];
    for (;;) {
        ssize_t n;
        const auto fa = testing::faultPoint("client.recv", sizeof chunk);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::recv(fd_, chunk, std::min(sizeof chunk, fa.clamp), 0);
        }
        if (n > 0) {
            inbuf_.insert(inbuf_.end(), chunk, chunk + n);
            if (static_cast<std::size_t>(n) < sizeof chunk)
                return true;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        return false; // EOF or hard error
    }
}

void
Client::writeAll(const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n;
        const auto fa = testing::faultPoint("client.send", len);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::send(fd_, data, std::min(len, fa.clamp), MSG_NOSIGNAL);
        }
        if (n > 0) {
            data += static_cast<std::size_t>(n);
            len -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Send buffer full. The server may be blocked writing
            // responses back to us right now — drain them into inbuf_
            // while waiting for writability, or a deep pipeline
            // deadlocks with both socket buffers full. readResponse()
            // parses inbuf_ before touching the socket, so nothing
            // drained here is lost.
            pollfd pf{fd_, POLLIN | POLLOUT, 0};
            int rc;
            const auto pfa = testing::faultPoint("client.poll", 0);
            if (pfa.err) {
                errno = pfa.err;
                rc = -1;
            } else {
                rc = ::poll(&pf, 1, -1);
            }
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                throwTransport("poll");
            }
            if ((pf.revents & POLLIN) && !drainSocket())
                throw TransportError(
                    "connection closed by prediction server");
            continue;
        }
        throwTransport("send");
    }
}

ResponseHeader
Client::readResponse(const std::uint8_t *&payload)
{
    for (;;) {
        if (inbuf_.size() - parsed_ >= kResponseHeaderSize) {
            ResponseHeader h =
                parseResponseHeader(inbuf_.data() + parsed_);
            if (inbuf_.size() - parsed_ >=
                kResponseHeaderSize + h.len) {
                payload = inbuf_.data() + parsed_ + kResponseHeaderSize;
                parsed_ += kResponseHeaderSize + h.len;
                // The returned view lives in inbuf_; compaction is
                // deferred to the next refill below.
                return h;
            }
        }
        if (parsed_ == inbuf_.size()) {
            inbuf_.clear();
            parsed_ = 0;
        } else if (parsed_ > kCompactThreshold) {
            inbuf_.erase(inbuf_.begin(),
                         inbuf_.begin() +
                             static_cast<std::ptrdiff_t>(parsed_));
            parsed_ = 0;
        }
        const std::size_t before = inbuf_.size();
        if (!drainSocket())
            throw TransportError(
                "connection closed by prediction server");
        if (inbuf_.size() == before) {
            pollfd pf{fd_, POLLIN, 0};
            int rc;
            const auto fa = testing::faultPoint("client.poll", 0);
            if (fa.err) {
                errno = fa.err;
                rc = -1;
            } else {
                rc = ::poll(&pf, 1, -1);
            }
            if (rc < 0 && errno != EINTR)
                throwTransport("poll");
        }
    }
}

model::Prediction
Client::predict(const std::vector<std::uint8_t> &bytes, uarch::UArch arch,
                bool loop, const model::ModelConfig &config,
                model::Payload payload_)
{
    if (bytes.size() > kMaxBlockBytes)
        throw ProtocolError("block larger than kMaxBlockBytes");
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    frame.reserve(kRequestHeaderSize + bytes.size());
    appendPredictRequest(frame, id, {bytes, arch, loop, config, payload_});
    writeAll(frame.data(), frame.size());

    const std::uint8_t *payload = nullptr;
    ResponseHeader h = readResponse(payload);
    if (h.id != id)
        throw ProtocolError("response id mismatch (pipelining "
                            "through predict()?)");
    throwOnRejected(h);
    auto pred = decodePredictPayload(payload, h.len);
    if (!pred)
        throw ProtocolError("malformed PREDICT response payload");
    return *pred;
}

std::vector<model::Prediction>
Client::predictMany(const std::vector<engine::Request> &reqs)
{
    std::vector<model::Prediction> out;
    predictManyInto(reqs, out);
    return out;
}

void
Client::predictManyInto(const std::vector<engine::Request> &reqs,
                        std::vector<model::Prediction> &out)
{
    out.resize(reqs.size());
    std::vector<std::uint8_t> frames;
    const std::uint8_t *payload = nullptr;
    std::vector<bool> received;

    for (std::size_t base = 0; base < reqs.size();
         base += kPipelineWindow) {
        const std::size_t end =
            std::min(reqs.size(), base + kPipelineWindow);
        const std::size_t window = end - base;

        // Ids within a window are consecutive, so a response maps back
        // to its request by offset — no per-request lookup structure.
        const std::uint64_t baseId = nextId_;
        nextId_ += window;
        frames.clear();
        for (std::size_t i = base; i < end; ++i) {
            if (reqs[i].bytes.size() > kMaxBlockBytes)
                throw ProtocolError("block larger than kMaxBlockBytes");
            appendPredictRequest(frames, baseId + (i - base), reqs[i]);
        }
        writeAll(frames.data(), frames.size());

        received.assign(window, false);
        for (std::size_t got = 0; got < window;) {
            ResponseHeader h = readResponse(payload);
            if (h.id < baseId || h.id - baseId >= window)
                throw ProtocolError("unexpected response id");
            const std::size_t idx =
                static_cast<std::size_t>(h.id - baseId);
            if (received[idx])
                throw ProtocolError("duplicate response id");
            throwOnRejected(h);
            if (!decodePredictInto(payload, h.len, out[base + idx]))
                throw ProtocolError(
                    "malformed PREDICT response payload");
            received[idx] = true;
            ++got;
        }
    }
}

ServerStats
Client::stats()
{
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    appendControlRequest(frame, id, Op::Stats);
    writeAll(frame.data(), frame.size());
    const std::uint8_t *payload = nullptr;
    ResponseHeader h = readResponse(payload);
    if (h.id != id)
        throw ProtocolError("STATS response id mismatch");
    throwOnRejected(h);
    auto s = decodeStatsPayload(payload, h.len);
    if (!s)
        throw ProtocolError("malformed STATS response payload");
    return *s;
}

bool
Client::snapshot()
{
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    appendControlRequest(frame, id, Op::Snapshot);
    writeAll(frame.data(), frame.size());
    const std::uint8_t *payload = nullptr;
    ResponseHeader h = readResponse(payload);
    if (h.id != id)
        throw ProtocolError("SNAPSHOT response id mismatch");
    return h.status == static_cast<std::uint8_t>(Status::Ok);
}

std::vector<std::uint8_t>
Client::fetchSnapshot()
{
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    appendSnapshotFetchRequest(frame, id);
    writeAll(frame.data(), frame.size());

    std::vector<std::uint8_t> img;
    std::uint64_t total = 0;
    bool sawChunk = false;
    for (;;) {
        const std::uint8_t *payload = nullptr;
        ResponseHeader h = readResponse(payload);
        if (h.id != id)
            throw ProtocolError("SNAPSHOT stream id mismatch");
        throwOnRejected(h);
        auto chunk = decodeSnapshotChunk(payload, h.len);
        if (!chunk)
            throw ProtocolError("malformed SNAPSHOT chunk");
        if (!sawChunk) {
            total = chunk->totalBytes;
            img.reserve(static_cast<std::size_t>(total));
            sawChunk = true;
        } else if (chunk->totalBytes != total) {
            throw ProtocolError("SNAPSHOT stream changed size mid-way");
        }
        if (chunk->offset != img.size())
            throw ProtocolError("SNAPSHOT stream chunk out of order");
        if (chunk->len == 0 && img.size() < total)
            throw ProtocolError("truncated SNAPSHOT stream");
        img.insert(img.end(), chunk->data, chunk->data + chunk->len);
        if (img.size() >= total)
            return img;
    }
}

void
Client::ping()
{
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    appendControlRequest(frame, id, Op::Ping);
    writeAll(frame.data(), frame.size());
    const std::uint8_t *payload = nullptr;
    ResponseHeader h = readResponse(payload);
    if (h.id != id)
        throw ProtocolError("PING response id mismatch");
    throwOnRejected(h);
}

HealthState
Client::health()
{
    const std::uint64_t id = nextId_++;
    std::vector<std::uint8_t> frame;
    appendControlRequest(frame, id, Op::Health);
    writeAll(frame.data(), frame.size());
    const std::uint8_t *payload = nullptr;
    ResponseHeader h = readResponse(payload);
    if (h.id != id)
        throw ProtocolError("HEALTH response id mismatch");
    throwOnRejected(h);
    auto state = decodeHealthPayload(payload, h.len);
    if (!state)
        throw ProtocolError("malformed HEALTH response payload");
    return *state;
}

} // namespace facile::server
