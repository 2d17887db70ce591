#include "server/protocol.h"

namespace facile::server {

namespace {

std::uint64_t
doubleBits(double d)
{
    std::uint64_t v;
    std::memcpy(&v, &d, sizeof v);
    return v;
}

double
bitsDouble(std::uint64_t v)
{
    double d;
    std::memcpy(&d, &v, sizeof d);
    return d;
}

} // namespace

void
appendPredictRequest(std::vector<std::uint8_t> &buf, std::uint64_t id,
                     const engine::Request &req)
{
    std::uint8_t *p =
        growBuf(buf, kRequestHeaderSize + req.bytes.size());
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Op::Predict);
    *p++ = static_cast<std::uint8_t>(req.arch);
    *p++ = static_cast<std::uint8_t>(
        (req.loop ? kFlagLoop : 0) |
        (req.payload == model::Payload::Full ? kFlagExplain : 0));
    *p++ = 0; // reserved
    putU16(p, req.config.packBits());
    putU16(p, static_cast<std::uint16_t>(req.bytes.size()));
    if (!req.bytes.empty())
        std::memcpy(p, req.bytes.data(), req.bytes.size());
}

void
appendControlRequest(std::vector<std::uint8_t> &buf, std::uint64_t id, Op op)
{
    std::uint8_t *p = growBuf(buf, kRequestHeaderSize);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(op);
    *p++ = 0; // arch
    *p++ = 0; // flags
    *p++ = 0; // reserved
    putU16(p, 0); // config
    putU16(p, 0); // len
}

RequestHeader
parseRequestHeader(const std::uint8_t *p)
{
    RequestHeader h;
    h.id = getU64(p);
    h.op = p[8];
    h.arch = p[9];
    h.flags = p[10];
    h.config = getU16(p + 12);
    h.len = getU16(p + 14);
    return h;
}

ResponseHeader
parseResponseHeader(const std::uint8_t *p)
{
    ResponseHeader h;
    h.id = getU64(p);
    h.status = p[8];
    h.op = p[9];
    h.len = getU16(p + 10);
    return h;
}

void
appendPredictResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                      const model::Prediction &pred)
{
    const std::size_t payload =
        72 + pred.bottlenecks.size() + 4 * pred.criticalChain.size() +
        4 * pred.contendingInsts.size();
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + payload);

    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Predict);
    putU16(p, static_cast<std::uint16_t>(payload));

    putU64(p, doubleBits(pred.throughput));
    for (double v : pred.componentValue)
        putU64(p, doubleBits(v));
    *p++ = static_cast<std::uint8_t>(pred.primaryBottleneck);
    *p++ = static_cast<std::uint8_t>(pred.bottlenecks.size());
    putU16(p, static_cast<std::uint16_t>(pred.criticalChain.size()));
    putU16(p, static_cast<std::uint16_t>(pred.contendingInsts.size()));
    putU16(p, pred.contendedPorts);
    for (model::Component c : pred.bottlenecks)
        *p++ = static_cast<std::uint8_t>(c);
    for (int i : pred.criticalChain)
        putU32(p, static_cast<std::uint32_t>(i));
    for (int i : pred.contendingInsts)
        putU32(p, static_cast<std::uint32_t>(i));
}

void
appendStatusResponse(std::vector<std::uint8_t> &buf, std::uint64_t id, Op op,
                     Status status)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(status);
    *p++ = static_cast<std::uint8_t>(op);
    putU16(p, 0);
}

void
appendStatsResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                    const ServerStats &stats)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + kStatsFields * 8);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Stats);
    putU16(p, kStatsFields * 8);
    putU64(p, stats.requests);
    putU64(p, stats.predictions);
    putU64(p, stats.batches);
    putU64(p, stats.maxBatch);
    putU64(p, stats.analysisCacheHits);
    putU64(p, stats.predictionCacheHits);
    putU64(p, stats.analyzed);
    putU64(p, stats.overloadedQueue);
    putU64(p, stats.overloadedConn);
    putU64(p, stats.readTimeouts);
    putU64(p, stats.quotaClosed);
    putU64(p, stats.connectionsShed);
    putU64(p, stats.connectionsAccepted);
    putU64(p, stats.connectionsOpen);
    putU64(p, stats.uptimeMs);
    putU64(p, stats.epollWakeups);
    putU64(p, stats.shortWrites);
    putU64(p, stats.ringFull);
    putU64(p, 0); // retired slot 18
    putU64(p, 0); // retired slot 19
    putU64(p, stats.drainSheds);
    putU64(p, stats.snapshotFallbacks);
    putU64(p, stats.snapshotLoadMode);
    putU64(p, 0); // retired slot 23
    putU64(p, stats.routedPredicts);
    putU64(p, stats.backendFailovers);
    putU64(p, 0); // retired slot 26
}

void
appendHealthResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                     HealthState state)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + 1);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Health);
    putU16(p, 1);
    *p = static_cast<std::uint8_t>(state);
}

std::optional<HealthState>
decodeHealthPayload(const std::uint8_t *p, std::size_t len)
{
    if (len < 1)
        return std::nullopt;
    switch (p[0]) {
    case static_cast<std::uint8_t>(HealthState::Ready):
        return HealthState::Ready;
    case static_cast<std::uint8_t>(HealthState::Draining):
        return HealthState::Draining;
    default:
        // Forward compatibility: a state this build doesn't know is
        // still a well-formed answer, not a protocol error.
        return HealthState::Unknown;
    }
}

bool
decodePredictInto(const std::uint8_t *p, std::size_t len,
                  model::Prediction &out)
{
    // Validate everything before writing anything to out.
    if (len < 72)
        return false;
    constexpr auto kComponents =
        static_cast<std::uint8_t>(model::kNumComponents);
    const std::uint8_t primary = p[64];
    const std::size_t nBottlenecks = p[65];
    const std::size_t nChain = getU16(p + 66);
    const std::size_t nContending = getU16(p + 68);
    if (primary >= kComponents || nBottlenecks > kComponents)
        return false;
    if (len != 72 + nBottlenecks + 4 * nChain + 4 * nContending)
        return false;
    const std::uint8_t *q = p + 72;
    for (std::size_t i = 0; i < nBottlenecks; ++i)
        if (q[i] >= kComponents)
            return false;

    out.throughput = bitsDouble(getU64(p));
    for (int c = 0; c < model::kNumComponents; ++c)
        out.componentValue[static_cast<std::size_t>(c)] =
            bitsDouble(getU64(p + 8 + 8 * c));
    out.primaryBottleneck = static_cast<model::Component>(primary);
    out.contendedPorts = getU16(p + 70);
    out.bottlenecks.clear();
    for (std::size_t i = 0; i < nBottlenecks; ++i)
        out.bottlenecks.push_back(static_cast<model::Component>(q[i]));
    q += nBottlenecks;
    out.criticalChain.resize(nChain);
    for (std::size_t i = 0; i < nChain; ++i)
        out.criticalChain[i] = static_cast<int>(getU32(q + 4 * i));
    q += 4 * nChain;
    out.contendingInsts.resize(nContending);
    for (std::size_t i = 0; i < nContending; ++i)
        out.contendingInsts[i] = static_cast<int>(getU32(q + 4 * i));
    return true;
}

std::optional<model::Prediction>
decodePredictPayload(const std::uint8_t *p, std::size_t len)
{
    model::Prediction pred;
    if (!decodePredictInto(p, len, pred))
        return std::nullopt;
    return pred;
}

std::optional<ServerStats>
decodeStatsPayload(const std::uint8_t *p, std::size_t len)
{
    // Append-only payload: require at least the v1 fields and a whole
    // number of u64s; trailing fields a newer server added beyond what
    // this build knows are ignored, and fields this build knows that
    // an older server did not send stay 0.
    if (len < kStatsFieldsV1 * 8 || len % 8 != 0)
        return std::nullopt;
    const std::size_t fields = len / 8;
    ServerStats s;
    s.requests = getU64(p);
    s.predictions = getU64(p + 8);
    s.batches = getU64(p + 16);
    s.maxBatch = getU64(p + 24);
    s.analysisCacheHits = getU64(p + 32);
    s.predictionCacheHits = getU64(p + 40);
    s.analyzed = getU64(p + 48);
    s.overloadedQueue = getU64(p + 56);
    s.overloadedConn = getU64(p + 64);
    s.readTimeouts = getU64(p + 72);
    s.quotaClosed = getU64(p + 80);
    s.connectionsShed = getU64(p + 88);
    s.connectionsAccepted = getU64(p + 96);
    s.connectionsOpen = getU64(p + 104);
    s.uptimeMs = getU64(p + 112);
    if (fields > 15)
        s.epollWakeups = getU64(p + 120);
    if (fields > 16)
        s.shortWrites = getU64(p + 128);
    if (fields > 17)
        s.ringFull = getU64(p + 136);
    // Slots 18 and 19 are retired: skipped.
    if (fields > 20)
        s.drainSheds = getU64(p + 160);
    if (fields > 21)
        s.snapshotFallbacks = getU64(p + 168);
    if (fields > 22)
        s.snapshotLoadMode = getU64(p + 176);
    // Slot 23 is retired: skipped.
    if (fields > 24)
        s.routedPredicts = getU64(p + 192);
    if (fields > 25)
        s.backendFailovers = getU64(p + 200);
    // Slot 26 is retired: skipped.
    return s;
}

} // namespace facile::server
