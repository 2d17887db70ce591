/**
 * @file
 * FrameParser unit tests: the connection-free request-frame parser
 * (src/server/frame_parser.h) must recover the same frames whatever
 * the read fragmentation — byte-at-a-time, split mid-header or
 * mid-payload, everything at once — must never desync on garbage that
 * happens to frame, and must enforce its buffered-byte quota without
 * corrupting state. Plus wire-codec coverage for the widened STATS
 * payload, the PREDICT response's bottleneck bound, and the typed
 * ProtocolError.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "server/frame_parser.h"

namespace facile::server {
namespace {

/** A PREDICT frame with recognizable payload bytes. */
std::vector<std::uint8_t>
predictFrame(std::uint64_t id, std::size_t payloadLen)
{
    engine::Request req;
    req.bytes.resize(payloadLen);
    for (std::size_t i = 0; i < payloadLen; ++i)
        req.bytes[i] = static_cast<std::uint8_t>(id + i);
    std::vector<std::uint8_t> frame;
    appendPredictRequest(frame, id, req);
    return frame;
}

/** Drain every complete frame, appending copies of the views. */
std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>>
drain(FrameParser &p)
{
    std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>> out;
    FrameView f;
    while (p.next(f))
        out.emplace_back(f.header,
                         std::vector<std::uint8_t>(
                             f.payload, f.payload + f.header.len));
    return out;
}

TEST(FrameParser, ByteAtATimeRecoversEveryFrame)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        auto frame = predictFrame(id, static_cast<std::size_t>(id * 3));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }

    FrameParser parser;
    std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>> got;
    for (std::uint8_t byte : stream) {
        ASSERT_TRUE(parser.feed(&byte, 1));
        auto frames = drain(parser);
        got.insert(got.end(), frames.begin(), frames.end());
    }

    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t id = 1; id <= 5; ++id) {
        const auto &[h, payload] = got[id - 1];
        EXPECT_EQ(h.id, id);
        EXPECT_EQ(h.op, static_cast<std::uint8_t>(Op::Predict));
        ASSERT_EQ(payload.size(), id * 3);
        for (std::size_t i = 0; i < payload.size(); ++i)
            EXPECT_EQ(payload[i], static_cast<std::uint8_t>(id + i));
    }
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_FALSE(parser.midFrame());
}

TEST(FrameParser, SplitAcrossReadsAtEveryBoundary)
{
    // One frame, split at every possible position: the parser must
    // yield exactly one identical frame regardless of the cut.
    const auto frame = predictFrame(42, 100);
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
        FrameParser parser;
        ASSERT_TRUE(parser.feed(frame.data(), cut));
        FrameView f;
        if (cut < frame.size()) {
            EXPECT_FALSE(parser.next(f)) << "cut at " << cut;
            EXPECT_EQ(parser.midFrame(), cut > 0);
        }
        ASSERT_TRUE(
            parser.feed(frame.data() + cut, frame.size() - cut));
        ASSERT_TRUE(parser.next(f)) << "cut at " << cut;
        EXPECT_EQ(f.header.id, 42u);
        ASSERT_EQ(f.header.len, 100u);
        EXPECT_EQ(f.payload[0], 42);
        EXPECT_FALSE(parser.next(f));
        EXPECT_FALSE(parser.midFrame());
    }
}

TEST(FrameParser, GarbagePrefixFramesWithoutDesync)
{
    // 16 garbage bytes parse as *some* header — the parser's contract
    // is framing, not semantics. Craft garbage whose u16 len field
    // frames a bogus payload, follow it with a real frame, and check
    // the real frame comes out intact right after the bogus one.
    std::uint8_t garbage[kRequestHeaderSize];
    std::memset(garbage, 0xAB, sizeof garbage);
    const std::uint16_t bogusLen = 37;
    std::memcpy(garbage + 14, &bogusLen, 2);

    std::vector<std::uint8_t> stream(garbage, garbage + sizeof garbage);
    stream.insert(stream.end(), bogusLen, 0xCD);
    const auto real = predictFrame(7, 20);
    stream.insert(stream.end(), real.begin(), real.end());

    FrameParser parser;
    ASSERT_TRUE(parser.feed(stream.data(), stream.size()));
    auto frames = drain(parser);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].first.op, 0xAB);
    EXPECT_EQ(frames[0].second.size(), bogusLen);
    EXPECT_EQ(frames[1].first.id, 7u);
    EXPECT_EQ(frames[1].first.op,
              static_cast<std::uint8_t>(Op::Predict));
    EXPECT_EQ(frames[1].second.size(), 20u);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, BufferedQuotaRejectsWithoutBuffering)
{
    FrameParser::Options opts;
    opts.maxBuffered = 64;
    FrameParser parser(opts);

    std::vector<std::uint8_t> partial(60, 0xEE); // no complete frame
    ASSERT_TRUE(parser.feed(partial.data(), partial.size()));
    EXPECT_EQ(parser.buffered(), 60u);

    // Overflowing feed is rejected whole and buffers nothing.
    std::vector<std::uint8_t> more(10, 0xEE);
    EXPECT_FALSE(parser.feed(more.data(), more.size()));
    EXPECT_EQ(parser.buffered(), 60u);

    // The parser stays consistent: room under the cap still works.
    EXPECT_TRUE(parser.feed(more.data(), 4));
    EXPECT_EQ(parser.buffered(), 64u);
}

TEST(FrameParser, CompactionPreservesPendingPartialFrame)
{
    // Drain a large consumed prefix, leave a partial frame, and keep
    // feeding: compaction must not lose or shift the partial bytes.
    FrameParser parser;
    for (std::uint64_t id = 1; id <= 40; ++id) {
        auto frame = predictFrame(id, 3000);
        ASSERT_TRUE(parser.feed(frame.data(), frame.size()));
        auto frames = drain(parser);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].first.id, id);
    }
    const auto last = predictFrame(99, 200);
    ASSERT_TRUE(parser.feed(last.data(), last.size() - 50));
    EXPECT_TRUE(parser.midFrame());
    ASSERT_TRUE(
        parser.feed(last.data() + last.size() - 50, 50));
    auto frames = drain(parser);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].first.id, 99u);
    ASSERT_EQ(frames[0].second.size(), 200u);
    EXPECT_EQ(frames[0].second[0], 99);
}

/** Every ServerStats field, in wire order (the retired slots skipped). */
std::vector<std::uint64_t *>
statsFields(ServerStats &s)
{
    return {&s.requests, &s.predictions, &s.batches, &s.maxBatch,
            &s.analysisCacheHits, &s.predictionCacheHits, &s.analyzed,
            &s.overloadedQueue, &s.overloadedConn, &s.readTimeouts,
            &s.quotaClosed, &s.connectionsShed, &s.connectionsAccepted,
            &s.connectionsOpen, &s.uptimeMs, &s.epollWakeups,
            &s.shortWrites, &s.ringFull, &s.drainSheds,
            &s.snapshotFallbacks, &s.snapshotLoadMode, &s.routedPredicts,
            &s.backendFailovers};
}

TEST(Protocol, StatsPayloadRoundTripsAllCounters)
{
    ServerStats s;
    std::uint64_t v = 1;
    for (std::uint64_t *field : statsFields(s))
        *field = v++;

    std::vector<std::uint8_t> frame;
    appendStatsResponse(frame, 5, s);
    ResponseHeader h = parseResponseHeader(frame.data());
    ASSERT_EQ(h.len, kStatsFields * 8);
    std::vector<std::uint8_t> payload(frame.begin() + kResponseHeaderSize,
                                      frame.end());

    // Slots 18, 19, 23 and 26 are retired and encode 0; every other
    // slot carries the next field in declaration order.
    const auto retired = [](std::size_t slot) {
        return slot == 18 || slot == 19 || slot == 23 || slot == 26;
    };
    std::uint64_t want = 1;
    for (std::size_t slot = 0; slot < kStatsFields; ++slot)
        EXPECT_EQ(getU64(payload.data() + 8 * slot),
                  retired(slot) ? 0 : want++)
            << "slot " << slot;
    EXPECT_EQ(want, statsFields(s).size() + 1);

    auto back = decodeStatsPayload(payload.data(), payload.size());
    ASSERT_TRUE(back.has_value());
    const auto sent = statsFields(s), got = statsFields(*back);
    for (std::size_t i = 0; i < sent.size(); ++i)
        EXPECT_EQ(*got[i], *sent[i]) << "field " << i;

    // An older server may still send nonzero values in the retired
    // slots: the payload decodes, and no value leaks into a field.
    for (std::size_t slot = 0; slot < kStatsFields; ++slot)
        if (retired(slot)) {
            std::uint8_t *q = payload.data() + 8 * slot;
            putU64(q, 1000 + slot);
        }
    auto old = decodeStatsPayload(payload.data(), payload.size());
    ASSERT_TRUE(old.has_value());
    const auto oldGot = statsFields(*old);
    for (std::size_t i = 0; i < sent.size(); ++i)
        EXPECT_EQ(*oldGot[i], *sent[i]) << "field " << i;
}

TEST(Protocol, StatsPayloadIsAppendOnlyAcrossVersions)
{
    ServerStats s;
    s.requests = 7;
    s.uptimeMs = 42;
    s.epollWakeups = 99;
    std::vector<std::uint8_t> frame;
    appendStatsResponse(frame, 5, s);
    const std::uint8_t *payload = frame.data() + kResponseHeaderSize;

    // A v1 (15-field, thread-per-connection era) payload still
    // decodes; the appended fields read as zero.
    auto v1 = decodeStatsPayload(payload, kStatsFieldsV1 * 8);
    ASSERT_TRUE(v1.has_value());
    EXPECT_EQ(v1->requests, 7u);
    EXPECT_EQ(v1->uptimeMs, 42u);
    EXPECT_EQ(v1->epollWakeups, 0u);

    // A PR 7-era (18-field) payload decodes with the PR 8
    // fault-tolerance counters reading zero.
    auto v18 = decodeStatsPayload(payload, 18 * 8);
    ASSERT_TRUE(v18.has_value());
    EXPECT_EQ(v18->epollWakeups, 99u);
    EXPECT_EQ(v18->drainSheds, 0u);
    EXPECT_EQ(v18->snapshotFallbacks, 0u);

    // A PR 8-era (22-field) payload decodes with the PR 9 snapshot
    // load-mode field reading zero.
    auto v22 = decodeStatsPayload(payload, 22 * 8);
    ASSERT_TRUE(v22.has_value());
    EXPECT_EQ(v22->snapshotLoadMode, 0u);

    // A future server may append more fields; unknown extras are
    // ignored, not rejected.
    std::vector<std::uint8_t> longer(payload,
                                     payload + kStatsFields * 8);
    longer.resize(longer.size() + 16, 0xab);
    auto future = decodeStatsPayload(longer.data(), longer.size());
    ASSERT_TRUE(future.has_value());
    EXPECT_EQ(future->requests, 7u);
    EXPECT_EQ(future->epollWakeups, 99u);

    // Below the v1 floor, or not a whole number of u64s: malformed.
    EXPECT_FALSE(decodeStatsPayload(payload, (kStatsFieldsV1 - 1) * 8)
                     .has_value());
    EXPECT_FALSE(
        decodeStatsPayload(payload, kStatsFieldsV1 * 8 + 3).has_value());
}

/** A PREDICT response payload listing @p n valid component bytes. */
std::vector<std::uint8_t>
payloadWithBottlenecks(std::size_t n)
{
    std::vector<std::uint8_t> p(72, 0);
    p[65] = static_cast<std::uint8_t>(n);
    for (std::size_t i = 0; i < n; ++i)
        p.push_back(static_cast<std::uint8_t>(i % model::kNumComponents));
    return p;
}

TEST(Protocol, PredictPayloadListsAtMostOneBottleneckPerComponent)
{
    const std::vector<std::uint8_t> all =
        payloadWithBottlenecks(model::kNumComponents);
    model::Prediction out;
    ASSERT_TRUE(decodePredictInto(all.data(), all.size(), out));
    EXPECT_EQ(out.bottlenecks.size(),
              static_cast<std::size_t>(model::kNumComponents));

    // More entries than components is malformed, and is rejected
    // before anything is written.
    for (std::size_t n : {std::size_t{8}, std::size_t{255}}) {
        const std::vector<std::uint8_t> p = payloadWithBottlenecks(n);
        model::Prediction untouched;
        untouched.throughput = 42.0;
        EXPECT_FALSE(decodePredictInto(p.data(), p.size(), untouched)) << n;
        EXPECT_EQ(untouched.throughput, 42.0) << n;
        EXPECT_TRUE(untouched.bottlenecks.empty()) << n;
        EXPECT_FALSE(decodePredictPayload(p.data(), p.size()).has_value())
            << n;
    }
}

TEST(Protocol, ProtocolErrorCarriesWireStatus)
{
    ProtocolError overloaded("server overloaded", Status::Overloaded);
    EXPECT_EQ(overloaded.status(), Status::Overloaded);
    EXPECT_TRUE(std::string(overloaded.what()).find("protocol:") == 0);

    ProtocolError local("malformed payload");
    EXPECT_EQ(local.status(), Status::Ok); // no wire status involved

    // ProtocolError is a runtime_error: code catching the old type
    // still catches the new one.
    EXPECT_THROW(throw ProtocolError("x"), std::runtime_error);
}

} // namespace
} // namespace facile::server
