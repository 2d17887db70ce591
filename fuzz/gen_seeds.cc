/**
 * @file
 * Seed-corpus generator: writes small, *valid* inputs for each format
 * into <outdir>/{decoder,protocol,snapshot,corpus}/ using the repo's
 * own encoders, so the checked-in fuzz/corpus/ set starts every fuzz
 * run (and every replay) deep inside the parsers instead of at "bad
 * magic". Deterministic: same build, same bytes.
 *
 * Usage: fuzz_gen_seeds <outdir>
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "corpus/corpus.h"
#include "engine/engine.h"
#include "server/protocol.h"
#include "uarch/config.h"

namespace fs = std::filesystem;
using namespace facile;

namespace {

void
writeSeed(const fs::path &dir, const std::string &name,
          const std::vector<std::uint8_t> &bytes)
{
    fs::create_directories(dir);
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("cannot write " +
                                 (dir / name).string());
}

/** A prediction whose eight doubles are all @p v. */
model::Prediction
flatPrediction(double v)
{
    model::Prediction p;
    p.throughput = v;
    p.componentValue.fill(v);
    return p;
}

/** A double with exactly the bit pattern @p bits. */
double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

/**
 * A snapshot image of @p entries, in order, each prediction as the
 * wire codec encodes it.
 */
std::vector<std::uint8_t>
imageOf(const std::vector<std::pair<std::string, model::Prediction>> &entries)
{
    analysis::SnapshotModel m;
    m.hasPredictions = true;
    for (const auto &[key, p] : entries) {
        std::vector<std::uint8_t> frame;
        server::appendPredictResponse(frame, 0, p);
        m.predictions.emplace_back(
            key, std::vector<std::uint8_t>(
                     frame.begin() + server::kResponseHeaderSize,
                     frame.end()));
    }
    return analysis::buildSnapshotImage(m);
}

/** A cache key: the 4-byte header, then the block bytes. */
std::string
cacheKey(bool loop, bool full, uarch::UArch arch,
         const std::vector<std::uint8_t> &bytes)
{
    const std::uint16_t cfg = model::ModelConfig{}.packBits();
    std::string key;
    key += static_cast<char>((loop ? 1 : 0) | (full ? 2 : 0));
    key += static_cast<char>(cfg & 0xff);
    key += static_cast<char>(cfg >> 8);
    key += static_cast<char>(arch);
    key.append(bytes.begin(), bytes.end());
    return key;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
        return 2;
    }
    const fs::path out(argv[1]);

    // Real encoded blocks from the BHive-substitute generator: one U
    // and one L variant from a couple of categories.
    const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(20231020, 1);

    // ---- decoder: [arch byte][block bytes] ---------------------------------
    {
        int i = 0;
        for (const auto &b : suite) {
            if (i >= 4)
                break;
            std::vector<std::uint8_t> seed;
            seed.push_back(static_cast<std::uint8_t>(i % 9));
            seed.insert(seed.end(), b.bytesU.begin(), b.bytesU.end());
            writeSeed(out / "decoder",
                      "block_" + bhive::categoryName(b.category),
                      seed);
            ++i;
        }
        // A single NOP — the smallest decodable block.
        writeSeed(out / "decoder", "nop", {0, 0x90});
        // imul rax, rbx; imul rbx, rax: a recurrence through two
        // carried values, so the precedence bound solves a 2x2 matrix.
        writeSeed(out / "decoder", "cross_value_recurrence",
                  {0, 0x48, 0x0f, 0xaf, 0xc3, 0x48, 0x0f, 0xaf, 0xd8});
    }

    // ---- protocol: request frame streams (mode byte first) -----------------
    {
        const auto &b = suite.front();
        engine::Request req{b.bytesL, uarch::UArch::SKL, true, {},
                            model::Payload::None};
        std::vector<std::uint8_t> stream;
        stream.push_back(3); // delivery mode: all at once
        server::appendPredictRequest(stream, 1, req);
        server::appendControlRequest(stream, 2, server::Op::Stats);
        server::appendControlRequest(stream, 3, server::Op::Ping);
        writeSeed(out / "protocol", "predict_stats_ping", stream);

        std::vector<std::uint8_t> tiny;
        tiny.push_back(0); // delivery mode: byte at a time
        server::appendControlRequest(tiny, 7, server::Op::Snapshot);
        writeSeed(out / "protocol", "snapshot_bytewise", tiny);
    }

    // ---- snapshot: a real saved image ---------------------------------------
    // The same seed feeds the snaptool harness (model parse + rebuild).
    {
        // An engine's prediction cache over two arches, both notions
        // and both payload depths, so the section carries every kind
        // of entry.
        engine::PredictionEngine eng({.numThreads = 1});
        std::vector<engine::Request> batch;
        for (const auto &b : suite)
            for (model::Payload payload :
                 {model::Payload::None, model::Payload::Full}) {
                batch.push_back(
                    {b.bytesU, uarch::UArch::SKL, false, {}, payload});
                batch.push_back(
                    {b.bytesL, uarch::UArch::HSW, true, {}, payload});
            }
        eng.predictBatch(batch);
        const std::vector<std::uint8_t> img =
            analysis::saveSnapshotToMemory({&eng});
        writeSeed(out / "snapshot", "two_arch_image_v3", img);
        writeSeed(out / "snaptool", "two_arch_image_v3", img);
    }

    // ---- snapshot: entries the cache must store exactly --------------------
    // Each image loads into an engine whose export must give back every
    // key's first-occurrence prediction byte for byte (fuzz_snapshot).
    {
        const std::vector<std::uint8_t> nop = {0x90};
        // Keys shorter than the 4-byte header, and a 4-byte key that
        // hashes like the 2-byte one zero-padded.
        writeSeed(out / "snapshot", "short_keys_v3",
                  imageOf({{"", flatPrediction(1.0)},
                           {std::string("\x01", 1), flatPrediction(2.0)},
                           {std::string("\x01\x02", 2), flatPrediction(3.0)},
                           {std::string("\x01\x02\x00\x00", 4),
                            flatPrediction(4.0)}}));

        // A Payload::None key whose prediction carries chains.
        model::Prediction chained = flatPrediction(5.0);
        chained.criticalChain = {0, 2, 1};
        chained.contendedPorts = 0x2a;
        chained.contendingInsts = {1, -1};
        writeSeed(out / "snapshot", "none_key_with_chains_v3",
                  imageOf({{cacheKey(true, false, uarch::UArch::SKL, nop),
                            chained}}));

        // NaN component values with payload bits, quiet and signalling,
        // beside -0 and infinity.
        model::Prediction nans = flatPrediction(6.0);
        nans.throughput = fromBits(0x7ff4000000000123ULL);
        nans.componentValue = {fromBits(0x7ff8000000000abcULL),
                               fromBits(0x7ff0000000000001ULL),
                               fromBits(0xfff8000000000002ULL),
                               fromBits(0x8000000000000000ULL),
                               fromBits(0x7ff0000000000000ULL),
                               6.0,
                               fromBits(0x7fffffffffffffffULL)};
        writeSeed(out / "snapshot", "nan_payload_components_v3",
                  imageOf({{cacheKey(false, false, uarch::UArch::HSW, nop),
                            nans}}));

        // A bottleneck list out of priority order with a repeat, then the
        // same key again with another prediction: the first one wins.
        model::Prediction unordered = flatPrediction(7.0);
        unordered.bottlenecks = {model::Component::Precedence,
                                 model::Component::Predec,
                                 model::Component::Precedence};
        unordered.primaryBottleneck = model::Component::Dec;
        const std::string key = cacheKey(true, true, uarch::UArch::ICL, nop);
        writeSeed(out / "snapshot", "unordered_bottlenecks_v3",
                  imageOf({{key, unordered}, {key, flatPrediction(8.0)}}));
    }

    // ---- corpus: a closed two-record file ----------------------------------
    {
        const fs::path tmp = out / "corpus.tmp";
        {
            corpus::Writer w(tmp.string());
            corpus::Entry e;
            e.arch = uarch::UArch::SKL;
            e.loop = false;
            e.bytes = suite.front().bytesU;
            w.append(e);
            e.arch = uarch::UArch::ICL;
            e.loop = true;
            e.hasMeasured = true;
            e.measured = 3.25;
            e.bytes = suite.front().bytesL;
            w.append(e);
            w.close();
        }
        std::ifstream in(tmp, std::ios::binary);
        std::vector<std::uint8_t> img(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        fs::remove(tmp);
        writeSeed(out / "corpus", "two_records", img);
    }

    std::printf("seeds written under %s\n", out.string().c_str());
    return 0;
}
