/**
 * @file
 * Tests for the warm-start snapshot (src/analysis/snapshot.h).
 *
 * The core contracts: (1) an engine's prediction cache round-trips
 * through an image and serves hits immediately; (2) a *fresh process*
 * started from a snapshot produces bit-identical predictions to a cold
 * process over the full suite on all nine arches (child-process
 * probes); (3) corrupted, truncated, or version-mismatched files are
 * rejected without committing anything, and the generation walk falls
 * back past them; (4) saves are atomic and leave every kept generation
 * loadable, whatever fails mid-save.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "corpus/sections.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "facile/predictor.h"
#include "testing/fault.h"

namespace facile {
namespace {

using eval::samePrediction;

/** A randomized suite distinct from the default evaluation seed. */
const std::vector<bhive::Benchmark> &
snapshotSuite()
{
    static const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(0x5eedfac5a9ULL, 5);
    return suite;
}

/** TPU and TPL of the whole suite on every arch. */
const std::vector<engine::Request> &
suiteRequests()
{
    static const std::vector<engine::Request> reqs = [] {
        std::vector<engine::Request> out;
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : snapshotSuite()) {
                out.push_back({b.bytesU, arch, false, {}});
                out.push_back({b.bytesL, arch, true, {}});
            }
        return out;
    }();
    return reqs;
}

/** An engine whose prediction cache holds the whole suite. */
engine::PredictionEngine &
warmEngine()
{
    static engine::PredictionEngine *const eng = [] {
        auto *e = new engine::PredictionEngine({.numThreads = 2});
        e->predictBatch(suiteRequests());
        return e;
    }();
    return *eng;
}

analysis::SnapshotOptions
warm()
{
    return {&warmEngine()};
}

std::string
tmpPath(const char *tag)
{
    return "test_snapshot_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin";
}

/** Bit-sensitive digest over throughputs and component values. */
std::uint64_t
digestOf(const std::vector<model::Prediction> &preds)
{
    corpus::Xxh64State h;
    for (const model::Prediction &p : preds) {
        h.update(&p.throughput, sizeof p.throughput);
        h.update(p.componentValue.data(),
                 sizeof(double) * p.componentValue.size());
    }
    return h.digest();
}

/** Digest of serial analyze + predict over the suite requests. */
std::uint64_t
suiteDigest()
{
    std::vector<model::Prediction> preds;
    for (const engine::Request &r : suiteRequests())
        preds.push_back(model::predict(bb::analyze(r.bytes, r.arch), r.loop,
                                       r.config, model::tlsPredictScratch(),
                                       r.payload));
    return digestOf(preds);
}

/** Read the whole file (for the in-memory entry-point tests). */
std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
}

/** Overwrite @p path with @p bytes. */
void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

/** Entries in @p eng's prediction cache. */
std::size_t
cacheSize(const engine::PredictionEngine &eng)
{
    return eng.exportPredictionCache(
        [](const std::string &, const model::Prediction &) {});
}

/** Decode the section table of an image (validated, file order). */
std::vector<corpus::SectionEntry>
sectionTable(const std::vector<std::uint8_t> &img)
{
    EXPECT_GE(img.size(), 64u);
    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 20, 4);
    return corpus::decodeSectionTable(img.data() + 64, img.size() - 64,
                                      count, img.size());
}

/**
 * Re-stamp every section hash, the table, the file size and the header
 * hash after editing @p img, so only the edit itself can fail a load.
 */
void
restamp(std::vector<std::uint8_t> &img,
        std::vector<corpus::SectionEntry> table)
{
    for (corpus::SectionEntry &e : table)
        e.hash = corpus::xxh64(img.data() + e.offset, e.length);
    const std::vector<std::uint8_t> tbl = corpus::encodeSectionTable(table);
    std::copy(tbl.begin(), tbl.end(), img.begin() + 64);
    const std::uint64_t fileBytes = img.size();
    std::memcpy(img.data() + 24, &fileBytes, 8);
    const std::uint64_t tableHash =
        corpus::xxh64(img.data() + 64, tbl.size());
    std::memcpy(img.data() + 40, &tableHash, 8);
    const std::uint64_t headerHash = corpus::xxh64(img.data(), 48);
    std::memcpy(img.data() + 48, &headerHash, 8);
}

/** An image of the first @p n predictions of a full save. */
std::vector<std::uint8_t>
smallImage(std::size_t n)
{
    const std::vector<std::uint8_t> img =
        analysis::saveSnapshotToMemory(warm());
    analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    m.predictions.resize(n);
    return analysis::buildSnapshotImage(m);
}

TEST(Snapshot, EnginePredictionCacheRoundTrip)
{
    std::vector<engine::Request> batch;
    for (const auto &b : snapshotSuite())
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {}});

    engine::PredictionEngine::Options opts;
    opts.numThreads = 2;
    engine::PredictionEngine source(opts);
    const std::vector<model::Prediction> expected =
        source.predictBatch(batch);

    const std::string path = tmpPath("engine");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(path, {&source});
    EXPECT_GE(saved.predictions, batch.size());

    engine::PredictionEngine restored(opts);
    const analysis::SnapshotStats loaded =
        analysis::loadSnapshot(path, {&restored});
    EXPECT_EQ(loaded.predictions, saved.predictions);
    EXPECT_EQ(loaded.loadMode, analysis::SnapshotLoadMode::Parsed);

    engine::BatchStats bs;
    const std::vector<model::Prediction> out =
        restored.predictBatch(batch, &bs);
    EXPECT_EQ(bs.predictionCacheHits, batch.size());
    EXPECT_EQ(bs.analyzed, 0u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(samePrediction(out[i], expected[i])) << i;

    // Loading into an engine that already holds the keys changes
    // nothing: the live entries win.
    analysis::loadSnapshot(path, {&restored});
    EXPECT_EQ(cacheSize(restored), saved.predictions);
    std::remove(path.c_str());
}

TEST(Snapshot, MemoryLoadMatchesFileLoad)
{
    const std::string path = tmpPath("memload");
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path, warm());
    ASSERT_EQ(saved.predictions, cacheSize(warmEngine()));

    engine::PredictionEngine fromFile({.numThreads = 1});
    const analysis::SnapshotStats file =
        analysis::loadSnapshot(path, {&fromFile, 1});
    const std::vector<std::uint8_t> img = slurpFile(path);
    std::remove(path.c_str());
    engine::PredictionEngine fromMemory({.numThreads = 1});
    const analysis::SnapshotStats mem = analysis::loadSnapshotFromMemory(
        img.data(), img.size(), {&fromMemory});

    // One parse-and-commit path: same report, same cache contents.
    for (const analysis::SnapshotStats &st : {file, mem}) {
        EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Parsed);
        EXPECT_EQ(st.predictions, saved.predictions);
        EXPECT_EQ(st.bytes, img.size());
        EXPECT_EQ(st.generation, 0u);
    }
    EXPECT_EQ(analysis::saveSnapshotToMemory({&fromFile}),
              analysis::saveSnapshotToMemory({&fromMemory}));
}

TEST(Snapshot, ValidateAndFailedLoadsCommitNothing)
{
    const std::vector<std::uint8_t> good =
        analysis::saveSnapshotToMemory(warm());
    const analysis::SnapshotStats st =
        analysis::validateSnapshot(good.data(), good.size());
    EXPECT_EQ(st.predictions, cacheSize(warmEngine()));
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::None);

    // Every entry of this image is valid, but one stray byte trails
    // the last of them: the parse reaches the end and only then
    // fails. None of the valid entries may be committed.
    std::vector<std::uint8_t> bad = good;
    std::vector<corpus::SectionEntry> table = sectionTable(bad);
    ASSERT_EQ(table.size(), 1u);
    ASSERT_EQ(table[0].offset + table[0].length, bad.size());
    bad.push_back(0);
    table[0].length += 1;
    restamp(bad, table);

    engine::PredictionEngine eng({.numThreads = 1});
    EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::loadSnapshotFromMemory(bad.data(), bad.size(),
                                                  {&eng}),
                 analysis::SnapshotError);
    EXPECT_EQ(cacheSize(eng), 0u);

    const std::string path = tmpPath("badload");
    writeFile(path, bad);
    EXPECT_THROW(analysis::loadSnapshot(path, {&eng, 1}),
                 analysis::SnapshotError);
    EXPECT_EQ(cacheSize(eng), 0u);
    std::remove(path.c_str());
}

TEST(Snapshot, ForgedPredictionCountIsRejected)
{
    // A table entry and payload both claiming 2^32-1 predictions over
    // a two-entry section must be rejected (both hashes are unkeyed,
    // so an attacker can stamp any count they like).
    std::vector<std::uint8_t> img = smallImage(2);
    std::vector<corpus::SectionEntry> table = sectionTable(img);
    ASSERT_EQ(table[0].type, 3u);
    table[0].itemCount = 0xFFFFFFFFu;
    const std::uint32_t forged = 0xFFFFFFFFu;
    std::memcpy(img.data() + table[0].offset, &forged, 4);
    restamp(img, table);

    EXPECT_THROW(analysis::validateSnapshot(img.data(), img.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::loadSnapshotFromMemory(img.data(), img.size()),
                 analysis::SnapshotError);
}

/**
 * A one-entry image whose prediction payload is forged to list @p n
 * valid component bytes as its bottlenecks.
 */
std::vector<std::uint8_t>
imageWithBottlenecks(std::size_t n)
{
    std::vector<std::uint8_t> img = smallImage(1);
    std::vector<corpus::SectionEntry> table = sectionTable(img);
    EXPECT_EQ(table[0].offset + table[0].length, img.size());
    // Section: u32 count, then u32 keyLen, key, u32 payloadLen, payload.
    std::size_t pos = table[0].offset + 4;
    std::uint32_t keyLen = 0;
    std::memcpy(&keyLen, img.data() + pos, 4);
    pos += 4 + keyLen;
    std::vector<std::uint8_t> payload(img.begin() + pos + 4,
                                      img.begin() + pos + 4 + 72);
    payload[65] = static_cast<std::uint8_t>(n);
    std::fill(payload.begin() + 66, payload.begin() + 70, 0); // no chains
    for (std::size_t i = 0; i < n; ++i)
        payload.push_back(
            static_cast<std::uint8_t>(i % model::kNumComponents));
    img.resize(pos + 4);
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(img.data() + pos, &len, 4);
    img.insert(img.end(), payload.begin(), payload.end());
    table[0].length = img.size() - table[0].offset;
    restamp(img, table);
    return img;
}

TEST(Snapshot, PredictionWithMoreBottlenecksThanComponentsIsRejected)
{
    // The forgery itself is sound: all seven components load.
    const std::vector<std::uint8_t> seven =
        imageWithBottlenecks(model::kNumComponents);
    engine::PredictionEngine ok({.numThreads = 1});
    EXPECT_EQ(analysis::loadSnapshotFromMemory(seven.data(), seven.size(),
                                               {&ok})
                  .predictions,
              1u);

    const std::vector<std::uint8_t> img = imageWithBottlenecks(8);
    engine::PredictionEngine eng({.numThreads = 1});
    EXPECT_THROW(analysis::validateSnapshot(img.data(), img.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::loadSnapshotFromMemory(img.data(), img.size(),
                                                  {&eng}),
                 analysis::SnapshotError);
    EXPECT_EQ(cacheSize(eng), 0u);
}

TEST(Snapshot, EveryTruncationRejected)
{
    // Every proper prefix must throw, never crash or return garbage.
    const std::vector<std::uint8_t> img = smallImage(3);
    EXPECT_NO_THROW(analysis::validateSnapshot(img.data(), img.size()));
    for (std::size_t cut = 0; cut < img.size(); ++cut)
        EXPECT_THROW(analysis::validateSnapshot(img.data(), cut),
                     analysis::SnapshotError)
            << "prefix length " << cut;
}

/**
 * Child half of the fresh-process property: when the probe env vars
 * are set (by FreshProcessBitIdentity, in a *child* process), load the
 * snapshot into a fresh engine unless none is given, predict the whole
 * suite through it, and write the digest and the prediction-cache hit
 * count for the parent. In a normal test run the env vars are unset
 * and this is a skip.
 */
TEST(SnapshotProbe, Emit)
{
    const char *out = std::getenv("FACILE_SNAPSHOT_PROBE_OUT");
    if (!out)
        GTEST_SKIP() << "probe mode only (spawned by "
                        "FreshProcessBitIdentity)";
    engine::PredictionEngine eng({.numThreads = 1});
    if (const char *snap = std::getenv("FACILE_SNAPSHOT_PROBE_SNAP")) {
        const analysis::SnapshotStats st =
            analysis::loadSnapshot(snap, {&eng});
        ASSERT_EQ(st.loadMode, analysis::SnapshotLoadMode::Parsed);
        ASSERT_GT(st.predictions, 0u);
    }
    engine::BatchStats bs;
    const std::uint64_t digest =
        digestOf(eng.predictBatch(suiteRequests(), &bs));
    std::FILE *f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%016llx %llu\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(bs.predictionCacheHits));
    std::fclose(f);
}

/** What one SnapshotProbe.Emit child reported. */
struct ProbeResult
{
    unsigned long long digest = 0;
    unsigned long long hits = 0;
};

/**
 * Run SnapshotProbe.Emit in a child — a genuinely cold process, this
 * test binary re-run via /proc/self/exe — that loads @p snap first
 * (unless empty). @return false when the child failed or reported
 * nothing.
 */
bool
runProbe(const std::string &snap, ProbeResult &r)
{
    // /proc/self/exe must be resolved here: inside std::system's shell
    // child it would name the shell, not this binary.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        return false;
    self[n] = '\0';
    const std::string out = tmpPath("probe_out");
    std::string cmd = "FACILE_SNAPSHOT_PROBE_OUT='" + out + "' ";
    if (!snap.empty())
        cmd += "FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ";
    cmd += "'" + std::string(self) +
           "' --gtest_filter=SnapshotProbe.Emit >/dev/null 2>&1";
    if (std::system(cmd.c_str()) != 0)
        return false;
    std::FILE *f = std::fopen(out.c_str(), "r");
    if (!f)
        return false;
    const bool ok = std::fscanf(f, "%llx %llu", &r.digest, &r.hits) == 2;
    std::fclose(f);
    std::remove(out.c_str());
    return ok;
}

/**
 * The headline property: a fresh process warm-started from a snapshot
 * answers the whole suite (all nine arches, both notions) from its
 * prediction cache, bit-identically to a fresh cold process. Runs this
 * test binary twice as a child via /proc/self/exe — each child is a
 * genuinely cold process.
 */
TEST(Snapshot, FreshProcessBitIdentity)
{
    const std::string snap = tmpPath("fresh");
    analysis::saveSnapshot(snap, warm());

    ProbeResult cold, hot;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(snap, hot));
    EXPECT_EQ(cold.digest, hot.digest);
    EXPECT_LT(cold.hits, hot.hits);
    EXPECT_EQ(hot.hits, suiteRequests().size());
    // And both match serial analysis in this process.
    EXPECT_EQ(cold.digest, suiteDigest());
    std::remove(snap.c_str());
}

// ---- crash safety: atomic writes + generation rotation + fallback ----------

bool
fileExists(const std::string &p)
{
    std::FILE *f = std::fopen(p.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

/** Replace @p p with the first @p len bytes of @p full (a torn write). */
void
writeTorn(const std::string &p, const std::vector<std::uint8_t> &full,
          std::size_t len)
{
    ASSERT_LE(len, full.size());
    writeFile(p, std::vector<std::uint8_t>(
                     full.begin(),
                     full.begin() + static_cast<std::ptrdiff_t>(len)));
}

void
removeGenerations(const std::string &path)
{
    for (int g = 0; g < analysis::kSnapshotGenerations + 1; ++g)
        std::remove(analysis::snapshotGenerationPath(path, g).c_str());
}

TEST(SnapshotCrashSafety, GenerationPathLayout)
{
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 0),
              "snap.bin");
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 1),
              "snap.bin.g1");
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 2),
              "snap.bin.g2");
}

TEST(SnapshotCrashSafety, SavesRotateGenerationsAndLeaveNoTempFiles)
{
    const std::string path = tmpPath("rotate");
    removeGenerations(path);

    analysis::saveSnapshot(path, warm());
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".g1")) << "one save, one generation";

    analysis::saveSnapshot(path, warm());
    EXPECT_TRUE(fileExists(path + ".g1"));
    analysis::saveSnapshot(path, warm());
    EXPECT_TRUE(fileExists(path + ".g2"));
    analysis::saveSnapshot(path, warm());
    // kSnapshotGenerations == 3: nothing rotates beyond .g2.
    EXPECT_FALSE(fileExists(path + ".g3"));

    // The staging file never outlives a save (atomic temp + rename).
    EXPECT_FALSE(fileExists(path + ".tmp." +
                            std::to_string(::getpid())));

    // Every kept generation is independently loadable.
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g) {
        const analysis::SnapshotStats st = analysis::loadSnapshot(
            analysis::snapshotGenerationPath(path, g), {});
        EXPECT_EQ(st.predictions, cacheSize(warmEngine()))
            << "generation " << g;
        EXPECT_EQ(st.generation, 0u)
            << "direct load, no fallback involved";
    }
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, TornPrimaryFallsBackToPreviousGeneration)
{
    const std::string path = tmpPath("torn");
    removeGenerations(path);

    const analysis::SnapshotStats first =
        analysis::saveSnapshot(path, warm());
    analysis::saveSnapshot(path, warm()); // rotates the first to .g1
    const std::vector<std::uint8_t> primary = slurpFile(path);

    // A SIGKILL mid-write (without the atomic temp) would leave a
    // prefix of the image; emulate every interesting tear point and
    // require the loader to land on .g1 each time.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          primary.size() / 3, primary.size() / 2, primary.size() - 1}) {
        writeTorn(path, primary, cut);
        engine::PredictionEngine eng({.numThreads = 1});
        const analysis::SnapshotStats st =
            analysis::loadSnapshot(path, {&eng});
        EXPECT_EQ(st.generation, 1u) << "cut " << cut;
        EXPECT_EQ(st.predictions, first.predictions) << "cut " << cut;
        EXPECT_EQ(cacheSize(eng), first.predictions) << "cut " << cut;
    }

    // With the fallback gone too, the walk must report the root cause.
    std::remove((path + ".g1").c_str());
    writeTorn(path, primary, 31);
    EXPECT_THROW(analysis::loadSnapshot(path), analysis::SnapshotError);
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, FallbackWarmStartIsBitIdenticalInFreshProcess)
{
    // The chaos-restart property at snapshot granularity: a fresh
    // process pointed at a torn primary with a good .g1 behind it
    // must warm-start bit-identically to a cold run. Reuses the
    // SnapshotProbe.Emit child (it calls loadSnapshot, which walks
    // generations).
    const std::string snap = tmpPath("fallback");
    removeGenerations(snap);
    analysis::saveSnapshot(snap, warm());
    analysis::saveSnapshot(snap, warm());
    {
        const std::vector<std::uint8_t> primary = slurpFile(snap);
        writeTorn(snap, primary, primary.size() / 2);
    }

    ProbeResult cold, hot;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(snap, hot));
    EXPECT_EQ(cold.digest, hot.digest);
    EXPECT_EQ(hot.hits, suiteRequests().size());
    removeGenerations(snap);
}

/**
 * Injected save-time crashes (torn staging write, failed fsync,
 * failed rotation, failed commit rename): every failure mode must
 * abort the save with the previous on-disk state fully loadable —
 * the acceptance bar "no save failure leaves the on-disk state
 * unloadable". Skips in builds without FACILE_FAULT_INJECT.
 */
TEST(SnapshotCrashSafety, InjectedSaveFailuresNeverCorruptOnDiskState)
{
    if (!testing::kFaultInjection)
        GTEST_SKIP() << "built without FACILE_FAULT_INJECT";
    testing::resetFaults();
    const std::string path = tmpPath("inject");
    removeGenerations(path);
    const analysis::SnapshotStats good =
        analysis::saveSnapshot(path, warm());

    struct Case {
        const char *site;
        facile::testing::FaultSpec spec;
    };
    const Case cases[] = {
        {"snapshot.open", {.firstHit = 0, .count = 1, .err = EACCES}},
        {"snapshot.write", {.firstHit = 0, .count = 1, .err = ENOSPC}},
        // The torn write proper: stage only 100 bytes of the image.
        {"snapshot.write",
         {.firstHit = 0, .count = 1, .clampBytes = 100}},
        {"snapshot.fsync", {.firstHit = 0, .count = 1, .err = EIO}},
        {"snapshot.rotate", {.firstHit = 0, .count = 1, .err = EACCES}},
        {"snapshot.rename", {.firstHit = 0, .count = 1, .err = EACCES}},
    };
    for (const Case &c : cases) {
        testing::resetFaults();
        testing::armFault(c.site, c.spec);
        EXPECT_THROW(analysis::saveSnapshot(path, warm()),
                     analysis::SnapshotError)
            << c.site;
        testing::resetFaults();
        // The failed save must not have torn what was there before...
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.predictions, good.predictions) << c.site;
        // ...nor leaked its staging file.
        EXPECT_FALSE(fileExists(path + ".tmp." +
                                std::to_string(::getpid())))
            << c.site;
    }

    // Special case: a commit-rename failure AFTER rotation leaves the
    // primary name vacant — the generation walk must still recover
    // via .g1 (the image the rotation preserved).
    analysis::saveSnapshot(path, warm()); // ensure .g1 exists
    testing::armFault("snapshot.rename",
                      {.firstHit = testing::faultHits("snapshot.rename"),
                       .count = 1, .err = EACCES});
    EXPECT_THROW(analysis::saveSnapshot(path, warm()),
                 analysis::SnapshotError);
    testing::resetFaults();
    EXPECT_FALSE(fileExists(path)) << "rotation moved the primary away";
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.predictions, good.predictions);
    removeGenerations(path);
}

// ---- the image: layout and corruption ---------------------------------------

TEST(SnapshotImage, HeaderTableAndTailCorruptionRejected)
{
    const std::string path = tmpPath("corrupt");
    removeGenerations(path);
    analysis::saveSnapshot(path, warm());
    const std::vector<std::uint8_t> file = slurpFile(path);
    const std::vector<corpus::SectionEntry> table = sectionTable(file);
    ASSERT_EQ(table.size(), 1u);
    // The predictions section follows the table directly.
    EXPECT_EQ(table[0].offset, 64u + 64u);
    EXPECT_EQ(table[0].offset + table[0].length, file.size());

    // Truncations: header, table, section, mid-image, last byte.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          std::size_t{63}, std::size_t{127}, file.size() / 2,
          file.size() - 1}) {
        writeTorn(path, file, cut);
        EXPECT_THROW(analysis::loadSnapshot(path, {.generations = 1}),
                     analysis::SnapshotError)
            << "truncated to " << cut;
    }

    // Single-byte header damage: magic, version, endian tag, page
    // size, section count, file size, table offset, table hash,
    // header hash, reserved tail.
    for (std::size_t off : {std::size_t{0}, std::size_t{8},
                            std::size_t{12}, std::size_t{16},
                            std::size_t{20}, std::size_t{24},
                            std::size_t{32}, std::size_t{40},
                            std::size_t{48}, std::size_t{56}}) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x01;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path, {.generations = 1}),
                     analysis::SnapshotError)
            << "header flip at " << off;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "header flip at " << off;
    }

    // Table damage is caught by the table hash wherever it lands.
    for (std::size_t off = 64; off < 128; off += 13) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x80;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path, {.generations = 1}),
                     analysis::SnapshotError)
            << "table flip at " << off;
    }

    // Tail damage is caught by the section hash wherever it lands.
    for (std::size_t off = table[0].offset; off < file.size();
         off += 97) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x5a;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path, {.generations = 1}),
                     analysis::SnapshotError)
            << "section flip at " << off;
    }

    // Sections of the retired types (version 2's instruction records
    // and fused pairs) are rejected even under a valid hash.
    for (std::uint32_t retired : {1u, 2u}) {
        std::vector<std::uint8_t> bad = file;
        std::vector<corpus::SectionEntry> t = table;
        t[0].type = retired;
        restamp(bad, t);
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "section type " << retired;
    }

    // The pristine image still loads (the harness is not lossy).
    writeFile(path, file);
    EXPECT_NO_THROW(analysis::loadSnapshot(path));
    removeGenerations(path);
}

TEST(SnapshotImage, OldMagicAndVersionTwoGenerationsAreSkipped)
{
    const std::string path = tmpPath("oldimages");
    removeGenerations(path);

    // History: three saves (primary, .g1, .g2). Then the primary is
    // replaced by an image carrying the retired "FACSNAP\n" magic, and
    // .g1 by a version-2 image (version 2's header, validly hashed).
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(path, warm());
    analysis::saveSnapshot(path, warm());
    analysis::saveSnapshot(path, warm());
    std::vector<std::uint8_t> old = slurpFile(path);
    std::memcpy(old.data(), "FACSNAP\n", 8);
    writeFile(path, old);
    std::vector<std::uint8_t> v2 = slurpFile(path + ".g1");
    const std::uint32_t two = 2;
    std::memcpy(v2.data() + 8, &two, 4);
    restamp(v2, sectionTable(v2));
    writeFile(path + ".g1", v2);
    try {
        analysis::validateSnapshot(v2.data(), v2.size());
        ADD_FAILURE() << "a version-2 image validated";
    } catch (const analysis::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
                  std::string::npos)
            << e.what();
    }

    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 2u);
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Parsed);
    EXPECT_EQ(st.predictions, saved.predictions);
    removeGenerations(path);
}

TEST(SnapshotImage, RebuildIsByteIdentical)
{
    // The contract snaptool merge/compact rely on:
    // buildSnapshotImage(parseSnapshotModel(img)) == img, bit for bit —
    // with and without a prediction-cache section aboard.
    engine::PredictionEngine *const engines[] = {nullptr, &warmEngine()};
    for (engine::PredictionEngine *e : engines) {
        const std::vector<std::uint8_t> img =
            analysis::saveSnapshotToMemory({e});
        const analysis::SnapshotModel m =
            analysis::parseSnapshotModel(img.data(), img.size());
        EXPECT_EQ(m.hasPredictions, e != nullptr);
        EXPECT_EQ(analysis::buildSnapshotImage(m), img);
    }
}

} // namespace
} // namespace facile
