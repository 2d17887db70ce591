/**
 * @file
 * Tests for the warm-start snapshot (src/analysis/snapshot.h).
 *
 * The core contracts: (1) every interned record round-trips field for
 * field through an image; (2) save → load in the same process is an
 * append-only no-op (existing records win; predictions stay
 * bit-identical); (3) a *fresh process* started from a snapshot
 * produces bit-identical predictions to a cold process over the full
 * suite on all nine arches (child-process probes); (4) corrupted,
 * truncated, or version-mismatched files are rejected without
 * importing anything; (5) a restored engine prediction cache serves
 * hits immediately.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "corpus/sections.h"
#include "testing/fault.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "facile/predictor.h"

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

/** Analyze the suite on every arch so the interners have content. */
void
populateInterners()
{
    static const bool done = [] {
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : snapshotSuite()) {
                bb::analyze(b.bytesU, arch);
                bb::analyze(b.bytesL, arch);
            }
        return true;
    }();
    (void)done;
}

std::string
tmpPath(const char *tag)
{
    return "test_snapshot_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin";
}

/** Bit-sensitive digest over TPL+TPU predictions of the whole suite. */
std::uint64_t
suiteDigest()
{
    corpus::Xxh64State h;
    model::PredictScratch &scratch = model::tlsPredictScratch();
    for (uarch::UArch arch : uarch::allUArchs())
        for (const auto &b : snapshotSuite())
            for (bool loop : {false, true}) {
                const model::Prediction p = model::predict(
                    bb::analyze(loop ? b.bytesL : b.bytesU, arch), loop,
                    {}, scratch);
                h.update(&p.throughput, sizeof p.throughput);
                h.update(p.componentValue.data(),
                         sizeof(double) * p.componentValue.size());
            }
    return h.digest();
}

bool
sameRecord(const analysis::InstRecord &a, const analysis::InstRecord &b)
{
    if (a.dec.inst.mnem != b.dec.inst.mnem ||
        a.dec.inst.cc != b.dec.inst.cc ||
        a.dec.inst.nopLen != b.dec.inst.nopLen ||
        a.dec.inst.ops != b.dec.inst.ops ||
        a.dec.length != b.dec.length ||
        a.dec.opcodeOffset != b.dec.opcodeOffset ||
        a.dec.lcp != b.dec.lcp)
        return false;
    if (a.info.fusedUops != b.info.fusedUops ||
        a.info.issueUops != b.info.issueUops ||
        a.info.latency != b.info.latency ||
        a.info.needsComplexDecoder != b.info.needsComplexDecoder ||
        a.info.nAvailableSimpleDecoders !=
            b.info.nAvailableSimpleDecoders ||
        a.info.macroFusible != b.info.macroFusible ||
        a.info.eliminated != b.info.eliminated ||
        a.info.portUops.size() != b.info.portUops.size())
        return false;
    for (std::size_t i = 0; i < a.info.portUops.size(); ++i)
        if (a.info.portUops[i].ports != b.info.portUops[i].ports ||
            a.info.portUops[i].kind != b.info.portUops[i].kind)
            return false;
    if (a.rw.reads != b.rw.reads || a.rw.writes != b.rw.writes ||
        a.rw.depBreaking != b.rw.depBreaking)
        return false;
    if (a.depReads.size() != b.depReads.size())
        return false;
    for (std::size_t i = 0; i < a.depReads.size(); ++i)
        if (a.depReads[i].value != b.depReads[i].value ||
            std::memcmp(&a.depReads[i].latency, &b.depReads[i].latency,
                        sizeof(double)) != 0)
            return false;
    if (a.portMasks != b.portMasks || a.stackOp != b.stackOp ||
        a.depBreaking != b.depBreaking ||
        a.nWritesInl != b.nWritesInl || a.nDepInl != b.nDepInl)
        return false;
    if (a.nWritesInl != analysis::InstRecord::kSpilled)
        for (std::uint8_t i = 0; i < a.nWritesInl; ++i)
            if (a.writesInl[i] != b.writesInl[i])
                return false;
    if (a.nDepInl != analysis::InstRecord::kSpilled)
        for (std::uint8_t i = 0; i < a.nDepInl; ++i)
            if (a.depInl[i].value != b.depInl[i].value ||
                std::memcmp(&a.depInl[i].latency, &b.depInl[i].latency,
                            sizeof(double)) != 0)
                return false;
    return a.fuseClass == b.fuseClass && a.isJcc == b.isJcc &&
           a.jccReadsCf == b.jccReadsCf &&
           a.jccTestsSOP == b.jccTestsSOP;
}

TEST(Snapshot, RecordRoundTripAllArches)
{
    populateInterners();
    const std::vector<std::uint8_t> img = analysis::saveSnapshotToMemory();
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    EXPECT_EQ(m.arches.size(), uarch::allUArchs().size());

    std::map<std::pair<std::uint32_t, std::vector<std::uint8_t>>,
             const analysis::InstRecord *>
        parsed;
    for (const analysis::SnapshotModel::Arch &a : m.arches)
        for (const auto &[key, rec] : a.records)
            parsed.emplace(std::make_pair(a.arch, key), &rec);

    std::size_t checked = 0;
    for (uarch::UArch arch : uarch::allUArchs()) {
        const auto archWord = static_cast<std::uint32_t>(arch);
        analysis::InstInterner::forArch(arch).exportRecords(
            [&](const std::uint8_t *bytes, std::size_t len,
                const analysis::InstRecord &rec) {
                const auto it = parsed.find(std::make_pair(
                    archWord, std::vector<std::uint8_t>(bytes, bytes + len)));
                ASSERT_NE(it, parsed.end());
                EXPECT_TRUE(sameRecord(rec, *it->second));
                ++checked;
            });
    }
    // Each arch saw a few hundred distinct instructions.
    EXPECT_GT(checked, 1000u);
    EXPECT_EQ(checked, parsed.size());
}

TEST(Snapshot, SaveLoadSameProcessIsAppendOnlyNoOp)
{
    populateInterners();
    const std::uint64_t before = suiteDigest();
    const std::string path = tmpPath("noop");

    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    EXPECT_GT(saved.records, 1000u);
    EXPECT_GT(saved.fusedPairs, 0u);
    EXPECT_GT(saved.bytes, 0u);

    const analysis::SnapshotStats loaded = analysis::loadSnapshot(path);
    EXPECT_EQ(loaded.records, saved.records);
    EXPECT_EQ(loaded.fusedPairs, saved.fusedPairs);
    // Same process: every key is already interned; nothing may append.
    EXPECT_EQ(loaded.newRecords, 0u);

    // Predictions after the load are bit-identical to before.
    EXPECT_EQ(before, suiteDigest());
    std::remove(path.c_str());
}

TEST(Snapshot, EnginePredictionCacheRoundTrip)
{
    populateInterners();
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

    engine::BatchStats bs;
    const std::vector<model::Prediction> out =
        restored.predictBatch(batch, &bs);
    EXPECT_EQ(bs.predictionCacheHits, batch.size());
    EXPECT_EQ(bs.analyzed, 0u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(samePrediction(out[i], expected[i])) << i;
    std::remove(path.c_str());
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

/** Count canonical records currently interned for @p arch. */
std::size_t
recordCount(uarch::UArch arch)
{
    std::size_t n = 0;
    analysis::InstInterner::forArch(arch).exportRecords(
        [&](const std::uint8_t *, std::size_t,
            const analysis::InstRecord &) { ++n; });
    return n;
}

TEST(Snapshot, MemoryLoadMatchesFileLoad)
{
    populateInterners();
    const std::string path = tmpPath("memload");
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);

    const std::vector<std::uint8_t> img = slurpFile(path);
    std::remove(path.c_str());
    const analysis::SnapshotStats st =
        analysis::loadSnapshotFromMemory(img.data(), img.size());
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Parsed);
    EXPECT_EQ(st.records, saved.records);
    EXPECT_EQ(st.fusedPairs, saved.fusedPairs);
    EXPECT_EQ(st.bytes, img.size());
    // Same process: every key already interned, nothing appended.
    EXPECT_EQ(st.newRecords, 0u);
}

TEST(Snapshot, ValidateStagesEverythingAndCommitsNothing)
{
    populateInterners();
    const std::vector<std::uint8_t> img = analysis::saveSnapshotToMemory();
    analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    ASSERT_FALSE(m.arches.empty());
    ASSERT_FALSE(m.arches[0].records.empty());

    // Forge a never-seen intern key (the key is opaque to validation):
    // 0xD6 is not a valid opcode in 64-bit mode, so no block can ever
    // decode to these bytes and later tests never look the record up.
    // A committing load of the rebuilt image WOULD append it.
    m.arches[0].records[0].first.assign(15, 0xD6);
    const std::vector<std::uint8_t> forged =
        analysis::buildSnapshotImage(m);
    const auto arch = static_cast<uarch::UArch>(m.arches[0].arch);

    // validateSnapshot: full staging pass, zero commitment.
    const std::size_t before = recordCount(arch);
    const analysis::SnapshotStats st =
        analysis::validateSnapshot(forged.data(), forged.size());
    EXPECT_GT(st.records, 0u);
    EXPECT_EQ(st.newRecords, 0u);
    EXPECT_EQ(recordCount(arch), before);

    // The same image, committed, appends the forged-key record.
    const analysis::SnapshotStats loaded =
        analysis::loadSnapshotFromMemory(forged.data(), forged.size());
    EXPECT_EQ(loaded.newRecords, 1u);
    EXPECT_EQ(recordCount(arch), before + 1);
}

/** A one-arch, @p n-record image cut from a full save. */
std::vector<std::uint8_t>
smallImage(std::size_t n)
{
    populateInterners();
    const std::vector<std::uint8_t> img = analysis::saveSnapshotToMemory();
    analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    m.arches.resize(1);
    m.arches[0].records.resize(n);
    m.arches[0].fusedPairs.clear();
    m.hasPredictions = false;
    m.predictions.clear();
    return analysis::buildSnapshotImage(m);
}

/** Decode the section table of an image (validated, file order). */
std::vector<corpus::SectionEntry>
v2Table(const std::vector<std::uint8_t> &img)
{
    EXPECT_GE(img.size(), 64u);
    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 20, 4);
    return corpus::decodeSectionTable(img.data() + 64, img.size() - 64,
                                      count, img.size());
}

/** Re-stamp the table and header hashes after editing @p img. */
void
restampHeader(std::vector<std::uint8_t> &img,
              const std::vector<corpus::SectionEntry> &table)
{
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

TEST(Snapshot, ForgedRecordCountCannotBloatMemory)
{
    // A Records table entry claiming 2^32-1 items over a one-record
    // section must be rejected — and, with the clamped reserve,
    // without first attempting a count-sized allocation (both hashes
    // are unkeyed, so an attacker can stamp any count they like).
    std::vector<std::uint8_t> img = smallImage(1);
    std::vector<corpus::SectionEntry> table = v2Table(img);
    ASSERT_EQ(table[0].type, 1u);
    table[0].itemCount = 0xFFFFFFFFu;
    restampHeader(img, table);

    EXPECT_THROW(analysis::validateSnapshot(img.data(), img.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::loadSnapshotFromMemory(img.data(), img.size()),
                 analysis::SnapshotError);
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
 * are set (by FreshProcessBitIdentity, in a *child* process whose
 * interners are empty), optionally load the snapshot, predict the
 * whole suite, and write the digest plus the lazy-section counters for
 * the parent. In a normal test run the env vars are unset and this is
 * a skip.
 */
TEST(SnapshotProbe, Emit)
{
    const char *out = std::getenv("FACILE_SNAPSHOT_PROBE_OUT");
    if (!out)
        GTEST_SKIP() << "probe mode only (spawned by "
                        "FreshProcessBitIdentity)";
    if (const char *snap = std::getenv("FACILE_SNAPSHOT_PROBE_SNAP")) {
        // MmapFaultBindsHeapCopy: fail the mmap so the bind goes
        // through the heap copy, and every record read below with it.
        const bool mmapFault =
            std::getenv("FACILE_SNAPSHOT_PROBE_MMAP_FAULT") != nullptr;
        if (mmapFault)
            testing::armFault("snapshot.mmap",
                              {.firstHit = 0, .count = 1, .err = ENOMEM});
        const analysis::SnapshotStats st = analysis::loadSnapshot(snap);
        if (mmapFault)
            ASSERT_EQ(testing::faultsFired("snapshot.mmap"), 1u);
        // A file load binds: nothing is appended at load time,
        // records materialize on first touch instead.
        ASSERT_EQ(st.loadMode, analysis::SnapshotLoadMode::Bound);
        ASSERT_EQ(st.newRecords, 0u);
        ASSERT_GT(st.records, 0u);
        // Resave *immediately* — before any prediction touches a
        // record — so ResaveAfterBoundStartKeepsUniverse exercises the
        // worst case: every record still behind the lazy bind.
        if (const char *re =
                std::getenv("FACILE_SNAPSHOT_PROBE_RESAVE")) {
            const analysis::SnapshotStats rs = analysis::saveSnapshot(
                re, {.generations = 1});
            ASSERT_EQ(rs.records, st.records);
            ASSERT_EQ(rs.fusedPairs, st.fusedPairs);
        }
    }
    const std::uint64_t digest = suiteDigest();
    const analysis::SnapshotSourceStats src = analysis::snapshotSourceStats();
    std::FILE *f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%016llx %llu %llu\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(src.sectionsVerified),
                 static_cast<unsigned long long>(src.sectionsPoisoned));
    std::fclose(f);
}

/** What one SnapshotProbe.Emit child reported. */
struct ProbeResult
{
    unsigned long long digest = 0;
    unsigned long long sectionsVerified = 0;
    unsigned long long sectionsPoisoned = 0;
};

/**
 * Run SnapshotProbe.Emit in a child — a genuinely cold process, this
 * test binary re-run via /proc/self/exe — that loads @p snap first
 * (unless empty) — through the heap copy when @p mmapFault — and
 * resaves to @p resave (unless empty). @return false when the child
 * failed or reported nothing.
 */
bool
runProbe(const std::string &snap, ProbeResult &r,
         const std::string &resave = "", bool mmapFault = false)
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
    if (!resave.empty())
        cmd += "FACILE_SNAPSHOT_PROBE_RESAVE='" + resave + "' ";
    if (mmapFault)
        cmd += "FACILE_SNAPSHOT_PROBE_MMAP_FAULT=1 ";
    cmd += "'" + std::string(self) +
           "' --gtest_filter=SnapshotProbe.Emit >/dev/null 2>&1";
    if (std::system(cmd.c_str()) != 0)
        return false;
    std::FILE *f = std::fopen(out.c_str(), "r");
    if (!f)
        return false;
    const bool ok = std::fscanf(f, "%llx %llu %llu", &r.digest,
                                &r.sectionsVerified,
                                &r.sectionsPoisoned) == 3;
    std::fclose(f);
    std::remove(out.c_str());
    return ok;
}

/**
 * The headline property: a fresh process warm-started from a snapshot
 * produces bit-identical predictions (all nine arches, both notions)
 * to a fresh cold process. Runs this test binary twice as a child via
 * /proc/self/exe — each child is a genuinely cold process.
 */
TEST(Snapshot, FreshProcessBitIdentity)
{
    populateInterners();
    const std::string snap = tmpPath("fresh");
    analysis::saveSnapshot(snap);

    ProbeResult cold, warm;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(snap, warm));
    EXPECT_EQ(cold.digest, warm.digest);
    EXPECT_GT(warm.sectionsVerified, 0u);
    EXPECT_EQ(warm.sectionsPoisoned, 0u);
    // And both match this (differently warmed) process.
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
    std::FILE *f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (len > 0) {
        ASSERT_EQ(std::fwrite(full.data(), 1, len, f), len);
    }
    std::fclose(f);
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
    populateInterners();
    const std::string path = tmpPath("rotate");
    removeGenerations(path);

    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".g1")) << "one save, one generation";

    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path + ".g1"));
    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path + ".g2"));
    analysis::saveSnapshot(path);
    // kSnapshotGenerations == 3: nothing rotates beyond .g2.
    EXPECT_FALSE(fileExists(path + ".g3"));

    // The staging file never outlives a save (atomic temp + rename).
    EXPECT_FALSE(fileExists(path + ".tmp." +
                            std::to_string(::getpid())));

    // Every kept generation is independently loadable.
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g) {
        const analysis::SnapshotStats st = analysis::loadSnapshot(
            analysis::snapshotGenerationPath(path, g), {});
        EXPECT_GT(st.records, 0u) << "generation " << g;
        EXPECT_EQ(st.generation, 0u)
            << "direct load, no fallback involved";
    }
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, TornPrimaryFallsBackToPreviousGeneration)
{
    populateInterners();
    const std::string path = tmpPath("torn");
    removeGenerations(path);

    const analysis::SnapshotStats first = analysis::saveSnapshot(path);
    analysis::saveSnapshot(path); // rotates the first image to .g1
    const std::vector<std::uint8_t> primary = slurpFile(path);

    // A SIGKILL mid-write (without the atomic temp) would leave a
    // prefix of the image; emulate every interesting tear point and
    // require the loader to land on .g1 each time.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          primary.size() / 3, primary.size() / 2, primary.size() - 1}) {
        writeTorn(path, primary, cut);
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.generation, 1u) << "cut " << cut;
        EXPECT_EQ(st.records, first.records) << "cut " << cut;
        // Same process, so the fallback image appends nothing — and
        // predictions stay bit-identical by the no-op property.
        EXPECT_EQ(st.newRecords, 0u);
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
    populateInterners();
    const std::string snap = tmpPath("fallback");
    removeGenerations(snap);
    analysis::saveSnapshot(snap);
    analysis::saveSnapshot(snap);
    {
        const std::vector<std::uint8_t> primary = slurpFile(snap);
        writeTorn(snap, primary, primary.size() / 2);
    }

    ProbeResult cold, warm;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(snap, warm));
    EXPECT_EQ(cold.digest, warm.digest);
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
    populateInterners();
    testing::resetFaults();
    const std::string path = tmpPath("inject");
    removeGenerations(path);
    const analysis::SnapshotStats good = analysis::saveSnapshot(path);

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
        EXPECT_THROW(analysis::saveSnapshot(path),
                     analysis::SnapshotError)
            << c.site;
        testing::resetFaults();
        // The failed save must not have torn what was there before...
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.records, good.records) << c.site;
        // ...nor leaked its staging file.
        EXPECT_FALSE(fileExists(path + ".tmp." +
                                std::to_string(::getpid())))
            << c.site;
    }

    // Special case: a commit-rename failure AFTER rotation leaves the
    // primary name vacant — the generation walk must still recover
    // via .g1 (the image the rotation preserved).
    analysis::saveSnapshot(path); // ensure .g1 exists
    testing::armFault("snapshot.rename",
                      {.firstHit = testing::faultHits("snapshot.rename"),
                       .count = 1, .err = EACCES});
    EXPECT_THROW(analysis::saveSnapshot(path), analysis::SnapshotError);
    testing::resetFaults();
    EXPECT_FALSE(fileExists(path)) << "rotation moved the primary away";
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.records, good.records);
    removeGenerations(path);
}

// ---- the sectioned image: bind, corruption, poisoning ----------------------

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

TEST(SnapshotV2, RoundTripLoadModes)
{
    populateInterners();
    const std::uint64_t before = suiteDigest();
    const std::string path = tmpPath("v2_roundtrip");
    removeGenerations(path);

    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    EXPECT_GT(saved.records, 1000u);

    // A file load binds lazily — no records parsed, none appended.
    const auto binds = analysis::snapshotSourceStats().imagesBound;
    const analysis::SnapshotStats bound = analysis::loadSnapshot(path);
    EXPECT_EQ(bound.loadMode, analysis::SnapshotLoadMode::Bound);
    EXPECT_EQ(bound.records, saved.records);
    EXPECT_EQ(bound.fusedPairs, saved.fusedPairs);
    EXPECT_EQ(bound.newRecords, 0u);
    EXPECT_EQ(analysis::snapshotSourceStats().imagesBound, binds + 1);

    // Wire images have no file behind them: parsed and committed.
    const std::vector<std::uint8_t> img = slurpFile(path);
    const analysis::SnapshotStats mem =
        analysis::loadSnapshotFromMemory(img.data(), img.size());
    EXPECT_EQ(mem.loadMode, analysis::SnapshotLoadMode::Parsed);
    EXPECT_EQ(mem.records, saved.records);

    // Every section payload starts on a page boundary.
    for (const corpus::SectionEntry &e : v2Table(img))
        EXPECT_EQ(e.offset % corpus::kSectionAlign, 0u)
            << "section type " << e.type << " tag " << e.tag;

    EXPECT_EQ(before, suiteDigest());
    removeGenerations(path);
}

TEST(SnapshotV2, HeaderTableAndTailCorruptionRejected)
{
    populateInterners();
    const std::string path = tmpPath("v2_corrupt");
    removeGenerations(path);
    analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    ASSERT_GT(file.size(), 8192u);

    // Truncations: header, table, first section, mid-image, last byte.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          std::size_t{63}, std::size_t{4095}, file.size() / 2,
          file.size() - 1}) {
        std::vector<std::uint8_t> t(file.begin(),
                                    file.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
        writeFile(path, t);
        EXPECT_THROW(analysis::loadSnapshot(path),
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
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "header flip at " << off;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "header flip at " << off;
    }

    // Table damage is caught by the table hash wherever it lands.
    const std::size_t tableBytes = v2Table(file).size() * 64;
    for (std::size_t off = 64; off < 64 + tableBytes; off += 13) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x80;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "table flip at " << off;
    }

    // The pristine image still loads (the harness is not lossy).
    writeFile(path, file);
    EXPECT_NO_THROW(analysis::loadSnapshot(path));
    removeGenerations(path);
}

TEST(SnapshotV2, SectionBitFlipsEagerRejectLazyPoison)
{
    populateInterners();
    const std::string path = tmpPath("v2_flip");
    removeGenerations(path);
    analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    const std::vector<corpus::SectionEntry> table = v2Table(file);

    for (const corpus::SectionEntry &e : table) {
        std::vector<std::uint8_t> bad = file;
        bad[e.offset + e.length / 2] ^= 0x5a;

        // The deep eager walk (validateSnapshot / snaptool verify /
        // wire images) rejects a flip in ANY section.
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "section type " << e.type << " tag " << e.tag;

        writeFile(path, bad);
        if (e.type == 1) {
            // Records sections are verified lazily: the bind itself
            // succeeds, the damaged section is poisoned on first
            // touch (covered end-to-end by the fresh-process test
            // below — here every key is already interned, so the
            // source is never consulted).
            const analysis::SnapshotStats st =
                analysis::loadSnapshot(path);
            EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Bound)
                << "tag " << e.tag;
        } else {
            // Pairs/prediction tails are verified eagerly at load.
            EXPECT_THROW(analysis::loadSnapshot(path),
                         analysis::SnapshotError)
                << "section type " << e.type << " tag " << e.tag;
        }
    }
    removeGenerations(path);
}

TEST(SnapshotV2, PackedImageBindsLazily)
{
    populateInterners();
    const std::string path = tmpPath("v2_packed");
    removeGenerations(path);
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    const std::vector<corpus::SectionEntry> table = v2Table(file);

    // Repack the image with 8-byte instead of page-aligned sections
    // (e.g. a foreign writer). Payload bytes are untouched, so the
    // per-section hashes still hold; only the table offsets, file
    // size, and the two header hashes change.
    std::vector<corpus::SectionEntry> packed = table;
    std::vector<std::uint8_t> img(
        file.begin(),
        file.begin() + 64 + static_cast<std::ptrdiff_t>(table.size() * 64));
    for (std::size_t i = 0; i < table.size(); ++i) {
        img.resize(corpus::alignUp(img.size(), 8), 0);
        packed[i].offset = img.size();
        img.insert(img.end(),
                   file.begin() +
                       static_cast<std::ptrdiff_t>(table[i].offset),
                   file.begin() + static_cast<std::ptrdiff_t>(
                                      table[i].offset + table[i].length));
    }
    ASSERT_LT(img.size(), file.size()) << "padding actually removed";
    restampHeader(img, packed);

    writeFile(path, img);
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Bound);
    EXPECT_EQ(st.records, saved.records);
    EXPECT_EQ(st.fusedPairs, saved.fusedPairs);

    // A fresh process warm-started from the packed image serves every
    // record through the lazy views, bit-identically to a cold start.
    ProbeResult cold, warm;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(path, warm));
    EXPECT_EQ(cold.digest, warm.digest);
    EXPECT_EQ(warm.sectionsVerified, uarch::allUArchs().size());
    EXPECT_EQ(warm.sectionsPoisoned, 0u);
    removeGenerations(path);
}

TEST(SnapshotV2, MmapFaultBindsHeapCopy)
{
    if (!testing::kFaultInjection)
        GTEST_SKIP() << "built without FACILE_FAULT_INJECT";
    populateInterners();
    testing::resetFaults();
    const std::string path = tmpPath("v2_mmapfault");
    removeGenerations(path);
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);

    testing::armFault("snapshot.mmap",
                      {.firstHit = testing::faultHits("snapshot.mmap"),
                       .count = 1, .err = ENOMEM});
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    testing::resetFaults();
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Bound)
        << "a failed mmap binds a heap copy, never degrades to an error";
    EXPECT_EQ(st.records, saved.records);
    EXPECT_EQ(st.fusedPairs, saved.fusedPairs);

    // This process already interned every key, so the bound copy was
    // never read above. A fresh process reads every record from it.
    ProbeResult cold, warm;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(path, warm, "", /*mmapFault=*/true));
    EXPECT_EQ(cold.digest, warm.digest);
    EXPECT_EQ(warm.sectionsVerified, uarch::allUArchs().size());
    EXPECT_EQ(warm.sectionsPoisoned, 0u);
    removeGenerations(path);
}

TEST(SnapshotV2, OldMagicGenerationIsSkipped)
{
    populateInterners();
    const std::string path = tmpPath("v2_oldmagic");
    removeGenerations(path);

    // History: two saves (the first rotates to .g1), then the primary
    // is replaced by an image carrying the retired "FACSNAP\n" magic.
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    analysis::saveSnapshot(path);
    std::vector<std::uint8_t> old = slurpFile(path);
    std::memcpy(old.data(), "FACSNAP\n", 8);
    writeFile(path, old);

    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Bound);
    EXPECT_EQ(st.records, saved.records);
    removeGenerations(path);
}

TEST(SnapshotV2, BitFlippedRecordsStayBitIdenticalInFreshProcess)
{
    // End-to-end poison property: a fresh process warm-started from a
    // v2 image whose records section is silently damaged must still
    // produce bit-identical predictions — the poisoned section falls
    // back to cold analysis per lookup instead of serving garbage.
    populateInterners();
    const std::string snap = tmpPath("v2_poison");
    removeGenerations(snap);
    analysis::saveSnapshot(snap);
    {
        std::vector<std::uint8_t> img = slurpFile(snap);
        const std::vector<corpus::SectionEntry> table = v2Table(img);
        bool flipped = false;
        for (const corpus::SectionEntry &e : table)
            if (e.type == 1 && !flipped) {
                img[e.offset + e.length / 2] ^= 0xff;
                flipped = true;
            }
        ASSERT_TRUE(flipped);
        writeFile(snap, img);
    }

    ProbeResult cold, warm;
    ASSERT_TRUE(runProbe("", cold));
    ASSERT_TRUE(runProbe(snap, warm));
    EXPECT_EQ(cold.digest, warm.digest);
    EXPECT_GT(warm.sectionsPoisoned, 0u);
    removeGenerations(snap);
}

TEST(SnapshotV2, ResaveAfterBoundStartKeepsUniverse)
{
    // Regression: a process warm-started from a bound image serves
    // records through the lazily bound RecordSource, which
    // exportRecords cannot see — an immediate save used to persist
    // only the (empty) canonical arenas, silently shrinking the
    // snapshot to zero records. saveSnapshot must materialize the
    // bound sources first, so save-after-mmap-start round-trips the
    // whole universe. Only reproducible in a fresh child: this
    // process's interners are already warm.
    populateInterners();
    const std::string snap = tmpPath("v2_resave_src");
    const std::string resaved = tmpPath("v2_resave_dst");
    removeGenerations(snap);
    std::remove(resaved.c_str());
    const analysis::SnapshotStats saved = analysis::saveSnapshot(snap);

    ProbeResult r;
    ASSERT_TRUE(runProbe(snap, r, resaved))
        << "child probe failed (load or resave assertions)";

    // The child's resave carries the full universe, not just the
    // records it happened to touch.
    const std::vector<std::uint8_t> img = slurpFile(resaved);
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    std::size_t records = 0, pairs = 0;
    for (const analysis::SnapshotModel::Arch &a : m.arches) {
        records += a.records.size();
        pairs += a.fusedPairs.size();
    }
    EXPECT_EQ(records, saved.records);
    EXPECT_EQ(pairs, saved.fusedPairs);
    std::remove(resaved.c_str());
    removeGenerations(snap);
}

TEST(SnapshotV2, RebuildIsByteIdentical)
{
    // The contract snaptool merge/compact rely on:
    // buildSnapshotImage(parseSnapshotModel(img)) == img, bit for bit —
    // with and without a prediction-cache section aboard.
    populateInterners();
    std::vector<engine::Request> batch;
    for (const auto &b : snapshotSuite())
        batch.push_back({b.bytesU, uarch::UArch::ICL, false, {}});
    engine::PredictionEngine eng({.numThreads = 1});
    eng.predictBatch(batch);

    engine::PredictionEngine *const engines[] = {nullptr, &eng};
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
