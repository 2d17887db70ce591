/**
 * @file
 * End-to-end tests for facile_snaptool (src/tools/facile_snaptool.cc),
 * driving the real binary (FACILE_SNAPTOOL_PATH, injected by CMake)
 * through popen. The contracts: verify is exit-code-truthful on every
 * corruption class; rebuilding a canonical image is bit-identical;
 * merge is a commutative union that rejects content conflicts;
 * merge/compact honour --dry-run by writing nothing.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "uarch/config.h"

namespace facile {
namespace {

struct RunResult {
    int status = -1;
    std::string out;
};

/** Run the snaptool with @p args, capturing exit status and output. */
RunResult
snaptool(const std::string &args)
{
    RunResult r;
    const std::string cmd =
        std::string(FACILE_SNAPTOOL_PATH) + " " + args + " 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int rc = ::pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

std::string
tmpPath(const char *tag)
{
    return "test_snaptool_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin";
}

std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
}

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

bool
fileExists(const std::string &p)
{
    std::FILE *f = std::fopen(p.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

/** Analyze a small suite so the interners have exportable content. */
void
populateInterners()
{
    static const bool done = [] {
        const std::vector<bhive::Benchmark> suite =
            bhive::generateSuite(0x700157001ULL, 4);
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : suite) {
                bb::analyze(b.bytesU, arch);
                bb::analyze(b.bytesL, arch);
            }
        return true;
    }();
    (void)done;
}

/** Path of a saved snapshot (saved once per process). */
std::string
savedSnapshot()
{
    populateInterners();
    static std::string path;
    if (path.empty()) {
        path = tmpPath("fixture");
        analysis::saveSnapshot(path, {.generations = 1});
    }
    return path;
}

TEST(Snaptool, UsageErrorsExitTwo)
{
    EXPECT_EQ(snaptool("").status, 2);
    EXPECT_EQ(snaptool("frobnicate x").status, 2);
    EXPECT_EQ(snaptool("merge missing-inputs").status, 2);
    EXPECT_EQ(snaptool("help").status, 0);
}

TEST(Snaptool, VerifyAndCorruption)
{
    const std::string fixture = savedSnapshot();
    const std::string copy = tmpPath("verify_copy");
    writeFile(copy, slurpFile(fixture));

    RunResult both = snaptool("verify " + fixture + " " + copy);
    EXPECT_EQ(both.status, 0) << both.out;
    EXPECT_NE(both.out.find("OK   " + fixture), std::string::npos)
        << both.out;
    EXPECT_NE(both.out.find("OK   " + copy), std::string::npos)
        << both.out;
    std::remove(copy.c_str());

    // Every corruption class must flip the exit code: truncation,
    // header damage, table damage, payload bit flip.
    const std::vector<std::uint8_t> img = slurpFile(fixture);
    const std::string bad = tmpPath("verify_bad");
    struct Case {
        const char *what;
        std::size_t cut;   // SIZE_MAX = no truncation
        std::size_t flip;  // byte to xor when not truncating
    };
    const Case cases[] = {
        {"empty", 0, 0},
        {"header cut", 16, 0},
        {"tail cut", img.size() - 1, 0},
        {"magic flip", SIZE_MAX, 0},
        {"header flip", SIZE_MAX, 9},
        {"payload flip", SIZE_MAX, img.size() / 2},
        {"tail flip", SIZE_MAX, img.size() - 1},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> mut = img;
        if (c.cut != SIZE_MAX)
            mut.resize(c.cut);
        else
            mut[c.flip] ^= 0x40;
        writeFile(bad, mut);
        const RunResult r = snaptool("verify " + bad);
        EXPECT_EQ(r.status, 1) << c.what << "\n" << r.out;
        EXPECT_NE(r.out.find("FAIL"), std::string::npos) << c.what;
    }
    std::remove(bad.c_str());

    // A missing file is a FAIL, not a crash.
    EXPECT_EQ(snaptool("verify does-not-exist.bin").status, 1);
}

TEST(Snaptool, DumpShowsLayout)
{
    const std::string v2 = savedSnapshot();
    const RunResult r = snaptool("dump " + v2);
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("format:      v2"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("records"), std::string::npos);
    EXPECT_NE(r.out.find("sections:"), std::string::npos);
    // One records section per arch appears with its abbrev.
    EXPECT_NE(r.out.find("SKL"), std::string::npos) << r.out;

    const RunResult hex = snaptool("dump --hex " + v2);
    EXPECT_EQ(hex.status, 0);
    EXPECT_NE(hex.out.find("header hex:"), std::string::npos);
}

TEST(Snaptool, CanonicalRebuildIsBitIdentical)
{
    // A one-input merge rewrites the fixture in canonical order; a
    // compact of that canonical image reproduces it bit for bit, and
    // neither step changes the logical contents.
    const std::string fixture = savedSnapshot();
    const std::string canon = tmpPath("canon");
    const std::string again = tmpPath("canon_again");
    ASSERT_EQ(snaptool("merge " + canon + " " + fixture).status, 0);
    EXPECT_EQ(snaptool("verify " + canon).status, 0);
    EXPECT_EQ(snaptool("compact " + canon + " --out " + again).status, 0);
    EXPECT_EQ(slurpFile(again), slurpFile(canon));
    EXPECT_EQ(snaptool("diff " + fixture + " " + canon).status, 0);

    std::remove(canon.c_str());
    std::remove(again.c_str());
}

TEST(Snaptool, DryRunWritesNothing)
{
    const std::string v2 = savedSnapshot();
    const std::string out = tmpPath("dryrun_out");
    std::remove(out.c_str());

    const RunResult r = snaptool("merge " + out + " " + v2 + " --dry-run");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("would write"), std::string::npos) << r.out;
    EXPECT_FALSE(fileExists(out));

    const std::vector<std::uint8_t> before = slurpFile(v2);
    EXPECT_EQ(snaptool("compact " + v2 + " --dry-run").status, 0);
    EXPECT_EQ(slurpFile(v2), before) << "in-place dry run mutated input";
}

/** Split the fixture into two overlapping-or-disjoint partial images. */
void
splitFixture(const std::string &outA, const std::string &outB,
             bool overlap)
{
    const std::string full = savedSnapshot();
    const std::vector<std::uint8_t> img = slurpFile(full);
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    ASSERT_GE(m.arches.size(), 4u);

    const std::size_t mid = m.arches.size() / 2;
    analysis::SnapshotModel a, b;
    for (std::size_t i = 0; i < m.arches.size(); ++i) {
        // With overlap, a band around the midpoint lands in both.
        const bool inA = i < mid + (overlap ? 1 : 0);
        const bool inB = i >= mid - (overlap ? 1 : 0);
        if (inA)
            a.arches.push_back(m.arches[i]);
        if (inB)
            b.arches.push_back(m.arches[i]);
    }
    const std::vector<std::uint8_t> ia = analysis::buildSnapshotImage(a);
    const std::vector<std::uint8_t> ib = analysis::buildSnapshotImage(b);
    writeFile(outA, ia);
    writeFile(outB, ib);
}

TEST(Snaptool, MergeIsACommutativeUnion)
{
    for (const bool overlap : {false, true}) {
        const std::string a = tmpPath(overlap ? "merge_a_o" : "merge_a");
        const std::string b = tmpPath(overlap ? "merge_b_o" : "merge_b");
        splitFixture(a, b, overlap);

        const std::string ab = tmpPath("merge_ab");
        const std::string ba = tmpPath("merge_ba");
        ASSERT_EQ(snaptool("merge " + ab + " " + a + " " + b).status, 0)
            << "overlap=" << overlap;
        ASSERT_EQ(snaptool("merge " + ba + " " + b + " " + a).status, 0);

        // Union is order-independent down to the bytes.
        EXPECT_EQ(slurpFile(ab), slurpFile(ba)) << "overlap=" << overlap;
        EXPECT_EQ(snaptool("verify " + ab).status, 0);

        // And logically identical to the full fixture it was split
        // from (the split covered every arch).
        EXPECT_EQ(
            snaptool("diff " + ab + " " + savedSnapshot()).status,
            0)
            << "overlap=" << overlap;

        for (const std::string &p : {a, b, ab, ba})
            std::remove(p.c_str());
    }
}

TEST(Snaptool, MergeRejectsContentConflicts)
{
    const std::string full = savedSnapshot();
    const std::vector<std::uint8_t> img = slurpFile(full);
    analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    ASSERT_FALSE(m.arches.empty());
    ASSERT_FALSE(m.arches[0].records.empty());
    // Same key, different analysis: a content conflict.
    m.arches[0].records[0].second.info.latency += 1;
    const std::string forged = tmpPath("merge_forged");
    writeFile(forged, analysis::buildSnapshotImage(m));

    const std::string out = tmpPath("merge_conflict_out");
    const RunResult r =
        snaptool("merge " + out + " " + full + " " + forged);
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("merge conflict"), std::string::npos) << r.out;
    EXPECT_FALSE(fileExists(out));
    std::remove(forged.c_str());
}

TEST(Snaptool, DiffReportsDirectionalDifferences)
{
    const std::string full = savedSnapshot();
    const std::string a = tmpPath("diff_a");
    const std::string b = tmpPath("diff_b");
    splitFixture(a, b, false);

    EXPECT_EQ(snaptool("diff " + full + " " + full).status, 0);
    const RunResult r = snaptool("diff " + full + " " + a);
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("only in A"), std::string::npos) << r.out;
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Snaptool, CompactDropsPredictionsAndStaysLoadable)
{
    populateInterners();
    // A snapshot with a prediction cache aboard.
    const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(0x700157001ULL, 4);
    std::vector<engine::Request> batch;
    for (const auto &bm : suite)
        batch.push_back({bm.bytesL, uarch::UArch::SKL, true, {}});
    engine::PredictionEngine::Options eopts;
    eopts.numThreads = 2;
    engine::PredictionEngine eng(eopts);
    eng.predictBatch(batch);

    const std::string snap = tmpPath("compact_full");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(snap, {&eng});
    ASSERT_GT(saved.predictions, 0u);

    const std::string lean = tmpPath("compact_lean");
    const RunResult r = snaptool("compact " + snap +
                                 " --drop-predictions --out " + lean);
    EXPECT_EQ(r.status, 0) << r.out;

    const std::vector<std::uint8_t> img = slurpFile(lean);
    const analysis::SnapshotStats st =
        analysis::validateSnapshot(img.data(), img.size());
    EXPECT_EQ(st.predictions, 0u);
    EXPECT_EQ(st.records, saved.records);
    EXPECT_LT(img.size(), slurpFile(snap).size());

    std::remove(snap.c_str());
    std::remove(lean.c_str());
}

TEST(SnaptoolCleanup, RemoveFixtures)
{
    std::remove(savedSnapshot().c_str());
}

} // namespace
} // namespace facile
