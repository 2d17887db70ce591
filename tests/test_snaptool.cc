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

#include "analysis/snapshot.h"
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

/**
 * Path of a saved snapshot (saved once per process): the prediction
 * cache of an engine that predicted a small suite on every arch.
 */
std::string
savedSnapshot()
{
    static std::string path;
    if (path.empty()) {
        const std::vector<bhive::Benchmark> suite =
            bhive::generateSuite(0x700157001ULL, 4);
        std::vector<engine::Request> batch;
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : suite) {
                batch.push_back({b.bytesU, arch, false, {}});
                batch.push_back({b.bytesL, arch, true, {}});
            }
        engine::PredictionEngine eng({.numThreads = 2});
        eng.predictBatch(batch);
        path = tmpPath("fixture");
        analysis::saveSnapshot(path, {&eng, 1});
    }
    return path;
}

TEST(Snaptool, UsageErrorsExitTwo)
{
    EXPECT_EQ(snaptool("").status, 2);
    EXPECT_EQ(snaptool("frobnicate x").status, 2);
    EXPECT_EQ(snaptool("merge missing-inputs").status, 2);
    // compact has no --drop-predictions: predictions are all an image
    // carries.
    EXPECT_EQ(snaptool("compact x.bin --drop-predictions").status, 2);
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
    const std::string snap = savedSnapshot();
    const RunResult r = snaptool("dump " + snap);
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("format:      version 3"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("sections:    1"), std::string::npos) << r.out;
    // The one predictions section appears in the table.
    EXPECT_NE(r.out.find("  predictions"), std::string::npos) << r.out;

    const RunResult hex = snaptool("dump --hex " + snap);
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
    const std::string snap = savedSnapshot();
    const std::string out = tmpPath("dryrun_out");
    std::remove(out.c_str());

    const RunResult r = snaptool("merge " + out + " " + snap + " --dry-run");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("would write"), std::string::npos) << r.out;
    EXPECT_FALSE(fileExists(out));

    const std::vector<std::uint8_t> before = slurpFile(snap);
    EXPECT_EQ(snaptool("compact " + snap + " --dry-run").status, 0);
    EXPECT_EQ(slurpFile(snap), before) << "in-place dry run mutated input";
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
    ASSERT_GE(m.predictions.size(), 40u);

    const std::size_t mid = m.predictions.size() / 2;
    analysis::SnapshotModel a, b;
    a.hasPredictions = b.hasPredictions = true;
    for (std::size_t i = 0; i < m.predictions.size(); ++i) {
        // With overlap, a band around the midpoint lands in both.
        const bool inA = i < mid + (overlap ? 10 : 0);
        const bool inB = i >= mid - (overlap ? 10 : 0);
        if (inA)
            a.predictions.push_back(m.predictions[i]);
        if (inB)
            b.predictions.push_back(m.predictions[i]);
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
        // from (the split covered every entry).
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
    ASSERT_GE(m.predictions.size(), 2u);
    // Same key, a different (valid) prediction: a content conflict.
    std::vector<std::uint8_t> &payload0 = m.predictions[0].second;
    std::size_t other = 1;
    while (m.predictions[other].second == payload0)
        ++other;
    payload0 = m.predictions[other].second;
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

TEST(SnaptoolCleanup, RemoveFixtures)
{
    std::remove(savedSnapshot().c_str());
}

} // namespace
} // namespace facile
