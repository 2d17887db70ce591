/**
 * @file
 * facile_snaptool — offline snapshot surgery (src/tools/README.md).
 *
 * Works through the parsed SnapshotModel (analysis/snapshot.h): every
 * mutating subcommand rebuilds a deterministic image from the model,
 * so rebuilding an unchanged image is bit-identical by construction.
 *
 * Subcommands:
 *   dump <file> [--hex]                    layout + stats
 *   verify <file>...                       deep validation, CI-friendly
 *   diff <a> <b>                           logical comparison
 *   merge <out> <in>... [--dry-run]
 *   compact <in> [--out P] [--dry-run]
 *
 * Exit codes: 0 success (verify: all valid; diff: identical),
 * 1 semantic failure (invalid image, diff mismatch, merge conflict),
 * 2 usage / IO error. Output files are written through the same
 * atomic temp-file + rename path the snapshot saver uses, so an
 * interrupted tool run never tears an existing file.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "corpus/sections.h"

namespace {

using facile::analysis::SnapshotError;

/** Command-line misuse (bad flags, missing operands): exit 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** File IO failure outside an image's own validity: exit 2. */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IoError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(len > 0 ? static_cast<std::size_t>(len)
                                          : 0);
    if (!buf.empty() &&
        std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
        std::fclose(f);
        throw IoError("cannot read " + path);
    }
    std::fclose(f);
    return buf;
}

/** Atomic replace via the snapshot saver's temp + rename discipline. */
void
writeAtomic(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    try {
        facile::corpus::AtomicFileWriter w(path, "snaptool", 1);
        if (!bytes.empty())
            w.write(bytes.data(), bytes.size());
        w.commit();
    } catch (const facile::corpus::SectionError &e) {
        throw IoError(e.what());
    }
}

// ---- canonical model (merge / compact) -------------------------------------
//
// The set/union layer itself lives in the library
// (analysis::SnapshotModelSet) — it doubles as the cluster-mode
// replica-convergence primitive, so the tool and the ConvergenceLoop
// merge identically by construction.

using ModelSet = facile::analysis::SnapshotModelSet;

// ---- subcommands -----------------------------------------------------------

int
cmdDump(const std::vector<std::string> &args)
{
    bool hex = false;
    std::string path;
    for (const std::string &a : args) {
        if (a == "--hex")
            hex = true;
        else if (!path.empty())
            throw UsageError("dump takes one file");
        else
            path = a;
    }
    if (path.empty())
        throw UsageError("dump: missing file operand");

    const std::vector<std::uint8_t> img = slurp(path);
    const facile::analysis::SnapshotStats st =
        facile::analysis::validateSnapshot(img.data(), img.size());
    std::printf("file:        %s\n", path.c_str());
    std::printf("format:      version %u\n",
                facile::analysis::kSnapshotVersion);
    std::printf("bytes:       %zu\n", img.size());
    std::printf("predictions: %zu\n", st.predictions);

    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 20, 4);
    const auto table = facile::corpus::decodeSectionTable(
        img.data() + 64, img.size() - 64, count, img.size());
    std::printf("sections:    %u\n", count);
    for (const facile::corpus::SectionEntry &e : table) {
        std::printf("  %-11s offset %-10llu length %-10llu "
                    "items %-6llu hash %016llx\n",
                    e.type == 3 ? "predictions" : "?",
                    static_cast<unsigned long long>(e.offset),
                    static_cast<unsigned long long>(e.length),
                    static_cast<unsigned long long>(e.itemCount),
                    static_cast<unsigned long long>(e.hash));
    }

    if (hex) {
        const std::size_t n = std::min<std::size_t>(img.size(), 64);
        std::printf("header hex:\n");
        for (std::size_t i = 0; i < n; i += 16) {
            std::printf("  %04zx ", i);
            for (std::size_t j = i; j < std::min(i + 16, n); ++j)
                std::printf(" %02x", img[j]);
            std::printf("\n");
        }
    }
    return 0;
}

int
cmdVerify(const std::vector<std::string> &args)
{
    if (args.empty())
        throw UsageError("verify: missing file operand");
    int bad = 0;
    for (const std::string &path : args) {
        try {
            const std::vector<std::uint8_t> img = slurp(path);
            const facile::analysis::SnapshotStats st =
                facile::analysis::validateSnapshot(img.data(),
                                                   img.size());
            std::printf("OK   %s  %zu predictions\n", path.c_str(),
                        st.predictions);
        } catch (const std::exception &e) {
            std::printf("FAIL %s  %s\n", path.c_str(), e.what());
            ++bad;
        }
    }
    return bad ? 1 : 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    if (args.size() != 2)
        throw UsageError("diff takes exactly two files");
    const std::vector<std::uint8_t> ia = slurp(args[0]);
    const std::vector<std::uint8_t> ib = slurp(args[1]);
    ModelSet sa, sb;
    sa.accumulate(facile::analysis::parseSnapshotModel(ia.data(),
                                                       ia.size()),
                  args[0]);
    sb.accumulate(facile::analysis::parseSnapshotModel(ib.data(),
                                                       ib.size()),
                  args[1]);

    std::size_t differences = 0;
    auto report = [&](const char *what, std::size_t n, const char *dir) {
        if (n == 0)
            return;
        differences += n;
        std::printf("%s: %zu %s\n", what, n, dir);
    };

    std::size_t pOnlyA = 0, pOnlyB = 0, pChanged = 0;
    for (const auto &[key, payload] : sa.predictions) {
        auto it = sb.predictions.find(key);
        if (it == sb.predictions.end())
            ++pOnlyA;
        else if (it->second != payload)
            ++pChanged;
    }
    for (const auto &[key, _] : sb.predictions)
        if (!sa.predictions.count(key))
            ++pOnlyB;
    report("predictions", pOnlyA, "only in A");
    report("predictions", pOnlyB, "only in B");
    report("predictions", pChanged, "changed");

    if (differences == 0) {
        std::printf("identical: %zu predictions\n",
                    sa.predictions.size());
        return 0;
    }
    return 1;
}

/** Shared tail of merge/compact: stats line + guarded write. */
int
emitImage(const std::vector<std::uint8_t> &img, const std::string &out,
          bool dryRun)
{
    const facile::analysis::SnapshotStats st =
        facile::analysis::validateSnapshot(img.data(), img.size());
    std::printf("%s%s: %zu bytes, %zu predictions\n",
                dryRun ? "would write " : "wrote ", out.c_str(),
                img.size(), st.predictions);
    if (!dryRun)
        writeAtomic(out, img);
    return 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    std::string out;
    std::vector<std::string> inputs;
    bool dryRun = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--dry-run")
            dryRun = true;
        else if (out.empty())
            out = args[i];
        else
            inputs.push_back(args[i]);
    }
    if (out.empty() || inputs.empty())
        throw UsageError("merge <out> <in>... [--dry-run]");

    ModelSet set;
    for (const std::string &in : inputs) {
        const std::vector<std::uint8_t> img = slurp(in);
        set.accumulate(facile::analysis::parseSnapshotModel(img.data(),
                                                            img.size()),
                       in);
    }
    return emitImage(facile::analysis::buildSnapshotImage(set.canonical()),
                     out, dryRun);
}

int
cmdCompact(const std::vector<std::string> &args)
{
    std::string in, out;
    bool dryRun = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out" && i + 1 < args.size())
            out = args[++i];
        else if (args[i] == "--dry-run")
            dryRun = true;
        else if (!in.empty())
            throw UsageError("compact takes one input file");
        else
            in = args[i];
    }
    if (in.empty())
        throw UsageError("compact <in> [--out P] [--dry-run]");
    if (out.empty())
        out = in;

    const std::vector<std::uint8_t> img = slurp(in);
    ModelSet set;
    set.accumulate(facile::analysis::parseSnapshotModel(img.data(),
                                                        img.size()),
                   in);
    const std::vector<std::uint8_t> rebuilt =
        facile::analysis::buildSnapshotImage(set.canonical());
    std::printf("compact %s: %zu -> %zu bytes\n", in.c_str(), img.size(),
                rebuilt.size());
    return emitImage(rebuilt, out, dryRun);
}

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: facile_snaptool <command> [args]\n"
        "  dump <file> [--hex]            show layout and stats\n"
        "  verify <file>...               validate deeply; exit 0/1\n"
        "  diff <a> <b>                   compare contents; exit 0/1\n"
        "  merge <out> <in>... [--dry-run]\n"
        "  compact <in> [--out P] [--dry-run]\n");
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "dump")
            return cmdDump(args);
        if (cmd == "verify")
            return cmdVerify(args);
        if (cmd == "diff")
            return cmdDiff(args);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "compact")
            return cmdCompact(args);
        if (cmd == "help" || cmd == "--help" || cmd == "-h")
            return usage(stdout);
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return usage(stderr);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const IoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
