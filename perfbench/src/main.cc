/**
 * @file
 * Benchmark driver. Usually started by perfbench/run.py, which builds
 * it and records the host; run directly as
 *
 *   perfbench_driver run --workload NAME --seed N --seconds S --trace 0|1
 *                    --bin-dir DIR --run-dir DIR --out-dir DIR
 *   perfbench_driver selftest
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, metrics (end-to-end with --trace 0, per-layer with
 * --trace 1) and info. The other subcommands are the fresh-process
 * children the workloads spawn.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

using namespace pb;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver run --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                        --bin-dir DIR --run-dir DIR "
                 "--out-dir DIR\n"
                 "       perfbench_driver selftest\n");
    return 2;
}

int
runMain(const Options &o)
{
    std::string report;
    const bool gateOk = gateSelfTest(report);
    std::fprintf(stderr, "%s\n", report.c_str());
    const std::uint64_t digest = modelDigest();

    Result res;
    if (o.workload == "fresh_compile")
        res = runFreshCompile(o);
    else if (o.workload == "serve_hot")
        res = runServeHot(o);
    else if (o.workload == "serve_mixed_routed")
        res = runServeMixedRouted(o);
    else
        return usage();

    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    res.info["model_digest"] = hex;
    res.info["seed"] = std::to_string(o.seed);
    if (digest != kExpectedDigest) {
        std::fprintf(stderr,
                     "model digest %s differs from the recorded one: "
                     "model output changed\n",
                     hex);
        res.correct = false;
    }
    if (!gateOk)
        res.correct = false;
    if (res.failed > 0)
        std::fprintf(stderr, "%llu of %llu operations failed\n",
                     static_cast<unsigned long long>(res.failed),
                     static_cast<unsigned long long>(res.attempted));
    if (!o.trace)
        res.add("ok_ratio",
                static_cast<double>(res.attempted - res.failed) /
                    static_cast<double>(res.attempted),
                "ratio");
    std::printf("%s\n", res.json().c_str());
    return res.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    Options o;
    o.self = argv[0];
    int round = 0;
    std::string snapshot;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--bin-dir")
            o.binDir = v;
        else if (a == "--run-dir")
            o.runDir = v;
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--round")
            round = std::atoi(v.c_str());
        else if (a == "--snapshot")
            snapshot = v;
        else
            return usage();
    }
    if (!(o.seconds > 0))
        return usage();
    int rc = 0;
    try {
        if (cmd == "run")
            rc = runMain(o);
        else if (cmd == "selftest") {
            std::string report;
            const bool ok = gateSelfTest(report);
            std::printf("%s\n", report.c_str());
            rc = ok ? 0 : 1;
        } else if (cmd == "fresh-round")
            rc = freshRoundMain(o, round, o.seconds);
        else if (cmd == "snapshot-probe")
            rc = snapshotProbeMain(o, snapshot);
        else
            rc = usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        rc = 1;
    }
    killChildren();
    return rc;
}
