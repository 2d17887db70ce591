/**
 * @file
 * Shared helpers for the table/figure reproduction binaries and the
 * perf benches: the evaluation suite (with a CI quick mode), the
 * bit-identity oracle, and the machine-readable BENCH_<name>.json
 * report writer that populates the repo's perf trajectory.
 */
#ifndef FACILE_BENCH_COMMON_H
#define FACILE_BENCH_COMMON_H

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "facile/predictor.h"

namespace facile::bench {

/**
 * CI quick mode: FACILE_BENCH_QUICK=1 shrinks the suite so perf smoke
 * jobs finish fast. Timings from quick runs are indicative only; the
 * bit-identity exit codes remain authoritative.
 */
inline bool
quickMode()
{
    const char *q = std::getenv("FACILE_BENCH_QUICK");
    return q && *q && std::strcmp(q, "0") != 0;
}

/** The evaluation suite used by every table/figure binary. */
inline const std::vector<bhive::Benchmark> &
evalSuite()
{
    if (quickMode()) {
        // Same generator and seed, fewer benchmarks per category.
        static const std::vector<bhive::Benchmark> quick =
            bhive::generateSuite(20231020, 10);
        return quick;
    }
    return bhive::defaultSuite();
}

/** Prepared (simulated) suite for one µarch, cached per process. */
inline const eval::ArchSuite &
archSuite(uarch::UArch arch)
{
    static std::map<uarch::UArch, eval::ArchSuite> cache;
    auto it = cache.find(arch);
    if (it == cache.end()) {
        std::fprintf(stderr, "[prepare] measuring ground truth for %s...\n",
                     uarch::config(arch).abbrev);
        it = cache.emplace(arch, eval::prepare(arch, evalSuite())).first;
    }
    return it->second;
}

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Bit-identity oracle (defined once in eval/harness.h). */
using eval::samePrediction;

/** The host a report was measured on. */
struct HostRecord
{
    unsigned hwThreads = 0;
    std::string cpuModel; ///< /proc/cpuinfo "model name"
    std::string affinity; ///< this process's CPU list, e.g. "0-3"
};

inline HostRecord
currentHost()
{
    HostRecord h;
    h.hwThreads = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        // JSON-safe: no leading blank, no quote or backslash.
        for (char c : line.substr(colon + 1))
            if (c != '"' && c != '\\' && (c != ' ' || !h.cpuModel.empty()))
                h.cpuModel.push_back(c);
        break;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (!CPU_ISSET(c, &set))
                continue;
            int last = c;
            while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set))
                ++last;
            h.affinity += (h.affinity.empty() ? "" : ",") +
                          std::to_string(c) +
                          (last > c ? "-" + std::to_string(last) : "");
            c = last;
        }
    return h;
}

/**
 * Machine-readable benchmark report, written as BENCH_<name>.json into
 * $FACILE_BENCH_JSON_DIR (default: the current directory) so the
 * repo's perf trajectory can be tracked run over run.
 *
 * Shape: a flat object of scalars, a "host" record ({hw_threads,
 * cpu_model, affinity}: scripts/check_bench.py compares row timings
 * only between matching hosts), and a "rows" array of measurement
 * rows ({"label": ..., metrics...}), in insertion order. Typical
 * metrics: blocks_per_sec, threads, cache_hit_rate, p50_us, p99_us.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    void
    scalar(const std::string &key, double value)
    {
        scalars_.push_back({key, Value::number(value)});
    }

    void
    scalar(const std::string &key, const std::string &value)
    {
        scalars_.push_back({key, Value::string(value)});
    }

    void
    boolean(const std::string &key, bool value)
    {
        scalars_.push_back({key, Value::boolean(value)});
    }

    /** Start a measurement row; metric() calls apply to the last row. */
    void
    row(const std::string &label)
    {
        rows_.push_back({label, {}});
    }

    void
    metric(const std::string &key, double value)
    {
        rows_.back().metrics.push_back({key, value});
    }

    /** Write BENCH_<name>.json; returns false (with a note) on error. */
    bool
    write() const
    {
        std::string dir;
        if (const char *d = std::getenv("FACILE_BENCH_JSON_DIR"))
            dir = std::string(d) + "/";
        const std::string path = dir + "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "note: cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\"", name_.c_str());
        const HostRecord host = currentHost();
        std::fprintf(f,
                     ",\n  \"host\": {\"hw_threads\": %u, \"cpu_model\": "
                     "\"%s\", \"affinity\": \"%s\"}",
                     host.hwThreads, host.cpuModel.c_str(),
                     host.affinity.c_str());
        for (const auto &[key, v] : scalars_) {
            std::fprintf(f, ",\n  \"%s\": ", key.c_str());
            printValue(f, v);
        }
        std::fprintf(f, ",\n  \"rows\": [");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s\n    {\"label\": \"%s\"",
                         i ? "," : "", rows_[i].label.c_str());
            for (const auto &[key, v] : rows_[i].metrics) {
                std::fprintf(f, ", \"%s\": ", key.c_str());
                printNumber(f, v);
            }
            std::fputc('}', f);
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    struct Value
    {
        enum class Kind { Number, String, Bool } kind;
        double num = 0.0;
        std::string str;
        bool b = false;

        static Value number(double v) { return {Kind::Number, v, {}, false}; }
        static Value string(std::string v)
        {
            return {Kind::String, 0.0, std::move(v), false};
        }
        static Value boolean(bool v) { return {Kind::Bool, 0.0, {}, v}; }
    };

    static void
    printNumber(std::FILE *f, double v)
    {
        if (std::isnan(v) || std::isinf(v))
            std::fprintf(f, "null");
        else
            std::fprintf(f, "%.10g", v);
    }

    static void
    printValue(std::FILE *f, const Value &v)
    {
        switch (v.kind) {
          case Value::Kind::Number:
            printNumber(f, v.num);
            break;
          case Value::Kind::String:
            std::fprintf(f, "\"%s\"", v.str.c_str());
            break;
          case Value::Kind::Bool:
            std::fprintf(f, v.b ? "true" : "false");
            break;
        }
    }

    struct Row
    {
        std::string label;
        std::vector<std::pair<std::string, double>> metrics;
    };

    std::string name_;
    std::vector<std::pair<std::string, Value>> scalars_;
    std::vector<Row> rows_;
};

} // namespace facile::bench

#endif // FACILE_BENCH_COMMON_H
