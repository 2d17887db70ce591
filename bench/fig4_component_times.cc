/**
 * @file
 * Reproduces Figure 4: distributions of the execution time of Facile's
 * components under TPU and TPL, including the fixed per-benchmark
 * overhead (parsing + disassembly + annotation).
 *
 * For each component we report mean, median, p90, and max time per
 * benchmark in milliseconds over the suite, measured on Skylake blocks
 * (as in the paper's efficiency experiments).
 */
#include "bench_common.h"

#include <chrono>
#include <functional>

#include "facile/component.h"
#include "support/stats.h"

using namespace facile;
using Clock = std::chrono::steady_clock;

namespace {

struct Row
{
    std::string name;
    std::vector<double> timesMs;
};

void
printRows(const std::vector<Row> &rows)
{
    std::printf("%-12s %10s %10s %10s %10s\n", "Component", "mean(ms)",
                "median", "p90", "max");
    for (const auto &r : rows) {
        auto t = r.timesMs;
        std::printf("%-12s %10.5f %10.5f %10.5f %10.5f\n", r.name.c_str(),
                    mean(t), percentile(t, 50), percentile(t, 90),
                    percentile(t, 100));
    }
}

Row
timeComponent(const std::string &name,
              const std::vector<const std::vector<std::uint8_t> *> &blocks,
              const std::function<double(const bb::BasicBlock &)> &fn)
{
    Row row{name, {}};
    volatile double sink = 0.0;
    for (const auto *bytes : blocks) {
        bb::BasicBlock blk = bb::analyze(*bytes, uarch::UArch::SKL);
        auto t0 = Clock::now();
        sink = sink + fn(blk);
        auto t1 = Clock::now();
        row.timesMs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    (void)sink;
    return row;
}

} // namespace

int
main()
{
    const auto &suite = bhive::defaultSuite();

    for (bool loop : {false, true}) {
        std::vector<const std::vector<std::uint8_t> *> blocks;
        for (const auto &b : suite)
            blocks.push_back(loop ? &b.bytesL : &b.bytesU);

        std::printf("FIGURE 4%s: component execution times under %s\n",
                    loop ? "b" : "a", loop ? "TPL" : "TPU");
        bench::printRule();

        std::vector<Row> rows;

        // Overhead: decoding + annotation, i.e. everything before any
        // component prediction runs.
        {
            Row row{"Overhead", {}};
            for (const auto *bytes : blocks) {
                auto t0 = Clock::now();
                bb::BasicBlock blk =
                    bb::analyze(*bytes, uarch::UArch::SKL);
                auto t1 = Clock::now();
                (void)blk;
                row.timesMs.push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
            }
            rows.push_back(std::move(row));
        }

        // FACILE: the full prediction (components + combination),
        // through the serving-path cheap mode.
        model::PredictScratch scratch;
        rows.push_back(timeComponent(
            "FACILE", blocks, [&](const bb::BasicBlock &blk) {
                return model::predict(blk, loop, {}, scratch).throughput;
            }));

        // Individual components through the uniform registry
        // interface, timed via bound(). The row set matches the
        // paper's Figure 4: all seven components under TPL (Predec and
        // Dec are timed even though a non-erratum loop would not run
        // them, and LSD is timed on SKL although its registry omits
        // it), DSB/LSD skipped under TPU where no front-end mode uses
        // them.
        for (int c = 0; c < model::kNumComponents; ++c) {
            const model::Component id = static_cast<model::Component>(c);
            if (!loop && (id == model::Component::DSB ||
                          id == model::Component::LSD))
                continue;
            const model::ComponentPredictor &comp = model::component(id);
            rows.push_back(timeComponent(
                std::string(comp.displayName()), blocks,
                [&](const bb::BasicBlock &blk) {
                    const model::PredictContext ctx{
                        blk, uarch::config(blk.arch), loop,
                        model::Payload::None, scratch};
                    return comp.bound(ctx);
                }));
        }

        printRows(rows);
        std::printf("\n");
    }
    return 0;
}
