/**
 * @file
 * Reproduces Figure 5: time per benchmark of Facile compared to the
 * other predictors, under both throughput notions, with an ASCII
 * log-scale bar chart.
 *
 * The reference simulator plays uiCA's role; the paper's key result to
 * check is the ordering: Facile is orders of magnitude faster than the
 * simulator and clearly faster than every baseline re-implementation.
 */
#include "bench_common.h"

#include <cmath>

#include "baselines/predictor_iface.h"

using namespace facile;

int
main()
{
    const auto &suite = bench::archSuite(uarch::UArch::SKL);

    std::vector<std::unique_ptr<baselines::ThroughputPredictor>> preds;
    preds.push_back(std::make_unique<baselines::FacilePredictor>());
    for (auto &p : baselines::makeBaselines())
        preds.push_back(std::move(p));
    preds.push_back(std::make_unique<baselines::SimulatorPredictor>());

    std::printf("FIGURE 5: efficiency of Facile compared to other tools\n");
    std::printf("(time per benchmark on the Skylake suite; log scale)\n");
    bench::printRule();
    std::printf("%-22s %12s %12s   %s\n", "Predictor", "TPU (ms)",
                "TPL (ms)", "log-scale bar (TPU)");
    bench::printRule();

    double facileU = 0.0, simU = 0.0;
    for (const auto &p : preds) {
        double u = eval::timePerBenchmarkMs(*p, suite, false);
        double l = eval::timePerBenchmarkMs(*p, suite, true);
        if (p->name() == "Facile")
            facileU = u;
        if (p->name() == "uiCA-like (ref. sim)")
            simU = u;
        // Bar: one '#' per factor of ~1.8x above 1 microsecond.
        int bar = static_cast<int>(
            std::max(0.0, std::log(u / 0.001) / std::log(1.8)));
        std::printf("%-22s %12.4f %12.4f   %.*s\n", p->name().c_str(), u, l,
                    bar,
                    "########################################"
                    "########################################");
    }
    bench::printRule();

    std::printf("\nFacile vs reference simulator speedup (TPU): %.0fx\n",
                simU / facileU);

    // End-to-end serving rate through the batch engine. Caches off:
    // with them on, every timed pass over the identical batch would be
    // a pure cache lookup and overstate prediction throughput by an
    // order of magnitude.
    engine::PredictionEngine::Options eopts;
    eopts.cacheEnabled = false;
    engine::PredictionEngine eng(eopts);
    eval::EngineThroughput et =
        eval::measureEngineThroughput(eng, suite, false);
    std::printf("Batch engine (%d threads, cache off): %.0f blocks/sec "
                "end-to-end\n",
                eng.numThreads(), et.blocksPerSec);
    return 0;
}
