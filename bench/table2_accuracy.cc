/**
 * @file
 * Reproduces Table 1 (microarchitecture roster) and Table 2 (MAPE and
 * Kendall's tau of all predictors on BHiveU and BHiveL, per µarch).
 *
 * Ground truth is the reference cycle-level simulator (the row labeled
 * "uiCA-like (ref. sim)" — the measurement substitute in this
 * reproduction, hence its zero error by construction; see DESIGN.md).
 */
#include "bench_common.h"

#include "baselines/predictor_iface.h"

using namespace facile;

int
main()
{
    std::printf("TABLE 1: Microarchitectures used for the evaluation\n");
    bench::printRule();
    std::printf("%-14s %-6s %-9s %s\n", "uArch", "Abbr.", "Released",
                "Modeled configuration");
    for (uarch::UArch a : uarch::allUArchs()) {
        const auto &c = uarch::config(a);
        std::printf("%-14s %-6s %-9d issue=%d dec=%d dsb=%d idq=%d "
                    "lsd=%s jcc=%s ports=%d\n",
                    c.name, c.abbrev, c.year, c.issueWidth, c.nDecoders,
                    c.dsbWidth, c.idqWidth, c.lsdEnabled ? "on" : "off",
                    c.jccErratum ? "yes" : "no", c.nPorts);
    }
    std::printf("\n");

    std::printf("TABLE 2: Comparison of predictors on BHiveU and BHiveL\n");
    std::printf("(%zu benchmarks per notion; ground truth: reference "
                "simulator)\n",
                bhive::defaultSuite().size());
    bench::printRule();
    std::printf("%-5s %-22s %10s %10s %12s %10s\n", "uArch", "Predictor",
                "MAPE(U)", "Kendall(U)", "MAPE(L)", "Kendall(L)");
    bench::printRule();

    std::size_t mapeSkippedTotal = 0;
    for (uarch::UArch a : uarch::allUArchs()) {
        const auto &suite = bench::archSuite(a);

        std::vector<std::unique_ptr<baselines::ThroughputPredictor>> preds;
        preds.push_back(std::make_unique<baselines::FacilePredictor>());
        preds.push_back(std::make_unique<baselines::SimulatorPredictor>());
        for (auto &p : baselines::makeBaselines())
            preds.push_back(std::move(p));

        for (const auto &p : preds) {
            eval::Accuracy u = eval::evaluate(*p, suite, false);
            eval::Accuracy l = eval::evaluate(*p, suite, true);
            mapeSkippedTotal += u.mapeSkipped + l.mapeSkipped;
            std::printf("%-5s %-22s %9.2f%% %10.4f %11.2f%% %10.4f\n",
                        uarch::config(a).abbrev, p->name().c_str(),
                        u.mape * 100.0, u.kendall, l.mape * 100.0,
                        l.kendall);
        }
        bench::printRule();
    }
    if (mapeSkippedTotal > 0)
        std::printf("note: %zu (measured, predicted) pairs had zero "
                    "measured throughput and were excluded from MAPE\n",
                    mapeSkippedTotal);
    return 0;
}
