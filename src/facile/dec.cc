#include "facile/dec.h"

#include <algorithm>
#include <numeric>

#include "uarch/config.h"

namespace facile::model {

namespace {

DecScratch &
tlsScratch()
{
    thread_local DecScratch s;
    return s;
}

} // namespace

double
dec(const bb::BasicBlock &blk)
{
    return dec(blk, tlsScratch());
}

double
dec(const bb::BasicBlock &blk, DecScratch &s)
{
    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
    const int nDec = cfg.nDecoders;

    std::vector<DecUnit> &units = s.units;
    units.clear();
    for (const auto &ai : blk.insts) {
        if (ai.fusedWithPrev) {
            // The fused branch rides along with its predecessor; it still
            // ends the decode group (it is a branch).
            if (!units.empty())
                units.back().branch = true;
            continue;
        }
        units.push_back({ai.info.needsComplexDecoder,
                         ai.info.nAvailableSimpleDecoders,
                         ai.info.macroFusible, ai.dec.inst.isBranch()});
    }
    if (units.empty())
        return 0.0;

    // Algorithm 1.
    int curDec = nDec - 1;
    int nAvailableSimpleDecoders = 0;
    std::vector<int> &nComplexDecInIteration = s.nComplexDecInIteration;
    nComplexDecInIteration.assign(1, 0); // index 0 unused
    std::vector<int> &firstInstrOnDecInIteration =
        s.firstInstrOnDecInIteration;
    firstInstrOnDecInIteration.assign(nDec, -1);
    int iteration = 0;

    constexpr int kMaxIterations = 256; // safety net; steady state is fast
    while (iteration < kMaxIterations) {
        ++iteration;
        nComplexDecInIteration.push_back(0);
        for (std::size_t idx = 0; idx < units.size(); ++idx) {
            const DecUnit &i = units[idx];
            if (i.complex) {
                curDec = 0;
                nAvailableSimpleDecoders = i.nAvailSimple;
            } else {
                const bool mustRestart =
                    nAvailableSimpleDecoders == 0 ||
                    (curDec + 1 == nDec - 1 && i.macroFusible &&
                     !cfg.macroFusibleOnLastDecoder);
                if (mustRestart) {
                    curDec = 0;
                    nAvailableSimpleDecoders = nDec - 1;
                } else {
                    curDec = curDec + 1;
                    nAvailableSimpleDecoders = nAvailableSimpleDecoders - 1;
                }
            }
            if (i.branch)
                nAvailableSimpleDecoders = 0;
            if (curDec == 0)
                nComplexDecInIteration[iteration] += 1;

            if (idx == 0) {
                const int f = firstInstrOnDecInIteration[curDec];
                if (f >= 0) {
                    const int u = iteration - f;
                    std::int64_t cycles = 0;
                    for (int r = f; r <= iteration - 1; ++r)
                        cycles += nComplexDecInIteration[r];
                    return static_cast<double>(cycles) /
                           static_cast<double>(u);
                }
                firstInstrOnDecInIteration[curDec] = iteration;
            }
        }
    }
    // Unreachable for sane inputs: with nDec decoders the first
    // instruction can only land on nDec distinct decoders.
    return simpleDec(blk);
}

double
simpleDec(const bb::BasicBlock &blk)
{
    const uarch::MicroArchConfig &cfg = uarch::config(blk.arch);
    int n = 0, c = 0;
    for (const auto &ai : blk.insts) {
        if (ai.fusedWithPrev)
            continue;
        ++n;
        if (ai.info.needsComplexDecoder)
            ++c;
    }
    return std::max(static_cast<double>(n) / cfg.nDecoders,
                    static_cast<double>(c));
}

} // namespace facile::model
