#include "facile/predec.h"

#include <algorithm>

#include "support/math_util.h"

namespace facile::model {

namespace {

PredecScratch &
tlsScratch()
{
    thread_local PredecScratch s;
    return s;
}

} // namespace

double
predec(const bb::BasicBlock &blk, bool unrolled)
{
    return predec(blk, unrolled, tlsScratch());
}

double
predec(const bb::BasicBlock &blk, bool unrolled, PredecScratch &s)
{
    const std::int64_t l = blk.lengthBytes();
    if (l == 0 || blk.insts.empty())
        return 0.0;

    // Number of unrolled copies until the byte layout repeats.
    const std::int64_t u = unrolled ? lcm(l, 16) / l : 1;
    // Number of 16-byte blocks covered by u copies.
    const std::int64_t n = ceilDiv(u * l, 16);

    // Per-block instruction-instance counts.
    //   L(b):   instructions whose last byte is in block b
    //   O(b):   instructions whose nominal opcode starts in block b but
    //           whose last byte is in a later block
    //   LCP(b): LCP instructions whose nominal opcode starts in block b
    std::vector<int> &L = s.L, &O = s.O, &LCP = s.LCP;
    L.assign(n, 0);
    O.assign(n, 0);
    LCP.assign(n, 0);

    for (std::int64_t c = 0; c < u; ++c) {
        const std::int64_t base = c * l;
        for (const auto &ai : blk.insts) {
            const std::int64_t opcodeByte = base + ai.opcodePos;
            const std::int64_t lastByte = base + ai.end - 1;
            const std::int64_t bOpc = opcodeByte / 16;
            const std::int64_t bLast = lastByte / 16;
            ++L[bLast];
            if (bOpc != bLast)
                ++O[bOpc];
            if (ai.dec.lcp)
                ++LCP[bOpc];
        }
    }

    // cycleNLCP(b) = ceil((L(b) + O(b)) / 5)
    std::vector<std::int64_t> &cycleNLCP = s.cycleNLCP;
    cycleNLCP.assign(n, 0);
    for (std::int64_t b = 0; b < n; ++b)
        cycleNLCP[b] = ceilDiv(L[b] + O[b], 5);

    // cycleLCP(b) = max(0, 3*LCP(b) - (cycleNLCP(b-1) - 1)),
    // with block -1 wrapping around to block n-1 (steady state).
    std::int64_t total = 0;
    for (std::int64_t b = 0; b < n; ++b) {
        const std::int64_t prev = cycleNLCP[(b + n - 1) % n];
        const std::int64_t lcpCycles =
            std::max<std::int64_t>(0, 3 * LCP[b] - (prev - 1));
        total += cycleNLCP[b] + lcpCycles;
    }

    return static_cast<double>(total) / static_cast<double>(u);
}

double
simplePredec(const bb::BasicBlock &blk)
{
    return static_cast<double>(blk.lengthBytes()) / 16.0;
}

} // namespace facile::model
