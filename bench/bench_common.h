/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: the
 * prepared (simulated) evaluation suite per µarch, and the table rule.
 */
#ifndef FACILE_PAPER_BENCH_COMMON_H
#define FACILE_PAPER_BENCH_COMMON_H

#include <cstdio>
#include <map>

#include "eval/harness.h"
#include "facile/predictor.h"

namespace facile::bench {

/** Prepared (simulated) default suite for one µarch, cached per process. */
inline const eval::ArchSuite &
archSuite(uarch::UArch arch)
{
    static std::map<uarch::UArch, eval::ArchSuite> cache;
    auto it = cache.find(arch);
    if (it == cache.end()) {
        std::fprintf(stderr, "[prepare] measuring ground truth for %s...\n",
                     uarch::config(arch).abbrev);
        it = cache.emplace(arch, eval::prepare(arch, bhive::defaultSuite()))
                 .first;
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

} // namespace facile::bench

#endif // FACILE_PAPER_BENCH_COMMON_H
