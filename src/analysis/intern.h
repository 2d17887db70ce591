/**
 * @file
 * Interning counters, kept only for the repository benchmark.
 *
 * Block analysis is stateless (src/bb/basic_block.h): there is no
 * instruction interner any more. perfbench/src/fresh_compile.cc still
 * reads these counters for its `analysis.intern_*` metrics, and the
 * benchmark's sources are not changed together with the program, so
 * the API stays and always reports zeros.
 */
#ifndef FACILE_ANALYSIS_INTERN_H
#define FACILE_ANALYSIS_INTERN_H

#include <cstdint>

namespace facile::analysis {

/** Hit/miss counters; always zero. */
struct InternStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

class InstInterner
{
  public:
    /** Zeros: nothing is interned. */
    static InternStats statsAllArchs() { return {}; }
};

} // namespace facile::analysis

#endif // FACILE_ANALYSIS_INTERN_H
