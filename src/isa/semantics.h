/**
 * @file
 * Architectural read/write semantics of the supported instructions.
 *
 * Dependence analysis (Facile's Precedence component, paper section 4.9)
 * and the reference simulator both need, per instruction, the set of
 * architectural values read and written. Values are tracked at the
 * granularity of register *families* plus two flag groups:
 *
 *   0..15   GPR families (rax..r15, any width)
 *   16..31  vector families (xmm/ymm 0..15)
 *   32      the carry flag (CF)
 *   33      the remaining status flags (SPAZO group)
 *
 * Flags are split because x86 instructions update them partially
 * (e.g. INC preserves CF); treating FLAGS as one value would create
 * spurious dependence cycles.
 *
 * Memory is not a value: per the modeling assumptions (paper section 3.3)
 * loads and stores are assumed not to alias, so no store-to-load edges
 * are created. Address registers of memory operands are read.
 */
#ifndef FACILE_ISA_SEMANTICS_H
#define FACILE_ISA_SEMANTICS_H

#include <bit>
#include <cstddef>
#include <cstdint>

#include "isa/inst.h"

namespace facile::isa {

/** Abstract value ids. */
inline constexpr int kValCf = 32;
inline constexpr int kValFlags = 33; ///< SF/ZF/AF/PF/OF group
inline constexpr int kNumValues = 34;

/** Value id of a register family. */
inline int
valueOf(Reg r)
{
    return r.family();
}

static_assert(kNumValues <= 64, "a ValueSet is one 64-bit word");

/**
 * A set of value ids, one bit per id. Iteration yields the ids in
 * ascending order. The precedence graph numbers its nodes and edges in
 * that order, so it must not change: tests/test_golden.cc pins every
 * prediction bit that depends on it.
 */
class ValueSet
{
  public:
    class iterator
    {
      public:
        explicit iterator(std::uint64_t rest) : rest_(rest) {}
        int operator*() const { return std::countr_zero(rest_); }
        iterator &
        operator++()
        {
            rest_ &= rest_ - 1; // drop the lowest id
            return *this;
        }
        bool operator==(const iterator &) const = default;

      private:
        std::uint64_t rest_;
    };

    void insert(int v) { bits_ |= std::uint64_t{1} << v; }
    bool contains(int v) const { return (bits_ >> v) & 1u; }
    std::size_t size() const { return std::popcount(bits_); }
    bool empty() const { return bits_ == 0; }

    /** The set as a mask: bit v is set iff v is in the set. */
    std::uint64_t bits() const { return bits_; }

    iterator begin() const { return iterator(bits_); }
    iterator end() const { return iterator(0); }

    bool operator==(const ValueSet &) const = default;

  private:
    std::uint64_t bits_ = 0;
};

/** Read/write sets of one instruction. */
struct RwSets
{
    ValueSet reads;
    ValueSet writes;

    /**
     * True for dependency-breaking idioms (xor r,r; sub r,r; pxor x,x; ...):
     * the destination write does not depend on any input.
     */
    bool depBreaking = false;
};

/** True if the instruction is a recognized zero/dependency-breaking idiom. */
bool isZeroIdiom(const Inst &inst);

/**
 * Compute the read and write sets of @p inst.
 *
 * Partial-width register writes (8/16-bit destinations) read the old
 * destination value (merge semantics). 32-bit writes zero the upper half
 * and count as full writes.
 */
RwSets instRw(const Inst &inst);

} // namespace facile::isa

#endif // FACILE_ISA_SEMANTICS_H
