/**
 * @file
 * InlineVec: a fixed-capacity sequence stored inline.
 *
 * The per-instruction arrays of the block IR (operands, port µops) and
 * a prediction's bottleneck list have small maxima known at compile
 * time. Holding them inline, as a count plus an array, keeps analyzing
 * and predicting a block free of heap allocations beyond the block's
 * own buffers. A push beyond capacity throws std::length_error: the
 * capacities are the model's maxima, so overflowing one is a bug or an
 * input the model cannot represent, never a reason to grow.
 *
 * Copies and == touch live elements only. Under _GLIBCXX_ASSERTIONS
 * (the sanitizer builds) an index past the count aborts, as a
 * std::vector index does there.
 */
#ifndef FACILE_SUPPORT_INLINE_VEC_H
#define FACILE_SUPPORT_INLINE_VEC_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

#ifdef _GLIBCXX_ASSERTIONS
#include <cstdio>
#include <cstdlib>
#endif

namespace facile::support {

template <typename T, std::size_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "InlineVec holds plain values only");
    static_assert(N > 0 && N < 256, "the count is one byte");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() noexcept {}

    /** @throws std::length_error when @p init has more than N values. */
    InlineVec(std::initializer_list<T> init)
    {
        for (const T &v : init)
            push_back(v);
    }

    InlineVec(const InlineVec &o) noexcept : n_(o.n_)
    {
        for (std::size_t i = 0; i < n_; ++i)
            data_[i] = o.data_[i];
    }

    InlineVec &
    operator=(const InlineVec &o) noexcept
    {
        n_ = o.n_;
        for (std::size_t i = 0; i < n_; ++i)
            data_[i] = o.data_[i];
        return *this;
    }

    /** @throws std::length_error when the vector is full. */
    void
    push_back(const T &v)
    {
        if (n_ == N)
            throw std::length_error("InlineVec: capacity exceeded");
        data_[n_++] = v;
    }

    void clear() noexcept { n_ = 0; }

    std::size_t size() const noexcept { return n_; }
    bool empty() const noexcept { return n_ == 0; }

    T &
    operator[](std::size_t i) noexcept
    {
        check(i);
        return data_[i];
    }

    const T &
    operator[](std::size_t i) const noexcept
    {
        check(i);
        return data_[i];
    }

    T &front() noexcept { return (*this)[0]; }
    const T &front() const noexcept { return (*this)[0]; }
    T &back() noexcept { return (*this)[n_ - 1u]; }
    const T &back() const noexcept { return (*this)[n_ - 1u]; }

    T *begin() noexcept { return data_; }
    T *end() noexcept { return data_ + n_; }
    const T *begin() const noexcept { return data_; }
    const T *end() const noexcept { return data_ + n_; }

    friend bool
    operator==(const InlineVec &a, const InlineVec &b)
    {
        if (a.n_ != b.n_)
            return false;
        for (std::size_t i = 0; i < a.n_; ++i)
            if (!(a.data_[i] == b.data_[i]))
                return false;
        return true;
    }

  private:
    void
    check([[maybe_unused]] std::size_t i) const noexcept
    {
#ifdef _GLIBCXX_ASSERTIONS
        if (i >= n_) {
            std::fprintf(stderr,
                         "InlineVec: index %zu out of range (size %zu)\n",
                         i, static_cast<std::size_t>(n_));
            std::abort();
        }
#endif
    }

    std::uint8_t n_ = 0;
    /** Slots [0, n_) are live; the rest are never read. */
    union
    {
        T data_[N];
    };
};

} // namespace facile::support

#endif // FACILE_SUPPORT_INLINE_VEC_H
