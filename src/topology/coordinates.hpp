/**
 * @file
 * Cartesian coordinates for k-ary n-dimensional mesh/torus networks.
 *
 * Node ids are row-major with dimension 0 (X) varying fastest, matching
 * the paper's 16x16 node labeling (node = y*16 + x, Fig. 8).
 */

#ifndef LAPSES_TOPOLOGY_COORDINATES_HPP
#define LAPSES_TOPOLOGY_COORDINATES_HPP

#include <array>
#include <cstdint>
#include <string>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace lapses
{

/** Maximum supported mesh dimensionality. The paper discusses 2-D and 3-D
 *  (economical storage needs 3^n entries, "typically n = 2 or 3"); 4 gives
 *  headroom for experiments without dynamic allocation. */
inline constexpr int kMaxDims = 4;

/** A point in an n-dimensional mesh. */
class Coordinates
{
  public:
    Coordinates() : dims_(0) { pos_.fill(0); }

    /** Construct an n-dimensional coordinate with all positions zero. */
    explicit Coordinates(int dims) : dims_(dims)
    {
        LAPSES_ASSERT(dims >= 1 && dims <= kMaxDims);
        pos_.fill(0);
    }

    /** Convenience 2-D constructor. */
    Coordinates(int x, int y) : dims_(2)
    {
        pos_.fill(0);
        pos_[0] = static_cast<std::int16_t>(x);
        pos_[1] = static_cast<std::int16_t>(y);
    }

    /** Convenience 3-D constructor. */
    Coordinates(int x, int y, int z) : dims_(3)
    {
        pos_.fill(0);
        pos_[0] = static_cast<std::int16_t>(x);
        pos_[1] = static_cast<std::int16_t>(y);
        pos_[2] = static_cast<std::int16_t>(z);
    }

    int dims() const { return dims_; }

    /** Position along dimension d. */
    int
    at(int d) const
    {
        LAPSES_ASSERT(d >= 0 && d < dims_);
        return pos_[static_cast<std::size_t>(d)];
    }

    /** Set position along dimension d. */
    void
    set(int d, int v)
    {
        LAPSES_ASSERT(d >= 0 && d < dims_);
        pos_[static_cast<std::size_t>(d)] = static_cast<std::int16_t>(v);
    }

    bool
    operator==(const Coordinates& o) const
    {
        if (dims_ != o.dims_)
            return false;
        for (int d = 0; d < dims_; ++d) {
            if (pos_[static_cast<std::size_t>(d)] !=
                o.pos_[static_cast<std::size_t>(d)]) {
                return false;
            }
        }
        return true;
    }

    bool operator!=(const Coordinates& o) const { return !(*this == o); }

    /** "(x,y)" rendering for diagnostics. */
    std::string toString() const;

  private:
    std::array<std::int16_t, kMaxDims> pos_;
    int dims_;
};

/** Sign of a relative coordinate: the {+, -, 0} of Section 5.2.1. */
enum class Sign : std::int8_t { Minus = -1, Zero = 0, Plus = 1 };

/** sign(b - a) for one dimension. */
inline Sign
signOf(int a, int b)
{
    if (b > a)
        return Sign::Plus;
    if (b < a)
        return Sign::Minus;
    return Sign::Zero;
}

/** Render a Sign as '+', '-' or '0'. */
char signChar(Sign s);

/**
 * The sign vector of a destination relative to a source: the economical
 * storage index (s_x, s_y, ...) of Section 5.2.1. Encodes each dimension's
 * sign into a base-3 integer in [0, 3^n).
 */
class SignVector
{
  public:
    SignVector() : dims_(0) { signs_.fill(Sign::Zero); }

    /** Compute signs of (to - from) per dimension. */
    SignVector(const Coordinates& from, const Coordinates& to);

    int dims() const { return dims_; }

    Sign
    at(int d) const
    {
        LAPSES_ASSERT(d >= 0 && d < dims_);
        return signs_[static_cast<std::size_t>(d)];
    }

    void
    set(int d, Sign s)
    {
        LAPSES_ASSERT(d >= 0 && d < dims_);
        signs_[static_cast<std::size_t>(d)] = s;
    }

    /** True when every dimension is Zero (destination reached). */
    bool isZero() const;

    /**
     * Base-3 table index: sum over d of digit(d) * 3^d where digit maps
     * {Minus, Zero, Plus} -> {0, 1, 2}. This is the 9-entry (2-D) /
     * 27-entry (3-D) economical-storage index.
     */
    int tableIndex() const;

    /** Inverse of tableIndex(). */
    static SignVector fromTableIndex(int index, int dims);

    /** SignVector(from, to).tableIndex() without building the vector:
     *  the index economical storage computes for every lookup. */
    static int
    tableIndexOf(const Coordinates& from, const Coordinates& to)
    {
        LAPSES_ASSERT(from.dims() == to.dims());
        int index = 0;
        int weight = 1;
        for (int d = 0; d < from.dims(); ++d) {
            index += (static_cast<int>(signOf(from.at(d), to.at(d))) + 1) *
                     weight;
            weight *= 3;
        }
        return index;
    }

    /** "(+,-)" rendering for diagnostics. */
    std::string toString() const;

  private:
    std::array<Sign, kMaxDims> signs_;
    int dims_;
};

} // namespace lapses

#endif // LAPSES_TOPOLOGY_COORDINATES_HPP
