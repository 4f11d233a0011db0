#pragma once

#include "amr/IntVect.hpp"

#include <cstdint>
#include <iosfwd>

namespace crocco::amr {

/// A logically rectangular patch of cells: the closed index interval
/// [smallEnd, bigEnd] in each dimension. Cell-centered indexing throughout
/// (CRoCCo stores all state at cell centers).
///
/// An "empty" box has bigEnd < smallEnd in some dimension.
class Box {
public:
    /// Default: an empty (invalid) box.
    constexpr Box() : lo_(0), hi_(-1) {}
    constexpr Box(const IntVect& lo, const IntVect& hi) : lo_(lo), hi_(hi) {}

    constexpr const IntVect& smallEnd() const { return lo_; }
    constexpr const IntVect& bigEnd() const { return hi_; }
    constexpr int smallEnd(int d) const { return lo_[d]; }
    constexpr int bigEnd(int d) const { return hi_[d]; }

    constexpr bool ok() const { return lo_.allLE(hi_); }

    /// Number of cells along dimension d (0 if empty).
    constexpr int length(int d) const {
        const int n = hi_[d] - lo_[d] + 1;
        return n > 0 ? n : 0;
    }
    constexpr IntVect size() const { return {length(0), length(1), length(2)}; }
    constexpr std::int64_t numPts() const {
        return ok() ? size().product() : 0;
    }

    constexpr bool contains(const IntVect& p) const {
        return lo_.allLE(p) && p.allLE(hi_);
    }
    constexpr bool contains(const Box& b) const {
        return b.ok() && lo_.allLE(b.lo_) && b.hi_.allLE(hi_);
    }
    constexpr bool intersects(const Box& b) const {
        return (*this & b).ok();
    }

    /// Intersection; may be empty.
    constexpr Box operator&(const Box& b) const {
        return {IntVect::componentMax(lo_, b.lo_), IntVect::componentMin(hi_, b.hi_)};
    }

    constexpr bool operator==(const Box& b) const { return lo_ == b.lo_ && hi_ == b.hi_; }
    constexpr bool operator!=(const Box& b) const { return !(*this == b); }

    /// Grow by n ghost cells on every face (n may be negative to shrink).
    constexpr Box grow(int n) const { return grow(IntVect(n)); }
    constexpr Box grow(const IntVect& n) const { return {lo_ - n, hi_ + n}; }
    /// Grow only along dimension d.
    constexpr Box grow(int d, int n) const {
        Box b = *this;
        b.lo_[d] -= n;
        b.hi_[d] += n;
        return b;
    }

    constexpr Box shift(const IntVect& s) const { return {lo_ + s, hi_ + s}; }
    constexpr Box shift(int d, int n) const { return shift(IntVect::basis(d) * n); }

    /// Index interval of the covering coarse cells at the given ratio.
    constexpr Box coarsen(const IntVect& ratio) const {
        return {lo_.coarsen(ratio), hi_.coarsen(ratio)};
    }
    constexpr Box coarsen(int r) const { return coarsen(IntVect(r)); }

    /// Index interval of the covered fine cells at the given ratio.
    constexpr Box refine(const IntVect& ratio) const {
        return {lo_ * ratio, (hi_ + IntVect::unit()) * ratio - IntVect::unit()};
    }
    constexpr Box refine(int r) const { return refine(IntVect(r)); }

    /// True if coarsen(ratio).refine(ratio) == *this, i.e. the box sits on
    /// ratio-aligned boundaries in every dimension.
    constexpr bool coarsenable(const IntVect& ratio) const {
        return ok() && coarsen(ratio).refine(ratio) == *this;
    }
    constexpr bool coarsenable(int r) const { return coarsenable(IntVect(r)); }

    /// Linear offset of point p within this box, Fortran (i-fastest) order.
    constexpr std::int64_t index(const IntVect& p) const {
        const std::int64_t nx = length(0), ny = length(1);
        return (p[0] - lo_[0]) + nx * ((p[1] - lo_[1]) + ny * static_cast<std::int64_t>(p[2] - lo_[2]));
    }

    /// The minimal box containing both operands.
    static constexpr Box bboxUnion(const Box& a, const Box& b) {
        if (!a.ok()) return b;
        if (!b.ok()) return a;
        return {IntVect::componentMin(a.lo_, b.lo_), IntVect::componentMax(a.hi_, b.hi_)};
    }

    /// Split this box in half along its longest dimension; returns {left,
    /// right}. The box must have at least 2 cells in that dimension.
    std::pair<Box, Box> chop() const;

    /// Split along dimension d at index cut (cut becomes the first cell of
    /// the right half).
    std::pair<Box, Box> chop(int d, int cut) const;

private:
    IntVect lo_, hi_;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Visit every cell of b in Fortran order, calling f(i, j, k).
template <typename F>
inline void forEachCell(const Box& b, F&& f) {
    for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
        for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
            for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i)
                f(i, j, k);
}

} // namespace crocco::amr
