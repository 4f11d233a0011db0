#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>

namespace crocco::amr {

/// Number of spatial dimensions. CRoCCo solves the DMR problem in 3-D.
inline constexpr int SpaceDim = 3;

/// A point on the integer lattice: a cell index (i, j, k).
///
/// This is the basic index type for the block-structured AMR machinery.
/// All arithmetic is component-wise.
class IntVect {
public:
    constexpr IntVect() : v_{0, 0, 0} {}
    constexpr IntVect(int i, int j, int k) : v_{i, j, k} {}
    constexpr explicit IntVect(int s) : v_{s, s, s} {}

    constexpr int operator[](int d) const { return v_[d]; }
    constexpr int& operator[](int d) { return v_[d]; }

    constexpr IntVect operator+(const IntVect& o) const {
        return {v_[0] + o.v_[0], v_[1] + o.v_[1], v_[2] + o.v_[2]};
    }
    constexpr IntVect operator-(const IntVect& o) const {
        return {v_[0] - o.v_[0], v_[1] - o.v_[1], v_[2] - o.v_[2]};
    }
    constexpr IntVect operator*(const IntVect& o) const {
        return {v_[0] * o.v_[0], v_[1] * o.v_[1], v_[2] * o.v_[2]};
    }
    constexpr IntVect operator*(int s) const { return {v_[0] * s, v_[1] * s, v_[2] * s}; }
    constexpr IntVect operator-() const { return {-v_[0], -v_[1], -v_[2]}; }

    /// Component-wise division rounding toward negative infinity
    /// (coarsening an index must map cells 0..r-1 to coarse cell 0,
    /// cells -r..-1 to coarse cell -1).
    constexpr IntVect coarsen(const IntVect& ratio) const {
        IntVect r;
        for (int d = 0; d < SpaceDim; ++d) {
            const int q = v_[d], p = ratio[d];
            r[d] = (q >= 0) ? q / p : -((-q + p - 1) / p);
        }
        return r;
    }
    constexpr IntVect coarsen(int ratio) const { return coarsen(IntVect(ratio)); }

    constexpr bool operator==(const IntVect& o) const {
        return v_[0] == o.v_[0] && v_[1] == o.v_[1] && v_[2] == o.v_[2];
    }
    constexpr bool operator!=(const IntVect& o) const { return !(*this == o); }

    /// true if every component of *this is <= the matching component of o
    constexpr bool allLE(const IntVect& o) const {
        return v_[0] <= o.v_[0] && v_[1] <= o.v_[1] && v_[2] <= o.v_[2];
    }
    constexpr bool allLT(const IntVect& o) const {
        return v_[0] < o.v_[0] && v_[1] < o.v_[1] && v_[2] < o.v_[2];
    }

    constexpr int min() const { return std::min({v_[0], v_[1], v_[2]}); }
    constexpr int max() const { return std::max({v_[0], v_[1], v_[2]}); }
    constexpr std::int64_t product() const {
        return static_cast<std::int64_t>(v_[0]) * v_[1] * v_[2];
    }

    static constexpr IntVect zero() { return IntVect(0); }
    static constexpr IntVect unit() { return IntVect(1); }

    /// Basis vector along dimension d.
    static constexpr IntVect basis(int d) {
        IntVect r;
        r[d] = 1;
        return r;
    }

    static constexpr IntVect componentMin(const IntVect& a, const IntVect& b) {
        return {std::min(a[0], b[0]), std::min(a[1], b[1]), std::min(a[2], b[2])};
    }
    static constexpr IntVect componentMax(const IntVect& a, const IntVect& b) {
        return {std::max(a[0], b[0]), std::max(a[1], b[1]), std::max(a[2], b[2])};
    }

private:
    std::array<int, 3> v_;
};

std::ostream& operator<<(std::ostream& os, const IntVect& iv);

} // namespace crocco::amr

template <>
struct std::hash<crocco::amr::IntVect> {
    std::size_t operator()(const crocco::amr::IntVect& iv) const noexcept {
        // Standard 64-bit mix of the three 21-bit-ish index components.
        std::uint64_t h = 1469598103934665603ull;
        for (int d = 0; d < 3; ++d) {
            h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(iv[d]));
            h *= 1099511628211ull;
        }
        return static_cast<std::size_t>(h);
    }
};
