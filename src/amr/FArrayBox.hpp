// crocco-analyze:allow-file(R1): FArrayBox owns its storage; .data() here
// is the allocation/copy layer the Array4 accessors are built on top of.
#pragma once

#include "amr/Array4.hpp"
#include "amr/Box.hpp"

#ifdef CROCCO_CHECK
#include "check/FabShadow.hpp"
#endif

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace crocco::amr {

/// A multi-component array of Reals defined over a Box (including any ghost
/// region — the box here is the *allocated* region). Mirrors
/// amrex::FArrayBox: Fortran-order storage, components outermost.
///
/// Fresh storage is allocated the way a device arena allocates it: resize()
/// leaves new elements uninitialized, and only the (box, ncomp, initial)
/// constructor fills. MultiFab::define, kernel scratch (viscousFlux,
/// gpu::ScratchPool) allocate through resize().
///
/// Check builds attach a check::FabShadow validity map: a filled fab starts
/// fully Valid, while the resize() callers follow up with
/// markUninitialized() to poison the data and reset the map, so the first
/// read of any never-written cell is caught. The views returned by
/// array()/const_array() carry the shadow into kernels.
class FArrayBox {
public:
    FArrayBox() = default;
    /// Every element set to `initial`: the one filling constructor.
    FArrayBox(const Box& b, int ncomp, Real initial = 0.0);

    /// Copies allocate unfilled storage and then copy the payload and the
    /// canary in one std::copy (a memmove; the vector's own copy would
    /// construct element by element through the allocator). Check builds
    /// copy the shadow map too.
    FArrayBox(const FArrayBox& other);
    FArrayBox& operator=(const FArrayBox& other);
    FArrayBox(FArrayBox&&) noexcept = default;
    FArrayBox& operator=(FArrayBox&&) noexcept = default;

    const Box& box() const { return box_; }
    int nComp() const { return ncomp_; }
    /// Payload element count (box cells x components). The storage itself
    /// holds one extra trailing element: the gpu::Arena allocation canary.
    std::int64_t size() const {
        return static_cast<std::int64_t>(box_.numPts()) * ncomp_;
    }

    /// True while the trailing allocation canary still holds the Arena
    /// guard pattern — a tripped canary means an out-of-box overrun (or an
    /// SDC hit on the allocator header region). Checked by ScratchPool on
    /// every lease return and by FabGuard verifies.
    bool canaryIntact() const;

#ifdef CROCCO_CHECK
    Array4<Real> array() { return {data_.data(), box_, ncomp_, &shadow_}; }
    Array4<const Real> const_array() const {
        return {data_.data(), box_, ncomp_, &shadow_};
    }
#else
    Array4<Real> array() { return {data_.data(), box_, ncomp_}; }
    Array4<const Real> const_array() const { return {data_.data(), box_, ncomp_}; }
#endif

    Real& operator()(const IntVect& p, int n = 0);
    Real operator()(const IntVect& p, int n = 0) const;

    void setVal(Real v);
    void setVal(Real v, const Box& region, int comp, int ncomp);

    /// this(region, destComp..) = src(region shifted by srcShift, srcComp..).
    /// `region` is in *this* fab's index space.
    void copyFrom(const FArrayBox& src, const Box& region, int srcComp,
                  int destComp, int numComp, const IntVect& srcShift = IntVect::zero());

    /// this += a * src over region (used by RK accumulation and testing).
    void saxpy(Real a, const FArrayBox& src, const Box& region, int srcComp,
               int destComp, int numComp);

    Real min(const Box& region, int comp) const;
    Real max(const Box& region, int comp) const;
    Real sum(const Box& region, int comp) const;

    /// L2 norm of the difference over region (the paper's §IV-A validation
    /// metric between Fortran and C++ kernels).
    static Real l2Diff(const FArrayBox& a, const FArrayBox& b, const Box& region,
                       int comp);

    bool ok() const { return !data_.empty(); }

    /// Rebind to a new box / component count, reusing the existing storage
    /// when the element count matches (gpu::ScratchPool recycling). Nothing
    /// is filled: kept elements hold what they held, new ones are
    /// uninitialized. Only the trailing canary is re-stamped. Check builds
    /// reset the shadow to fully Valid — callers wanting poison + Uninit
    /// tracking follow up with markUninitialized().
    void resize(const Box& b, int ncomp);

    /// Check builds: poison the storage with signaling NaNs and reset the
    /// shadow map to Uninit with `validBox` as the non-ghost region (called
    /// after resize() wherever a fab models a fresh device allocation).
    /// No-op without CROCCO_CHECK.
    void markUninitialized(const Box& validBox);

    /// Check builds: downgrade Valid ghost-region shadow cells to Stale
    /// after the valid region has been rewritten. No-op without CROCCO_CHECK.
    void invalidateGhostShadow();

#ifdef CROCCO_CHECK
    const check::FabShadow& shadowMap() const { return shadow_; }
    check::FabShadow& shadowMap() { return shadow_; }
#endif

private:
    /// std::allocator whose value-initialization default-initializes, so
    /// vector::resize leaves new Reals unfilled.
    template <typename T>
    struct DefaultInitAllocator : std::allocator<T> {
        template <typename U>
        struct rebind {
            using other = DefaultInitAllocator<U>;
        };
        template <typename U>
        void construct(U* p) noexcept {
            ::new (static_cast<void*>(p)) U;
        }
        template <typename U, typename... Args>
        void construct(U* p, Args&&... args) {
            ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
        }
    };

    Box box_;
    int ncomp_ = 0;
    std::vector<Real, DefaultInitAllocator<Real>> data_;
#ifdef CROCCO_CHECK
    check::FabShadow shadow_;
#endif
};

} // namespace crocco::amr
