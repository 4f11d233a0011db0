// crocco-analyze:allow-file(R1): FArrayBox owns its storage; .data() here
// is the allocation/copy layer the Array4 accessors are built on top of.
#include "amr/FArrayBox.hpp"

#include "gpu/Arena.hpp"

#ifdef CROCCO_CHECK
#include "check/RaceDetector.hpp"
#endif

#include <algorithm>
#include <cassert>
#include <cmath>

namespace crocco::amr {

FArrayBox::FArrayBox(const Box& b, int ncomp, Real initial)
    : box_(b), ncomp_(ncomp),
      data_(static_cast<std::size_t>(b.numPts()) * ncomp + 1, initial) {
    assert(b.ok() && ncomp >= 1);
    // The extra trailing element is the allocation-header canary: overruns
    // past the box land on it instead of the next allocation.
    gpu::Arena::stampCanary(&data_.back());
#ifdef CROCCO_CHECK
    // Every element was filled above, so the whole allocation is genuinely
    // Valid until markUninitialized() says otherwise.
    shadow_.define(box_, box_, ncomp_, check::FabShadow::Valid);
#endif
}

FArrayBox::FArrayBox(const FArrayBox& other) { *this = other; }

FArrayBox& FArrayBox::operator=(const FArrayBox& other) {
    if (this == &other) return *this;
    box_ = other.box_;
    ncomp_ = other.ncomp_;
    // clear() first, so a reallocating resize has nothing to carry over.
    data_.clear();
    data_.resize(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
#ifdef CROCCO_CHECK
    shadow_ = other.shadow_;
#endif
    return *this;
}

void FArrayBox::resize(const Box& b, int ncomp) {
    assert(b.ok() && ncomp >= 1);
    box_ = b;
    ncomp_ = ncomp;
    data_.resize(static_cast<std::size_t>(b.numPts()) * ncomp + 1);
    gpu::Arena::stampCanary(&data_.back());
#ifdef CROCCO_CHECK
    shadow_.define(box_, box_, ncomp_, check::FabShadow::Valid);
#endif
}

bool FArrayBox::canaryIntact() const {
    return data_.empty() || gpu::Arena::canaryIntact(&data_.back());
}

void FArrayBox::markUninitialized(const Box& validBox) {
#ifdef CROCCO_CHECK
    shadow_.define(box_, validBox, ncomp_, check::FabShadow::Uninit);
    // Poison the payload only — the trailing canary keeps its guard word.
    gpu::Arena::poisonFresh(data_.data(), data_.size() - 1);
#else
    (void)validBox;
#endif
}

void FArrayBox::invalidateGhostShadow() {
#ifdef CROCCO_CHECK
    shadow_.invalidateGhosts();
#endif
}

#ifdef CROCCO_CHECK
// Route the index-wise accessors through the instrumented views so they get
// the same bounds/validity/race treatment as kernel accesses.
Real& FArrayBox::operator()(const IntVect& p, int n) {
    return array()(p[0], p[1], p[2], n);
}

Real FArrayBox::operator()(const IntVect& p, int n) const {
    return const_array()(p[0], p[1], p[2], n);
}
#else
Real& FArrayBox::operator()(const IntVect& p, int n) {
    assert(box_.contains(p) && n >= 0 && n < ncomp_);
    return data_[static_cast<std::size_t>(box_.index(p) + box_.numPts() * n)];
}

Real FArrayBox::operator()(const IntVect& p, int n) const {
    assert(box_.contains(p) && n >= 0 && n < ncomp_);
    return data_[static_cast<std::size_t>(box_.index(p) + box_.numPts() * n)];
}
#endif

void FArrayBox::setVal(Real v) {
    if (data_.empty()) return;
    // Payload only: the trailing element is the allocation canary.
    const std::size_t n = data_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
#ifdef CROCCO_CHECK
    shadow_.markAll(check::FabShadow::Valid);
#endif
}

void FArrayBox::setVal(Real v, const Box& region, int comp, int ncomp) {
    const Box r = region & box_;
    auto a = array();
    for (int n = comp; n < comp + ncomp; ++n)
        forEachCell(r, [&](int i, int j, int k) { a(i, j, k, n) = v; });
}

void FArrayBox::copyFrom(const FArrayBox& src, const Box& region, int srcComp,
                         int destComp, int numComp, const IntVect& srcShift) {
    const Box r = region & box_;
    assert(src.box().contains(r.shift(srcShift)));
    assert(srcComp + numComp <= src.nComp() && destComp + numComp <= ncomp_);
    auto d = array();
    auto s = src.const_array();
#ifdef CROCCO_CHECK
    // One race-detector record per copy region (see check::TaskLog).
    check::sealTaskLog();
#endif
    for (int n = 0; n < numComp; ++n)
        forEachCell(r, [&](int i, int j, int k) {
            d(i, j, k, destComp + n) =
                s(i + srcShift[0], j + srcShift[1], k + srcShift[2], srcComp + n);
        });
#ifdef CROCCO_CHECK
    check::sealTaskLog();
#endif
}

void FArrayBox::saxpy(Real a, const FArrayBox& src, const Box& region, int srcComp,
                      int destComp, int numComp) {
    const Box r = region & box_ & src.box();
    auto d = array();
    auto s = src.const_array();
    for (int n = 0; n < numComp; ++n)
        forEachCell(r, [&](int i, int j, int k) {
            d(i, j, k, destComp + n) += a * s(i, j, k, srcComp + n);
        });
}

Real FArrayBox::min(const Box& region, int comp) const {
    const Box r = region & box_;
    Real m = std::numeric_limits<Real>::infinity();
    auto a = const_array();
    forEachCell(r, [&](int i, int j, int k) { m = std::min(m, a(i, j, k, comp)); });
    return m;
}

Real FArrayBox::max(const Box& region, int comp) const {
    const Box r = region & box_;
    Real m = -std::numeric_limits<Real>::infinity();
    auto a = const_array();
    forEachCell(r, [&](int i, int j, int k) { m = std::max(m, a(i, j, k, comp)); });
    return m;
}

Real FArrayBox::sum(const Box& region, int comp) const {
    const Box r = region & box_;
    Real s = 0.0;
    auto a = const_array();
    forEachCell(r, [&](int i, int j, int k) { s += a(i, j, k, comp); });
    return s;
}

Real FArrayBox::l2Diff(const FArrayBox& a, const FArrayBox& b, const Box& region,
                       int comp) {
    const Box r = region & a.box() & b.box();
    Real s = 0.0;
    auto aa = a.const_array();
    auto bb = b.const_array();
    forEachCell(r, [&](int i, int j, int k) {
        const Real d = aa(i, j, k, comp) - bb(i, j, k, comp);
        s += d * d;
    });
    return std::sqrt(s);
}

} // namespace crocco::amr
