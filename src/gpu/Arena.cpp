#include "gpu/Arena.hpp"

#ifdef CROCCO_CHECK
#include "check/Check.hpp"
#endif

#include <cstring>

namespace crocco::gpu {

double Arena::canaryValue() {
    double v;
    static_assert(sizeof v == sizeof kCanaryWord);
    std::memcpy(&v, &kCanaryWord, sizeof v);
    return v;
}

void Arena::stampCanary(double* slot) { *slot = canaryValue(); }

bool Arena::canaryIntact(const double* slot) {
    std::uint64_t u;
    std::memcpy(&u, slot, sizeof u);
    return u == kCanaryWord;
}

void Arena::poisonFresh(double* p, std::size_t n) {
#ifdef CROCCO_CHECK
    const double poison = check::poisonValue();
    for (std::size_t i = 0; i < n; ++i) p[i] = poison;
#else
    (void)p;
    (void)n;
#endif
}

ScratchPool& ScratchPool::instance() {
    static ScratchPool pool;
    return pool;
}

ScratchPool::Lease ScratchPool::acquire(const amr::Box& box, int ncomp) {
    std::unique_ptr<amr::FArrayBox> fab;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = free_.find(Key{box.numPts(), ncomp});
        if (it != free_.end() && !it->second.empty()) {
            fab = std::move(it->second.back());
            it->second.pop_back();
            ++hits_;
        } else {
            ++misses_;
        }
    }
    // A hit has the same element count: resize rebinds it, no realloc. A
    // miss allocates unfilled storage, as a device allocation does.
    if (!fab) fab = std::make_unique<amr::FArrayBox>();
    fab->resize(box, ncomp);
#ifdef CROCCO_CHECK
    // Hit or miss, scratch behaves like a fresh device allocation: poisoned
    // storage, Uninit shadow, fresh fab id.
    fab->markUninitialized(box);
#endif
    return Lease(this, std::move(fab));
}

void ScratchPool::release(std::unique_ptr<amr::FArrayBox> fab) {
    // A tripped canary means some kernel wrote past the box it leased (or
    // an upset hit the allocator header region). The buffer is evidence of
    // corruption, not a recyclable resource: drop it and count the trip.
    // This runs from Lease's destructor, so it must not throw.
    if (!fab->canaryIntact()) {
        std::lock_guard<std::mutex> lock(m_);
        ++canaryTrips_;
        return;
    }
    const Key key{fab->box().numPts(), fab->nComp()};
    std::lock_guard<std::mutex> lock(m_);
    free_[key].push_back(std::move(fab));
}

std::uint64_t ScratchPool::hits() const {
    std::lock_guard<std::mutex> lock(m_);
    return hits_;
}

std::uint64_t ScratchPool::misses() const {
    std::lock_guard<std::mutex> lock(m_);
    return misses_;
}

std::uint64_t ScratchPool::canaryTrips() const {
    std::lock_guard<std::mutex> lock(m_);
    return canaryTrips_;
}

void ScratchPool::resetStats() {
    std::lock_guard<std::mutex> lock(m_);
    hits_ = misses_ = canaryTrips_ = 0;
}

void ScratchPool::clear() {
    std::lock_guard<std::mutex> lock(m_);
    free_.clear();
}

} // namespace crocco::gpu
