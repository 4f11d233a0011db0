#pragma once

#include "amr/Box.hpp"
#include "amr/FArrayBox.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace crocco::gpu {

/// The allocation guards of device-modeled storage (the role amrex::Arena
/// plays for allocations): the trailing canary every FArrayBox carries, and
/// the NaN poison that check builds stamp into fresh storage. Nothing
/// allocates through this class; FArrayBox calls its helpers. The V100's
/// memory ceiling is V100Model::kMemoryBytes.
class Arena {
public:
    /// Allocation-header canary (docs/resilience.md §6): every FArrayBox
    /// over-allocates one trailing element stamped with this pattern, so a
    /// kernel overrun past the allocated box — or an SDC hit on the
    /// allocator's bookkeeping region — trips a cheap O(1) check instead of
    /// silently corrupting the neighbouring allocation. ScratchPool checks
    /// the word on every lease return; FabGuard checks it during verifies.
    static constexpr std::uint64_t kCanaryWord = 0x5AFEC0DE0DDC0FFEull;
    /// The canary pattern bit-cast to the element type fabs store.
    static double canaryValue();
    /// Stamp the canary into the guard slot.
    static void stampCanary(double* slot);
    /// True while the guard slot still holds the exact canary bits.
    static bool canaryIntact(const double* slot);

    /// Under CROCCO_CHECK, stamp a freshly allocated (device-modeled)
    /// buffer with check::poisonValue() signaling NaNs so uninitialized
    /// reads that escape the shadow validity map still blow up the first
    /// time arithmetic touches them. No-op in unchecked builds.
    static void poisonFresh(double* p, std::size_t n);
};

/// Reusing free-list of kernel-scratch FArrayBoxes, keyed by
/// (element count, components) — the arena-backed answer to the paper's
/// "no dynamic allocation inside kernels" rule applied one level up:
/// wenoFluxPortable used to construct two fresh fabs (cell-flux scratch +
/// face flux) per direction per fab per RK stage, ~18 heap allocations per
/// fab per step. The pool hands back a previously released buffer of the
/// same size instead; FArrayBox::resize rebinds it to the new box without
/// touching the heap.
///
/// Check builds preserve the sNaN-poisoning semantics of fresh scratch:
/// every acquire (hit or miss) runs markUninitialized(), which re-poisons
/// the storage and installs a fresh shadow map with a new fab id — so
/// stale contents can never be read silently, and the race detector never
/// confuses two tasks' leases of the same recycled storage (the pool's
/// mutex orders release before re-acquire).
///
/// Thread-safe: concurrent pool tasks acquire/release under one mutex
/// (two short critical sections per lease; the fab itself is touched
/// outside the lock).
class ScratchPool {
public:
    static ScratchPool& instance();

    class Lease {
    public:
        Lease(ScratchPool* pool, std::unique_ptr<amr::FArrayBox> fab)
            : pool_(pool), fab_(std::move(fab)) {}
        ~Lease() {
            if (pool_ && fab_) pool_->release(std::move(fab_));
        }
        Lease(Lease&& o) noexcept : pool_(o.pool_), fab_(std::move(o.fab_)) {
            o.pool_ = nullptr;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;

        amr::FArrayBox& fab() { return *fab_; }

    private:
        ScratchPool* pool_;
        std::unique_ptr<amr::FArrayBox> fab_;
    };

    /// Get a scratch fab covering `box` with `ncomp` components. Contents
    /// are unspecified (check builds: poisoned + shadow-Uninit, exactly
    /// like a MultiFab-defined fab). Returned to the free list when the
    /// Lease dies.
    Lease acquire(const amr::Box& box, int ncomp);

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /// Leases returned with a tripped allocation canary. The corrupted
    /// buffer is discarded instead of recycled (its neighbour may already
    /// be overwritten), and the trip is counted here rather than thrown:
    /// release runs from Lease's destructor, where an exception would
    /// terminate. FabGuard's verify surfaces the counter as a finding.
    std::uint64_t canaryTrips() const;
    void resetStats();
    /// Drop all pooled buffers (tests / memory pressure).
    void clear();

private:
    void release(std::unique_ptr<amr::FArrayBox> fab);

    using Key = std::pair<std::int64_t, int>; ///< (numPts, ncomp)

    mutable std::mutex m_;
    std::map<Key, std::vector<std::unique_ptr<amr::FArrayBox>>> free_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t canaryTrips_ = 0;
};

} // namespace crocco::gpu
