#pragma once

#include "amr/Box.hpp"
#include "amr/FArrayBox.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace crocco::gpu {

/// Thrown when an allocation would exceed device capacity — the condition
/// the paper hit at >2.0e5 points per V100 (16 GB), which dictated both
/// scaling problem sizes.
class OutOfDeviceMemory : public std::runtime_error {
public:
    explicit OutOfDeviceMemory(const std::string& what) : std::runtime_error(what) {}
};

/// Accounting model of a GPU memory arena (mirrors amrex::Arena). Tracks
/// live bytes and the high-water mark against a fixed capacity; used by the
/// solver to pre-allocate kernel scratch from host code (the paper's fix for
/// in-kernel dynamic allocation) and by the machine model to validate that
/// scaling configurations fit in 16 GB per V100.
class Arena {
public:
    /// capacityBytes == 0 means unlimited (host arena).
    explicit Arena(std::int64_t capacityBytes = 0) : capacity_(capacityBytes) {}

    /// Register an allocation; throws OutOfDeviceMemory on overflow.
    void allocate(std::int64_t bytes);
    /// Release a prior allocation; throws std::logic_error on over-release
    /// (releasing more than is in use, or a negative size) so accounting
    /// bugs surface in release builds instead of corrupting inUse().
    void release(std::int64_t bytes);

    std::int64_t inUse() const { return inUse_; }
    std::int64_t highWater() const { return highWater_; }
    std::int64_t capacity() const { return capacity_; }

    /// Would `bytes` more fit right now?
    bool wouldFit(std::int64_t bytes) const {
        return capacity_ == 0 || inUse_ + bytes <= capacity_;
    }

    void reset() { inUse_ = highWater_ = 0; }

    /// The 16 GB HBM2 arena of a Summit V100.
    static Arena v100() { return Arena(16ll * 1024 * 1024 * 1024); }

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

private:
    std::int64_t capacity_;
    std::int64_t inUse_ = 0;
    std::int64_t highWater_ = 0;
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

/// RAII registration of one allocation against an Arena.
class DeviceAllocation {
public:
    DeviceAllocation(Arena& arena, std::int64_t bytes) : arena_(&arena), bytes_(bytes) {
        arena_->allocate(bytes_);
    }
    ~DeviceAllocation() {
        if (arena_) arena_->release(bytes_);
    }
    DeviceAllocation(const DeviceAllocation&) = delete;
    DeviceAllocation& operator=(const DeviceAllocation&) = delete;
    DeviceAllocation(DeviceAllocation&& o) noexcept : arena_(o.arena_), bytes_(o.bytes_) {
        o.arena_ = nullptr;
    }
    DeviceAllocation& operator=(DeviceAllocation&&) = delete;

    std::int64_t bytes() const { return bytes_; }

private:
    Arena* arena_;
    std::int64_t bytes_;
};

} // namespace crocco::gpu
