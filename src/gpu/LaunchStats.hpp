#pragma once

#include <atomic>
#include <cstdint>

namespace crocco::gpu {

/// Global counter of modeled device kernel launches — the observable the
/// paper's launch-overhead story (§IV, deep AMR levels => many small boxes
/// => per-launch cost dominates) is told against.
///
/// Counting semantics:
///  * Every gpu::ParallelFor / ReduceMin / ReduceMax call models exactly
///    one device kernel launch, and each per-fab MultiFab arithmetic sweep
///    (setVal / mult / saxpy) models one launch per fab. A
///    gpu::ParallelForIndex launch is host scheduling over fabs, not a
///    device launch: it counts nothing itself, only the kernels its tasks
///    launch.
///
/// This counter is the one account of launches: readers take count()
/// before and after what they measure (dmrbench's per-step
/// `gpu.launches_per_step`). It is a relaxed atomic so pool workers can
/// count concurrently without ordering cost.
class LaunchStats {
public:
    static std::uint64_t count() {
        return counter().load(std::memory_order_relaxed);
    }

    /// One (or n) modeled launches.
    static void add(std::uint64_t n = 1) {
        counter().fetch_add(n, std::memory_order_relaxed);
    }

    static void reset() { counter().store(0, std::memory_order_relaxed); }

private:
    static std::atomic<std::uint64_t>& counter() {
        static std::atomic<std::uint64_t> c{0};
        return c;
    }
};

} // namespace crocco::gpu
