#pragma once

#include "amr/MultiFab.hpp"
#include "resilience/FaultRng.hpp"

#include <cstdint>
#include <random>
#include <vector>

namespace crocco::resilience {

/// Seeded silent-data-corruption injector: flips single bits in MultiFab
/// payloads (cold state at rest between steps) and in RK3 stage kernel
/// outputs, the way DRAM/register upsets hit a long GPU campaign. Follows
/// the CommFaults conventions: faults are armed one-shots or rate-driven
/// (per-fab Bernoulli), and a disabled injector consumes no randomness, so
/// enabling it never shifts the decision streams of the other injectors
/// (see FaultRng).
///
/// The injector only flips; detection and repair are FabGuard's and the
/// solver's recovery path's business. Cold flips land in the *valid*
/// region, the state FabGuard stamps; ghost flips model upsets in
/// unguarded scratch (refilled before use, so they are the
/// harmless-undetected category the SDC bench counts).
class SdcInjector {
public:
    explicit SdcInjector(std::uint64_t seed = 0x5DC0DE10ull);
    /// Substream constructor: draws the seed from the unified fault RNG so
    /// this injector's decisions are independent of the others'.
    explicit SdcInjector(const FaultRng& rng)
        : SdcInjector(rng.seedFor(FaultRng::kSdcStream)) {}

    /// Master switch (default off): when disabled every hook returns
    /// immediately without consuming randomness.
    void setEnabled(bool e) { enabled_ = e; }
    bool enabled() const { return enabled_; }

    /// Per-fab Bernoulli probability that one cold bit flip hits the fab
    /// at the start of a step (one uniform draw per fab per step while
    /// enabled and the rate is > 0).
    void setColdRate(double rate);

    /// Arm a one-shot cold flip into fab `fab` of `level` at the start of
    /// step `step` (valid region — guarded state).
    void armColdFlip(int step, int level, int fab);

    /// Arm a one-shot ghost-region flip (unguarded state; refilled before
    /// the next stage consumes it).
    void armGhostFlip(int step, int level, int fab);

    /// Arm a one-shot flip into the stage-`stage` RHS of fab `fab` on
    /// `level` at step `step` — a corrupted kernel output, the case
    /// FabGuard's sampled dual execution exists to catch.
    void armStageFlip(int step, int stage, int level, int fab);

    struct Stats {
        std::int64_t decisions = 0;  ///< Bernoulli draws consumed
        std::int64_t coldFlips = 0;  ///< flips into guarded (valid) state
        std::int64_t ghostFlips = 0; ///< flips into unguarded ghost cells
        std::int64_t stageFlips = 0; ///< flips into stage kernel outputs
        std::int64_t fired() const { return coldFlips + ghostFlips + stageFlips; }
    };
    const Stats& stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

    /// Hook: start of step, before the FabGuard verify — upsets that hit
    /// resident state while it sat cold since the last stamp. Returns true
    /// if anything fired.
    bool corruptCold(int step, std::vector<amr::MultiFab>& U, int finestLevel);

    /// Hook: after the stage RHS is computed, before the update consumes
    /// it. Returns true if a flip fired into `dU`.
    bool corruptStage(int step, int stage, int level, amr::MultiFab& dU);

private:
    struct ColdArm {
        int step;
        int level;
        int fab;
        bool ghost;
        bool spent;
    };
    struct StageArm {
        int step;
        int stage;
        int level;
        int fab;
        bool spent;
    };

    void flipValidBit(amr::MultiFab& mf, int fab);
    void flipGhostBit(amr::MultiFab& mf, int fab);

    std::mt19937_64 rng_;
    double coldRate_ = 0.0;
    bool enabled_ = false;
    std::vector<ColdArm> coldArms_;
    std::vector<StageArm> stageArms_;
    Stats stats_;
};

} // namespace crocco::resilience
