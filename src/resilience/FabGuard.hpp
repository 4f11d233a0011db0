#pragma once

#include "amr/MultiFab.hpp"

#include <cstdint>
#include <vector>

namespace crocco::resilience {

/// Deck-facing SDC knobs (resilience.sdc_* keys). All default off: with the
/// guard disabled the solver takes no stamps, runs no verifies and no dual
/// executions, and its output stream is byte-identical to pre-SDC builds.
struct SdcConfig {
    /// Master switch for FabGuard stamping/verification and the
    /// fab-granular rung of the recovery ladder.
    bool guard = false;
    /// Steps between cold-state verifies (ABFT digest screen + CRC scan).
    /// Flips that land in a window with no verify are absorbed into the
    /// trajectory — the detection-latency/overhead trade the SDC bench
    /// sweeps. 1 = verify every step (full coverage of at-rest flips).
    int interval = 10;
    /// Dual-execution cadence: every `sample` steps, re-run one sampled fab
    /// per RK3 stage per level and bitwise-compare the RHS. 0 = off.
    int sample = 0;
};

/// One corrupted fab localized by a verify pass.
struct GuardFinding {
    int level = 0;
    int fab = 0;
};

/// CRC32 of one fab's *valid* region, swept in a fixed (comp, k, j, row)
/// order — the stamp primitive shared by FabGuard and the BuddyCheckpoint
/// mirror verification.
std::uint32_t crcOfFabValidRegion(const amr::MultiFab& mf, int fab);

/// Detection layer of the SDC subsystem (docs/resilience.md §6): CRC32
/// stamps over every fab's *valid* region plus per-level conserved-sum
/// ABFT digests, both taken while the state is known-good (end of step,
/// post-regrid, post-restore), and verified before long-idle state is read
/// again. A verify runs the cheap digest screen first, then the CRC scan,
/// which localizes corruption to a fab so the first recovery rung
/// (FabRestore) can repair it in place from the retained copy instead of
/// rolling the whole step back.
///
/// The guard also retains a verified copy of the stamped hierarchy — the
/// restore source for fab-granular repair. The copy is itself CRC-checked
/// before any byte of it overwrites live state (a corrupted restore source
/// escalates the ladder instead of being trusted; same policy as the
/// BuddyCheckpoint mirror).
class FabGuard {
public:
    struct Stats {
        std::int64_t stamps = 0;
        std::int64_t verifies = 0;          ///< full verify passes
        std::int64_t digestMismatches = 0;  ///< levels failing the ABFT screen
        std::int64_t crcMismatches = 0;     ///< fabs failing the CRC scan
        std::int64_t fabRestores = 0;       ///< fab-granular repairs served
    };

    /// Stamp levels 0..finestLevel: per-fab CRC32 + per-level conserved
    /// sums, and refresh the retained restore copies.
    void stamp(const std::vector<amr::MultiFab>& U, int finestLevel);

    bool stamped() const { return stamped_; }
    int finestLevel() const { return finest_; }

    /// True when the stamped layout (level count, fab count, valid boxes)
    /// still matches `U` — stamps predating a regrid are meaningless and a
    /// verify against them is skipped.
    bool layoutMatches(const std::vector<amr::MultiFab>& U,
                       int finestLevel) const;

    /// Cheap ABFT screen: recompute each level's conserved sums and compare
    /// bitwise against the stamped digests. True = all clean.
    bool digestClean(const std::vector<amr::MultiFab>& U, int finestLevel);

    /// Full verify: CRC-scan every stamped fab, return the corrupted ones.
    /// Empty when unstamped or the layout changed.
    std::vector<GuardFinding> verify(const std::vector<amr::MultiFab>& U,
                                     int finestLevel);

    /// Fab-granular repair: CRC-check the retained copy of (level, fab) and,
    /// if intact, copy its valid region bitwise over the live fab. False
    /// when the restore source is itself corrupt — escalate the ladder.
    bool restoreFab(std::vector<amr::MultiFab>& U, int level, int fab);

    /// Forget all stamps and retained copies (layout about to change).
    void invalidate();

    /// Bytes of valid-region state under guard after the last stamp.
    std::int64_t guardedBytes() const { return guardedBytes_; }

    const Stats& stats() const { return stats_; }

    /// Which fab the dual-execution pass re-runs for (step, stage, level):
    /// a fixed pseudo-rotation so every fab is eventually sampled and tests
    /// can aim an armed kernel flip at the sampled fab.
    static int sampledFab(int step, int stage, int level, int numFabs);

    /// Bitwise comparison of two fabs over `region` (dual-execution check).
    static bool bitwiseEqual(const amr::FArrayBox& a, const amr::FArrayBox& b,
                             const amr::Box& region, int ncomp);

    /// Double-fault injection hook for tests: flip one mantissa bit in the
    /// retained copy of (level, fab) so the next restoreFab finds its
    /// source corrupt and the ladder has to escalate.
    void corruptRetained(int level, int fab);

private:
    std::vector<std::vector<std::uint32_t>> crcs_; ///< [level][fab]
    std::vector<std::vector<amr::Real>> digests_;  ///< [level][comp]
    std::vector<amr::MultiFab> copies_;            ///< retained restore source
    std::int64_t guardedBytes_ = 0;
    int finest_ = -1;
    bool stamped_ = false;
    Stats stats_;
};

} // namespace crocco::resilience
