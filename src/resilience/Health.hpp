#pragma once

#include "amr/IntVect.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace crocco::resilience {

/// Per-step guard policy of the solver driver (see docs/resilience.md):
/// after every RK3 step the conserved state is scanned for corruption and,
/// on failure, the step is rolled back and retried with a smaller dt. The
/// guard is always on; its retry budget is its one setting.
struct GuardConfig {
    int maxRetries = 3; ///< rollback/retry attempts before giving up
};

/// dt multiplier applied on each retry after a health fault.
inline constexpr double kDtBackoff = 0.5;
/// Offending cells kept in a HealthReport.
inline constexpr int kMaxFaultsReported = 8;

/// What a state scan found wrong with one cell.
enum class FaultKind {
    NotANumber,       ///< NaN in any conserved component
    Infinite,         ///< +-Inf in any conserved component
    NegativeDensity,  ///< rho <= 0
    NegativePressure, ///< decoded p <= 0 (finite but unphysical)
};

const char* toString(FaultKind k);

/// One offending cell, addressed the way the solver stores state: AMR
/// level, fab index within the level's MultiFab, cell index, component.
struct CellFault {
    int level = 0;
    int fabIndex = 0;
    amr::IntVect cell{};
    int comp = 0;
    FaultKind kind = FaultKind::NotANumber;
    double value = 0.0;
};

/// Result of a StateValidator scan over one level or a whole hierarchy.
/// `faultCount` counts every fault seen; `faults` keeps only the first
/// kMaxFaultsReported so a fully corrupted field cannot blow up the report
/// itself.
struct HealthReport {
    std::int64_t cellsScanned = 0;
    std::int64_t faultCount = 0;
    std::vector<CellFault> faults;

    bool healthy() const { return faultCount == 0; }

    /// Merge another level's report into this one (keeps the fault cap).
    void merge(const HealthReport& other);

    /// Human-readable one-or-few-line summary for logs and error messages.
    std::string describe() const;
};

/// Thrown by the solver when a step still fails its health check after the
/// guard's rollback/retry budget is exhausted. The solver state has been
/// restored to the last healthy (pre-step) snapshot when this is thrown, so
/// a caller may checkpoint-recover and continue.
class SolverDivergence : public std::runtime_error {
public:
    SolverDivergence(int step, double dt, HealthReport report);

    int step() const { return step_; }
    double dt() const { return dt_; }
    const HealthReport& report() const { return report_; }

private:
    int step_;
    double dt_;
    HealthReport report_;
};

/// Thrown when a checkpoint fails integrity verification: truncated level
/// file, CRC mismatch, or inconsistent header metadata. Derives from
/// runtime_error so pre-existing callers that catch that still work.
class CheckpointCorruption : public std::runtime_error {
public:
    explicit CheckpointCorruption(const std::string& what)
        : std::runtime_error(what) {}
};

} // namespace crocco::resilience
