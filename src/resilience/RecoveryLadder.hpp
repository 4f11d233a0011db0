#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace crocco::resilience {

// The vocabulary and the record of recovery (docs/resilience.md §6). No
// policy object lives here: core::CroccoAmr's code is the one statement of
// the escalation order. FabRestore runs in its guard verify, StepRollback
// in step(), and BuddyRestore, DiskRestart and Abort in evolve()'s one
// recovery routine, each recording what it tried in the RecoveryLog.

/// What went wrong: a fault's class decides the rung it enters at.
enum class FaultClass {
    ColdSdc,          ///< guard verify found corrupted cold fab(s)
    KernelSdc,        ///< dual execution caught a corrupted stage RHS
    HealthFault,      ///< StateValidator found NaN/Inf/negative state
    RankDeath,        ///< a communicator endpoint died (RankFailure)
    CheckpointCorrupt ///< a restore source failed its CRC check
};

/// The escalation chain, cheapest rung first. Each rung is a strictly
/// bigger hammer: restore one fab in place, roll the step back, rebuild
/// from the buddy mirror, reload the disk checkpoint, give up.
enum class Rung {
    FabRestore,   ///< bitwise repair of one fab from the retained copy
    StepRollback, ///< restore the in-step snapshot and retry
    BuddyRestore, ///< rebuild state from the partner mirror
    DiskRestart,  ///< reload the newest verified disk checkpoint
    Abort         ///< nothing left — surface the failure
};

const char* describe(FaultClass c);
const char* describe(Rung r);

/// One rung tried for one fault. `step` is the step at which the fault
/// surfaced, also when the rung restored an older step.
struct RecoveryEvent {
    int step = 0;
    FaultClass fault = FaultClass::HealthFault;
    Rung rung = Rung::StepRollback;
    bool success = false;
    std::string detail;
};

/// Append-only record of every rung tried, and the solver's only count of
/// recoveries: the soak tests and dmrbench read their counts from it.
class RecoveryLog {
public:
    void record(int step, FaultClass fault, Rung rung, bool success,
                std::string detail = {});
    const std::vector<RecoveryEvent>& events() const { return events_; }
    /// Successful climbs of `rung` (any fault class).
    int successes(Rung rung) const;
    /// Attempts of `rung` that failed and escalated.
    int failures(Rung rung) const;
    /// Multi-line human-readable dump for diagnostics.
    std::string describeAll() const;
    void clear() { events_.clear(); }

private:
    std::vector<RecoveryEvent> events_;
};

/// Raised when SDC is detected but the local rungs (fab restore, step
/// rollback) cannot repair it — evolve() climbs the remaining rungs
/// (buddy mirror, disk restart) as it does for every other fault.
class SdcFault : public std::runtime_error {
public:
    SdcFault(int step, FaultClass fault, const std::string& what)
        : std::runtime_error(what), step_(step), fault_(fault) {}
    int step() const { return step_; }
    FaultClass fault() const { return fault_; }

private:
    int step_;
    FaultClass fault_;
};

} // namespace crocco::resilience
