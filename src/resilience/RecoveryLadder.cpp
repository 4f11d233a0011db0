#include "resilience/RecoveryLadder.hpp"

#include <sstream>

namespace crocco::resilience {

const char* describe(FaultClass c) {
    switch (c) {
    case FaultClass::ColdSdc: return "cold-state SDC";
    case FaultClass::KernelSdc: return "kernel-output SDC";
    case FaultClass::HealthFault: return "health fault";
    case FaultClass::RankDeath: return "rank death";
    case FaultClass::CheckpointCorrupt: return "corrupt restore source";
    }
    return "?";
}

const char* describe(Rung r) {
    switch (r) {
    case Rung::FabRestore: return "fab restore";
    case Rung::StepRollback: return "step rollback";
    case Rung::BuddyRestore: return "buddy restore";
    case Rung::DiskRestart: return "disk restart";
    case Rung::Abort: return "abort";
    }
    return "?";
}

void RecoveryLog::record(int step, FaultClass fault, Rung rung, bool success,
                         std::string detail) {
    events_.push_back({step, fault, rung, success, std::move(detail)});
}

int RecoveryLog::successes(Rung rung) const {
    int n = 0;
    for (const RecoveryEvent& e : events_)
        if (e.rung == rung && e.success) ++n;
    return n;
}

int RecoveryLog::failures(Rung rung) const {
    int n = 0;
    for (const RecoveryEvent& e : events_)
        if (e.rung == rung && !e.success) ++n;
    return n;
}

std::string RecoveryLog::describeAll() const {
    std::ostringstream ss;
    for (const RecoveryEvent& e : events_) {
        ss << "step " << e.step << ": " << describe(e.fault) << " -> "
           << describe(e.rung) << (e.success ? " ok" : " FAILED");
        if (!e.detail.empty()) ss << " (" << e.detail << ")";
        ss << '\n';
    }
    return ss.str();
}

} // namespace crocco::resilience
