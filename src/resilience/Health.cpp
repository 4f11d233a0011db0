#include "resilience/Health.hpp"

#include <sstream>

namespace crocco::resilience {

const char* toString(FaultKind k) {
    switch (k) {
        case FaultKind::NotANumber: return "NaN";
        case FaultKind::Infinite: return "Inf";
        case FaultKind::NegativeDensity: return "negative-density";
        case FaultKind::NegativePressure: return "negative-pressure";
    }
    return "unknown";
}

void HealthReport::merge(const HealthReport& other) {
    cellsScanned += other.cellsScanned;
    faultCount += other.faultCount;
    for (const CellFault& f : other.faults) {
        if (static_cast<int>(faults.size()) >= kMaxFaultsReported) break;
        faults.push_back(f);
    }
}

std::string HealthReport::describe() const {
    std::ostringstream os;
    if (healthy()) {
        os << "healthy (" << cellsScanned << " cells scanned)";
        return os.str();
    }
    os << faultCount << " corrupt value(s) in " << cellsScanned
       << " cells scanned";
    for (const CellFault& f : faults) {
        os << "; " << toString(f.kind) << " at level " << f.level << " fab "
           << f.fabIndex << " cell (" << f.cell[0] << ',' << f.cell[1] << ','
           << f.cell[2] << ") comp " << f.comp << " value " << f.value;
    }
    if (faultCount > static_cast<std::int64_t>(faults.size()))
        os << "; ... (" << faultCount - static_cast<std::int64_t>(faults.size())
           << " more not shown)";
    return os.str();
}

namespace {
std::string divergenceMessage(int step, double dt, const HealthReport& report) {
    std::ostringstream os;
    os << "solver diverged at step " << step << " (last attempted dt " << dt
       << "): " << report.describe();
    return os.str();
}
} // namespace

SolverDivergence::SolverDivergence(int step, double dt, HealthReport report)
    : std::runtime_error(divergenceMessage(step, dt, report)), step_(step),
      dt_(dt), report_(std::move(report)) {}

} // namespace crocco::resilience
