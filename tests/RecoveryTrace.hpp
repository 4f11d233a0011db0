#pragma once

// The recovery tests pin what the solver's recovery path did as the
// (fault, rung, success) sequence of its RecoveryLog: every rung tried,
// in order, and whether it worked.
#include "resilience/RecoveryLadder.hpp"

#include <ostream>
#include <vector>

namespace crocco::testing {

struct Climb {
    resilience::FaultClass fault;
    resilience::Rung rung;
    bool success;
    bool operator==(const Climb&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Climb& c) {
    return os << resilience::describe(c.fault) << " -> "
              << resilience::describe(c.rung) << (c.success ? " ok" : " FAILED");
}

inline std::vector<Climb> climbs(const resilience::RecoveryLog& log) {
    std::vector<Climb> out;
    for (const resilience::RecoveryEvent& e : log.events())
        out.push_back({e.fault, e.rung, e.success});
    return out;
}

/// Events of `log` for fault class `fault` with outcome `success`.
inline int count(const resilience::RecoveryLog& log,
                 resilience::FaultClass fault, bool success) {
    int n = 0;
    for (const resilience::RecoveryEvent& e : log.events())
        if (e.fault == fault && e.success == success) ++n;
    return n;
}

} // namespace crocco::testing
