#pragma once

#include "amr/MultiFab.hpp"
#include "core/State.hpp"
#include "resilience/Health.hpp"

#include <vector>

namespace crocco::resilience {

/// Cheap fused scan over one level's conserved state: one fab-parallel
/// launch of per-fab gpu::ReduceMax prescreens (a pure per-cell predicate —
/// NaN/Inf in any component, or negative decoded density/pressure)
/// followed by a serial report pass, in fab order, only over fabs the
/// prescreen flagged, so faultCount and the fault list are deterministic at
/// any thread count. This is the
/// shock-capturing failure signature of WENO near strong discontinuities
/// (the paper's DMR regime): blow-ups first appear as negative density or
/// pressure, then as NaN everywhere.
HealthReport validateState(const amr::MultiFab& U, const core::GasModel& gas,
                           int level);

/// Scan levels 0..finestLevel of a hierarchy; reports are merged with the
/// same fault cap.
HealthReport validateHierarchy(const std::vector<amr::MultiFab>& U,
                               int finestLevel, const core::GasModel& gas);

} // namespace crocco::resilience
