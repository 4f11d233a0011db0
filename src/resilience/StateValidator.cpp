#include "resilience/StateValidator.hpp"

#include "amr/Box.hpp"
#include "gpu/Gpu.hpp"

#include <cmath>
#include <vector>

namespace crocco::resilience {

using amr::IntVect;
using core::NCONS;
using core::UEDEN;
using core::UMX;
using core::UMY;
using core::UMZ;
using core::URHO;

HealthReport validateState(const amr::MultiFab& U, const core::GasModel& gas,
                           int level) {
    HealthReport rep;
    auto note = [&](int fab, int i, int j, int k, int comp, FaultKind kind,
                    double value) {
        ++rep.faultCount;
        if (static_cast<int>(rep.faults.size()) < kMaxFaultsReported)
            rep.faults.push_back(
                {level, fab, IntVect{i, j, k}, comp, kind, value});
    };
    // Phase 1 — fab-parallel prescreen: one launch, one task per fab, each
    // a pure per-cell predicate through the reduction (no captured mutable
    // state, so tasks cannot race on the report): 1.0 the moment any
    // component is non-finite or the decoded state is unphysical. Healthy
    // fabs — the common case — finish here, in one fused sweep through
    // memory.
    std::vector<double> bad(static_cast<std::size_t>(U.numFabs()));
    gpu::ParallelForIndex(U.numFabs(), [&](int f) {
        auto a = U.const_array(f);
        bad[static_cast<std::size_t>(f)] =
            gpu::ReduceMax(U.validBox(f), [&](int i, int j, int k) {
                for (int n = 0; n < NCONS; ++n) {
                    const double v = a(i, j, k, n);
                    if (std::isnan(v) || std::isinf(v)) return 1.0;
                }
                const double rho = a(i, j, k, URHO);
                if (rho <= 0.0) return 1.0;
                const double rinv = 1.0 / rho;
                const double p = gas.pressure(rho, a(i, j, k, UMX) * rinv,
                                              a(i, j, k, UMY) * rinv,
                                              a(i, j, k, UMZ) * rinv,
                                              a(i, j, k, UEDEN));
                return p <= 0.0 ? 1.0 : 0.0;
            });
    });
    for (int f = 0; f < U.numFabs(); ++f) {
        auto a = U.const_array(f);
        const amr::Box& b = U.validBox(f);
        rep.cellsScanned += b.numPts();
        if (bad[static_cast<std::size_t>(f)] <= 0.0) continue;
        // Phase 2 — serial report pass, only over fabs the prescreen
        // flagged, in fab order and then cell order, so faultCount and the
        // first-kMaxFaultsReported fault list are reproducible across
        // thread counts.
        amr::forEachCell(b, [&](int i, int j, int k) {
            bool finite = true;
            for (int n = 0; n < NCONS; ++n) {
                const double v = a(i, j, k, n);
                if (std::isnan(v)) {
                    note(f, i, j, k, n, FaultKind::NotANumber, v);
                    finite = false;
                } else if (std::isinf(v)) {
                    note(f, i, j, k, n, FaultKind::Infinite, v);
                    finite = false;
                }
            }
            if (!finite) return;
            const double rho = a(i, j, k, URHO);
            if (rho <= 0.0) {
                note(f, i, j, k, URHO, FaultKind::NegativeDensity, rho);
                return; // pressure decode would divide by rho
            }
            const double rinv = 1.0 / rho;
            const double p = gas.pressure(rho, a(i, j, k, UMX) * rinv,
                                          a(i, j, k, UMY) * rinv,
                                          a(i, j, k, UMZ) * rinv,
                                          a(i, j, k, UEDEN));
            if (p <= 0.0)
                note(f, i, j, k, UEDEN, FaultKind::NegativePressure, p);
        });
    }
    return rep;
}

HealthReport validateHierarchy(const std::vector<amr::MultiFab>& U,
                               int finestLevel, const core::GasModel& gas) {
    HealthReport rep;
    for (int lev = 0; lev <= finestLevel; ++lev)
        rep.merge(validateState(U[static_cast<std::size_t>(lev)], gas, lev));
    return rep;
}

} // namespace crocco::resilience
