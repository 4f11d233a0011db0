#include "core/ComputeDt.hpp"

#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace crocco::core {

using mesh::metric1;

Real computeDtFab(const Array4<const Real>& S, const Array4<const Real>& metrics,
                  const amr::Box& validBox, const std::array<Real, 3>& dxi,
                  const GasModel& gas, Real cfl) {
    return gpu::ReduceMin(validBox, [&](int i, int j, int k) {
        const Prim q = toPrim(S, i, j, k, gas);
        Real wave = 0.0;
        for (int d = 0; d < 3; ++d) {
            const Real m0 = metrics(i, j, k, metric1(d, 0));
            const Real m1 = metrics(i, j, k, metric1(d, 1));
            const Real m2 = metrics(i, j, k, metric1(d, 2));
            const Real uhat = m0 * q.u + m1 * q.v + m2 * q.w;
            const Real gradXi = std::sqrt(m0 * m0 + m1 * m1 + m2 * m2);
            wave += (std::abs(uhat) + q.a * gradXi) / dxi[static_cast<std::size_t>(d)];
        }
        return cfl / wave;
    });
}

Real computeDt(const amr::MultiFab& U, const amr::MultiFab& metrics,
               const amr::Geometry& geom, const GasModel& gas, Real cfl) {
    // One fab-parallel launch computes each fab's dt; the partials are
    // combined into the per-rank minima in fab order, so dt and the
    // ComputeDt reduction are bitwise independent of the thread count.
    std::vector<Real> partial(static_cast<std::size_t>(U.numFabs()));
    gpu::ParallelForIndex(U.numFabs(), [&](int f) {
        partial[static_cast<std::size_t>(f)] =
            computeDtFab(U.const_array(f), metrics.const_array(f), U.validBox(f),
                         geom.cellSizeArray(), gas, cfl);
    });
    auto* comm = U.comm();
    const int nranks = comm ? comm->size() : 1;
    std::vector<double> perRank(static_cast<std::size_t>(nranks),
                                std::numeric_limits<double>::infinity());
    for (int f = 0; f < U.numFabs(); ++f) {
        auto& slot = perRank[static_cast<std::size_t>(U.distributionMap()[f])];
        slot = std::min(slot, static_cast<double>(partial[static_cast<std::size_t>(f)]));
    }
    if (comm) return comm->reduceRealMin(perRank, "ComputeDt");
    return *std::min_element(perRank.begin(), perRank.end());
}

} // namespace crocco::core
