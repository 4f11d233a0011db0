#include "core/Rk3.hpp"

#include "amr/MultiFab.hpp"

#include <stdexcept>

namespace crocco::core {

void rk3StageUpdate(amr::MultiFab& G, amr::MultiFab& U,
                    const amr::MultiFab& dU, amr::Real A, amr::Real B,
                    amr::Real dt, bool fusedKernel) {
    if (fusedKernel)
        throw std::invalid_argument(
            "rk3StageUpdate: the fused stage update is retired; pass false");
    // The seed's exact three-sweep sequence (allowlisted for lint R7):
    // three launches per fab, G and U each read+written from DRAM twice.
    const int ncomp = G.nComp();
    G.mult(A, 0, ncomp, 0);
    amr::MultiFab::saxpy(G, dt, dU, 0, 0, ncomp);
    amr::MultiFab::saxpy(U, B, G, 0, 0, ncomp);
}

} // namespace crocco::core
