// crocco-analyze:allow-file(R1): the FortranStyle kernel variant mirrors the
// paper's contiguous-pencil layout and needs the raw pencil base pointers.
#include "core/Weno.hpp"

#include "core/Eigen.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Arena.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <algorithm>
#include <cassert>

namespace crocco::core {

using amr::FArrayBox;
using amr::IntVect;
using mesh::jacobian;
using mesh::metric1;

namespace {

/// Linear weights of the symmetric 4-stencil WENO-SYMBO scheme; the 4th is
/// the downwind stencil. Following Martín, Taylor, Wu & Weirs (2006), the
/// weights trade formal order for spectral resolution: they satisfy the
/// 4th-order moment condition 3(d3 - d0) + (d1 - d2) = 0 (the scheme is
/// exactly 4th-order accurate, as the paper's numerics are) with a mild
/// upwind bias and a ~7.7% downwind share. (The unique 6th-order choice
/// would be {.05, .45, .45, .05}; these sit in the 4th-order family.)
constexpr Real kSymboD[4] = {0.0833333, 0.4300000, 0.4100000, 0.0766667};
/// Classic Jiang-Shu optimal weights (3 upwind stencils).
constexpr Real kJsD[3] = {0.1, 0.6, 0.3};
constexpr Real kWenoEps = 1e-6;
/// Relative-smoothness limiter: the downwind stencil participates only when
/// all four stencils are comparably smooth (ratio below this), restoring
/// strict upwinding near discontinuities (§II-A's "weighs candidate
/// stencils via local relative smoothness").
constexpr Real kSymboRelLimit = 5.0;

} // namespace

Real wenoReconstruct(const Real f[6], WenoScheme scheme) {
    // Candidate 3-point reconstructions of the value at i+1/2; f[2] is cell i.
    const Real q0 = (2.0 * f[0] - 7.0 * f[1] + 11.0 * f[2]) / 6.0;
    const Real q1 = (-f[1] + 5.0 * f[2] + 2.0 * f[3]) / 6.0;
    const Real q2 = (2.0 * f[2] + 5.0 * f[3] - f[4]) / 6.0;
    // Jiang-Shu smoothness indicators.
    const Real b0 = (13.0 / 12.0) * (f[0] - 2 * f[1] + f[2]) * (f[0] - 2 * f[1] + f[2]) +
                    0.25 * (f[0] - 4 * f[1] + 3 * f[2]) * (f[0] - 4 * f[1] + 3 * f[2]);
    const Real b1 = (13.0 / 12.0) * (f[1] - 2 * f[2] + f[3]) * (f[1] - 2 * f[2] + f[3]) +
                    0.25 * (f[1] - f[3]) * (f[1] - f[3]);
    const Real b2 = (13.0 / 12.0) * (f[2] - 2 * f[3] + f[4]) * (f[2] - 2 * f[3] + f[4]) +
                    0.25 * (3 * f[2] - 4 * f[3] + f[4]) * (3 * f[2] - 4 * f[3] + f[4]);

    if (scheme == WenoScheme::JS5) {
        const Real a0 = kJsD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
        const Real a1 = kJsD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
        const Real a2 = kJsD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
        return (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2);
    }

    // WENO-SYMBO: add the downwind candidate (mirror image of stencil 0
    // about the interface).
    const Real q3 = (11.0 * f[3] - 7.0 * f[4] + 2.0 * f[5]) / 6.0;
    const Real b3 = (13.0 / 12.0) * (f[3] - 2 * f[4] + f[5]) * (f[3] - 2 * f[4] + f[5]) +
                    0.25 * (3 * f[3] - 4 * f[4] + f[5]) * (3 * f[3] - 4 * f[4] + f[5]);
    const Real a0 = kSymboD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
    const Real a1 = kSymboD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
    const Real a2 = kSymboD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
    Real a3 = kSymboD[3] / ((kWenoEps + b3) * (kWenoEps + b3));
    const Real bmax = std::max({b0, b1, b2, b3});
    const Real bmin = std::min({b0, b1, b2, b3});
    if (bmax > kSymboRelLimit * bmin + kWenoEps) a3 = 0.0;
    return (a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3) / (a0 + a1 + a2 + a3);
}

namespace {

/// wenoReconstruct on both lanes of each window pair w[n] into r[n],
/// written term for term like the scalar reference (`2 * x` there is
/// `2.0 * x` here: the same product). The selects replace its branches:
/// std::max({...}) keeps the running maximum m unless m < b,
/// std::min({...}) the running minimum unless b < m, and a3 is zeroed
/// where bmax > 5 bmin + eps. A face reconstructs all its components in
/// one call, so the loop body stays in one function with no call per pair.
template <WenoScheme Scheme, int N>
inline void reconstructPairs(const RealPair w[N][6], RealPair r[N]) {
    for (int n = 0; n < N; ++n) {
        const RealPair* f = w[n];
        const RealPair q0 = (2.0 * f[0] - 7.0 * f[1] + 11.0 * f[2]) / 6.0;
        const RealPair q1 = (-f[1] + 5.0 * f[2] + 2.0 * f[3]) / 6.0;
        const RealPair q2 = (2.0 * f[2] + 5.0 * f[3] - f[4]) / 6.0;
        const RealPair x0 = f[0] - 2.0 * f[1] + f[2];
        const RealPair y0 = f[0] - 4.0 * f[1] + 3.0 * f[2];
        const RealPair x1 = f[1] - 2.0 * f[2] + f[3];
        const RealPair y1 = f[1] - f[3];
        const RealPair x2 = f[2] - 2.0 * f[3] + f[4];
        const RealPair y2 = 3.0 * f[2] - 4.0 * f[3] + f[4];
        const RealPair b0 = (13.0 / 12.0) * x0 * x0 + 0.25 * y0 * y0;
        const RealPair b1 = (13.0 / 12.0) * x1 * x1 + 0.25 * y1 * y1;
        const RealPair b2 = (13.0 / 12.0) * x2 * x2 + 0.25 * y2 * y2;

        if constexpr (Scheme == WenoScheme::JS5) {
            const RealPair a0 = kJsD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
            const RealPair a1 = kJsD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
            const RealPair a2 = kJsD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
            r[n] = (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2);
        } else {
            const RealPair q3 = (11.0 * f[3] - 7.0 * f[4] + 2.0 * f[5]) / 6.0;
            const RealPair x3 = f[3] - 2.0 * f[4] + f[5];
            const RealPair y3 = 3.0 * f[3] - 4.0 * f[4] + f[5];
            const RealPair b3 = (13.0 / 12.0) * x3 * x3 + 0.25 * y3 * y3;
            const RealPair a0 = kSymboD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
            const RealPair a1 = kSymboD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
            const RealPair a2 = kSymboD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
            RealPair a3 = kSymboD[3] / ((kWenoEps + b3) * (kWenoEps + b3));
            RealPair bmax = b0, bmin = b0;
            const auto visit = [&](const RealPair b) {
                bmax = bmax < b ? b : bmax;
                bmin = b < bmin ? b : bmin;
            };
            visit(b1);
            visit(b2);
            visit(b3);
            const RealPair zero = {0.0, 0.0};
            a3 = bmax > kSymboRelLimit * bmin + kWenoEps ? zero : a3;
            r[n] = (a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3) /
                   (a0 + a1 + a2 + a3);
        }
    }
}

} // namespace

RealPair wenoReconstructPair(const RealPair f[6], WenoScheme scheme) {
    RealPair w[1][6], r[1];
    std::copy(f, f + 6, w[0]);
    if (scheme == WenoScheme::JS5)
        reconstructPairs<WenoScheme::JS5, 1>(w, r);
    else
        reconstructPairs<WenoScheme::Symbo, 1>(w, r);
    return r[0];
}

namespace {

/// Stage A payload at one cell: contravariant flux, conserved state copy,
/// and the local spectral radius for Lax-Friedrichs splitting.
struct CellFlux {
    Real fhat[NCONS];
    Real s;
    Real jm[3]; ///< contravariant metric row J * dxi_dir/dx (for the
                ///< characteristic projection direction)
};
constexpr int kCellFluxComps = NCONS + 4;

inline CellFlux cellFlux(const Array4<const Real>& S,
                         const Array4<const Real>& metrics, int i, int j, int k,
                         int dir, const GasModel& gas) {
    const Prim q = toPrim(S, i, j, k, gas);
    const Real J = jacobian(metrics, i, j, k);
    const Real jm0 = J * metrics(i, j, k, metric1(dir, 0));
    const Real jm1 = J * metrics(i, j, k, metric1(dir, 1));
    const Real jm2 = J * metrics(i, j, k, metric1(dir, 2));
    const Real uhat = jm0 * q.u + jm1 * q.v + jm2 * q.w;
    CellFlux c;
    c.fhat[URHO] = q.rho * uhat;
    c.fhat[UMX] = q.rho * q.u * uhat + jm0 * q.p;
    c.fhat[UMY] = q.rho * q.v * uhat + jm1 * q.p;
    c.fhat[UMZ] = q.rho * q.w * uhat + jm2 * q.p;
    c.fhat[UEDEN] = (S(i, j, k, UEDEN) + q.p) * uhat;
    c.s = std::abs(uhat) + q.a * std::sqrt(jm0 * jm0 + jm1 * jm1 + jm2 * jm2);
    c.jm[0] = jm0;
    c.jm[1] = jm1;
    c.jm[2] = jm2;
    return c;
}

/// Primitive state decoded from a conserved 5-vector.
inline Prim consToPrim(const Real U[NCONS], const GasModel& gas) {
    const Real rho = U[URHO], rinv = 1.0 / rho;
    const Real u = U[UMX] * rinv, v = U[UMY] * rinv, w = U[UMZ] * rinv;
    const Real p = gas.pressure(rho, u, v, w, U[UEDEN]);
    return {rho, u, v, w, p, gas.soundSpeed(rho, p)};
}

/// The two Lax-Friedrichs-split windows of one interface, (f+, f-) in
/// lanes (0, 1) at each window position l: lane 1 holds the right-biased
/// window mirrored about the interface, so F and C pair cell l with cell
/// 5 - l, and 0.5 * (F + A * C) with A = {alpha, -alpha} is the scalar
/// 0.5 * (f + alpha * c) and 0.5 * (f - alpha * c) of each lane.
inline void splitWindows(const Real f[6], const Real c[6], Real alpha,
                         RealPair w[6]) {
    const RealPair A = {alpha, -alpha};
    for (int l = 0; l < 6; ++l) {
        const RealPair F = {f[l], f[5 - l]};
        const RealPair C = {c[l], c[5 - l]};
        w[l] = 0.5 * (F + A * C);
    }
}

/// Interface flux at i+1/2 from the six surrounding cells' stage-A payloads
/// and conserved states (identical arithmetic in every kernel variant). The
/// left- and right-biased reconstructions of each component run in the two
/// lanes of one RealPair, all components in one reconstructPairs call;
/// `out` is the lane sum, lane 0 first. Component-wise reconstruction
/// never reads `cells[l].jm`.
template <WenoScheme Scheme, Reconstruction Recon>
inline void interfaceFlux(const CellFlux cells[6], const Real cons[6][NCONS],
                          const GasModel& gas, Real out[NCONS]) {
    Real alpha = cells[0].s;
    for (int l = 1; l < 6; ++l) alpha = std::max(alpha, cells[l].s);

    RealPair w[NCONS][6], r[NCONS];
    if constexpr (Recon == Reconstruction::ComponentWise) {
        for (int m = 0; m < NCONS; ++m) {
            Real f[6], c[6];
            for (int l = 0; l < 6; ++l) {
                f[l] = cells[l].fhat[m];
                c[l] = cons[l][m];
            }
            splitWindows(f, c, alpha, w[m]);
        }
        reconstructPairs<Scheme, NCONS>(w, r);
        for (int m = 0; m < NCONS; ++m) out[m] = r[m][0] + r[m][1];
    } else {
        // Characteristic-wise: eigensystem at the interface-averaged state
        // and metric direction (cells 2 and 3 straddle the interface).
        Real avgCons[NCONS], kdir[3];
        for (int m = 0; m < NCONS; ++m)
            avgCons[m] = 0.5 * (cons[2][m] + cons[3][m]);
        for (int d = 0; d < 3; ++d)
            kdir[d] = 0.5 * (cells[2].jm[d] + cells[3].jm[d]);
        const EigenSystem es =
            eulerEigenvectors(consToPrim(avgCons, gas), kdir, gas);

        for (int m = 0; m < NCONS; ++m) {
            Real cf[6], cu[6];
            for (int l = 0; l < 6; ++l) {
                cf[l] = 0.0;
                cu[l] = 0.0;
                for (int c = 0; c < NCONS; ++c) {
                    cf[l] += es.L[m][c] * cells[l].fhat[c];
                    cu[l] += es.L[m][c] * cons[l][c];
                }
            }
            splitWindows(cf, cu, alpha, w[m]);
        }
        reconstructPairs<Scheme, NCONS>(w, r);
        Real outChar[NCONS];
        for (int m = 0; m < NCONS; ++m) outChar[m] = r[m][0] + r[m][1];
        for (int c = 0; c < NCONS; ++c) {
            out[c] = 0.0;
            for (int m = 0; m < NCONS; ++m) out[c] += es.R[c][m] * outChar[m];
        }
    }
}

/// Compile-time (scheme, reconstruction) pair handed to a sweep body.
template <WenoScheme S, Reconstruction R>
struct SchemeKind {
    static constexpr WenoScheme scheme = S;
    static constexpr Reconstruction recon = R;
};

/// Calls body(SchemeKind<scheme, recon>{}): one dispatch per sweep, so the
/// per-face interfaceFlux is specialized and branch-free.
template <typename Body>
void dispatchScheme(WenoScheme scheme, Reconstruction recon, Body&& body) {
    constexpr auto JS5 = WenoScheme::JS5, Symbo = WenoScheme::Symbo;
    constexpr auto CW = Reconstruction::ComponentWise;
    constexpr auto Char = Reconstruction::CharacteristicWise;
    if (recon == CW) {
        if (scheme == JS5) body(SchemeKind<JS5, CW>{});
        else body(SchemeKind<Symbo, CW>{});
    } else {
        if (scheme == JS5) body(SchemeKind<JS5, Char>{});
        else body(SchemeKind<Symbo, Char>{});
    }
}

/// Stage-A scratch store of one cell. The metric row is stored only when
/// `row` is set, i.e. for the characteristic projection that reads it.
inline void storeCellFlux(const Array4<Real>& sc, int i, int j, int k,
                          const CellFlux& c, bool row) {
    for (int m = 0; m < NCONS; ++m) sc(i, j, k, m) = c.fhat[m];
    sc(i, j, k, NCONS) = c.s;
    if (row)
        for (int d = 0; d < 3; ++d) sc(i, j, k, NCONS + 1 + d) = c.jm[d];
}

/// Gather the six-cell window of the interface stored at cell p (interface
/// p + e/2) from the stage-A scratch and the conserved state.
template <Reconstruction Recon>
inline void gatherWindow(const Array4<const Real>& scc,
                         const Array4<const Real>& S, const IntVect& p,
                         const IntVect& e, CellFlux cells[6],
                         Real cons[6][NCONS]) {
    for (int l = 0; l < 6; ++l) {
        const int ci = p[0] + (l - 2) * e[0];
        const int cj = p[1] + (l - 2) * e[1];
        const int ck = p[2] + (l - 2) * e[2];
        for (int m = 0; m < NCONS; ++m) {
            cells[l].fhat[m] = scc(ci, cj, ck, m);
            cons[l][m] = S(ci, cj, ck, m);
        }
        cells[l].s = scc(ci, cj, ck, NCONS);
        if constexpr (Recon == Reconstruction::CharacteristicWise)
            for (int d = 0; d < 3; ++d)
                cells[l].jm[d] = scc(ci, cj, ck, NCONS + 1 + d);
    }
}

void wenoFluxPortable(int dir, const Array4<const Real>& S,
                      const Array4<const Real>& metrics, const Box& validBox,
                      const Array4<Real>& dU, Real dxi, const GasModel& gas,
                      WenoScheme scheme, Reconstruction recon) {
    const IntVect e = IntVect::basis(dir);
    const bool row = recon == Reconstruction::CharacteristicWise;

    // Scratch lives in (device) global memory, allocated from the host
    // before launch — the paper's fix for both in-kernel allocation and the
    // data races of shared line scratch (§IV-B). Leased from the scratch
    // pool: every cell/face written before read, so recycled storage is
    // safe (and check builds re-poison it on each acquire anyway).
    const Box cellBox = validBox.grow(dir, 3);
    auto scratchLease = gpu::ScratchPool::instance().acquire(cellBox, kCellFluxComps);
    FArrayBox& scratch = scratchLease.fab();
    auto sc = scratch.array();

    // Kernel 1: per-cell contravariant flux + spectral radius + metric row.
    gpu::ParallelFor(cellBox, [&](int i, int j, int k) {
        storeCellFlux(sc, i, j, k, cellFlux(S, metrics, i, j, k, dir, gas), row);
    });

    // Kernel 2: one thread per interface; interface i+1/2 is stored at cell
    // index i, for i in [lo-1, hi].
    const Box faceBox(validBox.smallEnd() - e, validBox.bigEnd());
    auto fluxLease = gpu::ScratchPool::instance().acquire(faceBox, NCONS);
    FArrayBox& flux = fluxLease.fab();
    auto fx = flux.array();
    auto scc = scratch.const_array();
    dispatchScheme(scheme, recon, [&](auto kind) {
        using K = decltype(kind);
        gpu::ParallelFor(faceBox, [&](int i, int j, int k) {
            CellFlux cells[6];
            Real cons[6][NCONS];
            gatherWindow<K::recon>(scc, S, {i, j, k}, e, cells, cons);
            Real out[NCONS];
            interfaceFlux<K::scheme, K::recon>(cells, cons, gas, out);
            for (int m = 0; m < NCONS; ++m) fx(i, j, k, m) = out[m];
        });
    });

    // Kernel 3: flux difference into dU.
    auto fxc = flux.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real scale = 1.0 / (dxi * jacobian(metrics, i, j, k));
        for (int m = 0; m < NCONS; ++m) {
            dU(i, j, k, m) -=
                scale * (fxc(i, j, k, m) - fxc(i - e[0], j - e[1], k - e[2], m));
        }
    });
}

void wenoFluxFortranStyle(int dir, const Array4<const Real>& S,
                          const Array4<const Real>& metrics, const Box& validBox,
                          const Array4<Real>& dU, Real dxi, const GasModel& gas,
                          WenoScheme scheme, Reconstruction recon) {
    const int lo = validBox.smallEnd(dir), hi = validBox.bigEnd(dir);
    const int nline = hi - lo + 1;

    // 1-D line scratch reused across every pencil — the original Fortran
    // structure that is fast on CPU but racy if naively parallelized over
    // all three dimensions (which is exactly why the GPU port moved to the
    // staged 3-D-scratch form above). The buffers are thread_local so the
    // allocation happens once per worker thread, not once per fab per
    // direction per stage (each worker owns its scratch, so the fab-level
    // pool parallelism stays race-free); every element is written before it
    // is read in each pencil, so reuse across calls is safe.
    thread_local std::vector<CellFlux> line;
    thread_local std::vector<Real> cons;
    thread_local std::vector<Real> flux;
    line.resize(static_cast<std::size_t>(nline) + 6);
    cons.resize(static_cast<std::size_t>(nline + 6) * NCONS);
    flux.resize(static_cast<std::size_t>(nline + 1) * NCONS);
    CellFlux* __restrict__ lf = line.data();
    Real* __restrict__ lc = cons.data();
    Real* __restrict__ fl = flux.data();

    const int d1 = (dir + 1) % 3, d2 = (dir + 2) % 3;
    dispatchScheme(scheme, recon, [&](auto kind) {
        using K = decltype(kind);
        for (int c2 = validBox.smallEnd(d2); c2 <= validBox.bigEnd(d2); ++c2) {
            for (int c1 = validBox.smallEnd(d1); c1 <= validBox.bigEnd(d1); ++c1) {
                IntVect p;
                p[d1] = c1;
                p[d2] = c2;
                // Gather the pencil including 3 ghost cells each side.
                for (int l = 0; l < nline + 6; ++l) {
                    p[dir] = lo - 3 + l;
                    lf[l] = cellFlux(S, metrics, p[0], p[1], p[2], dir, gas);
                    for (int m = 0; m < NCONS; ++m)
                        lc[l * NCONS + m] = S(p[0], p[1], p[2], m);
                }
                // Interface fluxes along the pencil (interface f at line
                // index f corresponds to cell interface lo-1+f+1/2). The
                // conserved window is a view into the contiguous line
                // buffer — row l of the window is lc[(f+l)*NCONS ..], so no
                // per-face copy.
                for (int f = 0; f <= nline; ++f) {
                    const auto* consWin =
                        reinterpret_cast<const Real(*)[NCONS]>(&lc[f * NCONS]);
                    interfaceFlux<K::scheme, K::recon>(&lf[f], consWin, gas,
                                                       &fl[f * NCONS]);
                }
                // Difference into dU.
                for (int c0 = lo; c0 <= hi; ++c0) {
                    p[dir] = c0;
                    const Real scale =
                        1.0 / (dxi * jacobian(metrics, p[0], p[1], p[2]));
                    const int f = c0 - lo;
                    for (int m = 0; m < NCONS; ++m) {
                        dU(p[0], p[1], p[2], m) -=
                            scale * (fl[(f + 1) * NCONS + m] - fl[f * NCONS + m]);
                    }
                }
            }
        }
    });
}

/// Stage A of the fused sweep: the cellFlux payload rebuilt from the shared
/// primitive/metric cache. The metric row products, uhat, the flux vector
/// and the spectral radius are the exact expressions of cellFlux() with the
/// toPrim/jacobian results substituted by their cached (bit-identical)
/// values — only the redundant EOS decode and 3x3 determinant disappear.
inline CellFlux cellFluxCached(const Array4<const Real>& S,
                               const Array4<const Real>& cache,
                               const Array4<const Real>& metrics, int i, int j,
                               int k, int dir) {
    const Real rho = cache(i, j, k, fused::QC_RHO);
    const Real u = cache(i, j, k, fused::QC_U);
    const Real v = cache(i, j, k, fused::QC_V);
    const Real w = cache(i, j, k, fused::QC_W);
    const Real p = cache(i, j, k, fused::QC_P);
    const Real a = cache(i, j, k, fused::QC_A);
    const Real J = cache(i, j, k, fused::QC_J);
    const Real jm0 = J * metrics(i, j, k, metric1(dir, 0));
    const Real jm1 = J * metrics(i, j, k, metric1(dir, 1));
    const Real jm2 = J * metrics(i, j, k, metric1(dir, 2));
    const Real uhat = jm0 * u + jm1 * v + jm2 * w;
    CellFlux c;
    c.fhat[URHO] = rho * uhat;
    c.fhat[UMX] = rho * u * uhat + jm0 * p;
    c.fhat[UMY] = rho * v * uhat + jm1 * p;
    c.fhat[UMZ] = rho * w * uhat + jm2 * p;
    c.fhat[UEDEN] = (S(i, j, k, UEDEN) + p) * uhat;
    c.s = std::abs(uhat) + a * std::sqrt(jm0 * jm0 + jm1 * jm1 + jm2 * jm2);
    c.jm[0] = jm0;
    c.jm[1] = jm1;
    c.jm[2] = jm2;
    return c;
}

} // namespace

void wenoFluxFused(int dir, const Array4<const Real>& S,
                   const Array4<const Real>& cache,
                   const Array4<const Real>& metrics, const Box& validBox,
                   const Array4<Real>& dU, Real dxi, const GasModel& gas,
                   WenoScheme scheme, Reconstruction recon, bool firstTerm) {
    assert(dir >= 0 && dir < 3);

    // Kernel 1 (stage A): cached contravariant flux + spectral radius into
    // pooled scratch, exactly the portable kernel 1 minus the EOS/Jacobian
    // re-derivation.
    const bool row = recon == Reconstruction::CharacteristicWise;
    const Box cellBox = validBox.grow(dir, 3);
    auto scratchLease = gpu::ScratchPool::instance().acquire(cellBox, kCellFluxComps);
    auto sc = scratchLease.fab().array();
    gpu::ParallelFor(cellBox, [&](int i, int j, int k) {
        storeCellFlux(sc, i, j, k, cellFluxCached(S, cache, metrics, i, j, k, dir),
                      row);
    });

    // Kernel 2 (fused stages B+C): one task per pencil along `dir`. Each
    // pencil computes its faces in order, carries the previous face's flux
    // in registers, and writes the divergence straight into dU — no
    // face-flux fab, one interfaceFlux evaluation per face. Pencils own
    // disjoint dU cells, so the pass is race-free and deterministic for
    // every thread count.
    const IntVect e = IntVect::basis(dir);
    const int lo = validBox.smallEnd(dir), hi = validBox.bigEnd(dir);
    amr::IntVect planeHi = validBox.bigEnd();
    planeHi[dir] = validBox.smallEnd(dir);
    const Box plane(validBox.smallEnd(), planeHi);
    auto scc = scratchLease.fab().const_array();
    dispatchScheme(scheme, recon, [&](auto kind) {
        using K = decltype(kind);
        gpu::ParallelFor(plane, [&](int i0, int j0, int k0) {
            IntVect p{i0, j0, k0};
            CellFlux cells[6];
            Real cons[6][NCONS];
            Real fprev[NCONS], fcur[NCONS];
            // The window of the face stored at cell index lo-1 along `dir`
            // (interface lo-1/2), gathered like the portable kernel 2.
            p[dir] = lo - 1;
            gatherWindow<K::recon>(scc, S, p, e, cells, cons);
            interfaceFlux<K::scheme, K::recon>(cells, cons, gas, fprev);
            for (int c0 = lo; c0 <= hi; ++c0) {
                p[dir] = c0;
                gatherWindow<K::recon>(scc, S, p, e, cells, cons);
                interfaceFlux<K::scheme, K::recon>(cells, cons, gas, fcur);
                const Real scale =
                    1.0 / (dxi * cache(p[0], p[1], p[2], fused::QC_J));
                for (int m = 0; m < NCONS; ++m) {
                    // `0.0 - x` is bitwise the unfused path's `0 -= x` after
                    // dU.setVal(0); the compound form matches its `dU -= x`.
                    if (firstTerm)
                        dU(p[0], p[1], p[2], m) = 0.0 - scale * (fcur[m] - fprev[m]);
                    else
                        dU(p[0], p[1], p[2], m) -= scale * (fcur[m] - fprev[m]);
                }
                for (int m = 0; m < NCONS; ++m) fprev[m] = fcur[m];
            }
        });
    });
}

void wenoFlux(int dir, const Array4<const Real>& S,
              const Array4<const Real>& metrics, const Box& validBox,
              const Array4<Real>& dU, Real dxi, const GasModel& gas,
              WenoScheme scheme, KernelVariant variant, Reconstruction recon) {
    assert(dir >= 0 && dir < 3);
    if (variant == KernelVariant::Portable) {
        wenoFluxPortable(dir, S, metrics, validBox, dU, dxi, gas, scheme, recon);
    } else {
        wenoFluxFortranStyle(dir, S, metrics, validBox, dU, dxi, gas, scheme,
                             recon);
    }
}

} // namespace crocco::core
