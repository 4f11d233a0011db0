#pragma once

#include "gpu/DeviceModel.hpp"

namespace crocco::core {

/// Static cost profiles of the numerics kernels, counted from the kernel
/// source. These feed the V100/P9 execution-time models (Fig. 3) and the
/// hierarchical roofline (Fig. 4).
///
/// Counting notes (per grid point, double precision):
///  * WENO (one direction): stage A builds the contravariant flux
///    (~90 flops incl. the 3x3 Jacobian determinant and an rsqrt); stage B
///    reconstructs 5 components x 2 characteristic families, each a
///    6-point WENO-SYMBO evaluation (~95 flops) plus the LF split (~25);
///    stage C differences (~15). Total ~1.3e3 flops/pt.
///  * DRAM traffic: state + metrics reads, two scratch round-trips and the
///    flux write, with the paper's low occupancy (12.5%) spoiling cache
///    reuse — effective ~3.9e3 B/pt, giving AI ~0.33 flop/B, which at the
///    V100's ~900 GB/s reproduces the paper's ~300 GF/s achieved (Fig. 4).
///  * Register pressure ~232 regs/thread caps theoretical occupancy at
///    12.5%, the value the paper reports from Nsight Compute.
const gpu::KernelProfile& wenoKernelProfile();

/// Viscous kernel: two 4th-order passes, ~6.1e2 flops/pt, similarly
/// bandwidth-bound.
const gpu::KernelProfile& viscousKernelProfile();

/// ComputeDt reduction: light compute, one state+metrics sweep.
const gpu::KernelProfile& computeDtProfile();

/// RK update: pure streaming saxpy traffic.
const gpu::KernelProfile& updateKernelProfile();

/// Fine/coarse ghost interpolation (FillPatch): 8-point gather with
/// physical-coordinate weights per ghost cell.
const gpu::KernelProfile& interpKernelProfile();

} // namespace crocco::core
