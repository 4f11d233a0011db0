#include "core/KernelProfiles.hpp"

namespace crocco::core {

const gpu::KernelProfile& wenoKernelProfile() {
    static const gpu::KernelProfile p{
        .name = "WENO",
        .flopsPerPoint = 1300.0,
        .dramBytesPerPoint = 3900.0,
        .l2BytesPerPoint = 9500.0,
        .l1BytesPerPoint = 52000.0,
        .registersPerThread = 232.0,
    };
    return p;
}

const gpu::KernelProfile& viscousKernelProfile() {
    static const gpu::KernelProfile p{
        .name = "Viscous",
        .flopsPerPoint = 610.0,
        .dramBytesPerPoint = 2600.0,
        .l2BytesPerPoint = 6200.0,
        .l1BytesPerPoint = 30000.0,
        .registersPerThread = 226.0,
    };
    return p;
}

const gpu::KernelProfile& computeDtProfile() {
    static const gpu::KernelProfile p{
        .name = "ComputeDt",
        .flopsPerPoint = 60.0,
        .dramBytesPerPoint = 300.0,
        .l2BytesPerPoint = 450.0,
        .l1BytesPerPoint = 900.0,
        .registersPerThread = 64.0,
    };
    return p;
}

const gpu::KernelProfile& updateKernelProfile() {
    static const gpu::KernelProfile p{
        .name = "Update",
        .flopsPerPoint = 30.0,
        .dramBytesPerPoint = 240.0,
        .l2BytesPerPoint = 260.0,
        .l1BytesPerPoint = 300.0,
        .registersPerThread = 40.0,
    };
    return p;
}

const gpu::KernelProfile& interpKernelProfile() {
    static const gpu::KernelProfile p{
        .name = "Interp",
        .flopsPerPoint = 190.0,
        .dramBytesPerPoint = 620.0,
        .l2BytesPerPoint = 900.0,
        .l1BytesPerPoint = 2100.0,
        .registersPerThread = 96.0,
    };
    return p;
}

} // namespace crocco::core
