// In-run machine ceilings the layer metrics are read against: a vector FMA
// throughput probe (the GEMM ceiling) and a STREAM-style triad (the SpMV
// ceiling). Both run on the calling thread, like the kernels they bound.
#pragma once

#include <cstddef>

namespace perfbench {

/// Single-core double-precision FMA throughput in GFLOP/s: the median of
/// `repeats` timed bursts of independent vector FMA chains.
double fma_peak_gflops(int repeats);

/// Triad a[i] = b[i] + s * c[i] over three arrays of `elements` doubles;
/// returns the median GB/s of `repeats` sweeps, counting 24 bytes per
/// element (two reads, one write).
double triad_gbps(std::size_t elements, int repeats);

}  // namespace perfbench
