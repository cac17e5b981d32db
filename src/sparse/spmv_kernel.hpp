// The CSR SpMV row kernel (docs/sparse.md).
//
// One kernel computes y = A x row by row: two independent accumulators
// over even/odd entry pairs, summed as acc0 + acc1. spmv (csr.hpp) and
// spmv_rows below run the same row sum, so a row's bits do not depend on
// which call computed it. Charged flops/bytes never depend on the kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace plin::sparse {

// SpmvKernel, SpmvConfig, kernel_token, active_spmv_config and simd_isa
// exist only for the benchmark's context line, which records the kernel
// it measured. There is one kernel and nothing selects it.
enum class SpmvKernel { kScalar };

/// "scalar".
const char* kernel_token(SpmvKernel kernel);

/// "none": the kernel uses no SIMD intrinsics.
const char* simd_isa();

struct SpmvConfig {
  SpmvKernel kernel = SpmvKernel::kScalar;
};

/// The one kernel's config (constant).
const SpmvConfig& active_spmv_config();

/// y[r] = (A x)[r] for exactly the rows listed in `rows`; every other y
/// entry is left untouched. Per-row accumulation is identical to the full
/// spmv, so computing a row here or there yields the same bits — the
/// property the CG interior/boundary split relies on (docs/sparse.md).
void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows);

/// The rows of a block that owns the columns [lo, hi), split by whether
/// they read a column outside it (a ghost column, whose value arrives by
/// halo exchange). Both lists ascend and together hold every row once.
struct RowSplit {
  std::vector<std::uint32_t> interior;  // read owned columns only
  std::vector<std::uint32_t> boundary;  // read at least one ghost column
  std::size_t boundary_nnz = 0;         // entries in the boundary rows
};

RowSplit split_rows(const CsrMatrix& a, std::size_t lo, std::size_t hi);

}  // namespace plin::sparse
