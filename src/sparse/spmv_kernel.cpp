#include "sparse/spmv_kernel.hpp"

#include "support/error.hpp"

namespace plin::sparse {
namespace {

/// The row sum: two independent accumulators over even/odd entry pairs.
double row_dot_scalar(const std::uint32_t* cols, const double* vals,
                      std::size_t lo, std::size_t hi, const double* x) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  std::size_t k = lo;
  for (; k + 1 < hi; k += 2) {
    acc0 += vals[k] * x[cols[k]];
    acc1 += vals[k + 1] * x[cols[k + 1]];
  }
  if (k < hi) acc0 += vals[k] * x[cols[k]];
  return acc0 + acc1;
}

}  // namespace

const char* kernel_token(SpmvKernel) { return "scalar"; }

const char* simd_isa() { return "none"; }

const SpmvConfig& active_spmv_config() {
  static const SpmvConfig config;
  return config;
}

void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv: vector shape mismatch");
  const std::uint32_t* cols = a.col_idx.data();
  const double* vals = a.values.data();
  for (std::size_t r = 0; r < a.rows; ++r) {
    y[r] = row_dot_scalar(cols, vals, a.row_ptr[r], a.row_ptr[r + 1],
                          x.data());
  }
}

void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv_rows: vector shape mismatch");
  const std::uint32_t* cols = a.col_idx.data();
  const double* vals = a.values.data();
  for (const std::uint32_t r : rows) {
    y[r] = row_dot_scalar(cols, vals, a.row_ptr[r], a.row_ptr[r + 1],
                          x.data());
  }
}

RowSplit split_rows(const CsrMatrix& a, std::size_t lo, std::size_t hi) {
  RowSplit split;
  for (std::size_t r = 0; r < a.rows; ++r) {
    bool boundary = false;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      if (a.col_idx[k] < lo || a.col_idx[k] >= hi) {
        boundary = true;
        break;
      }
    }
    if (boundary) {
      split.boundary.push_back(static_cast<std::uint32_t>(r));
      split.boundary_nnz += a.row_ptr[r + 1] - a.row_ptr[r];
    } else {
      split.interior.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return split;
}

}  // namespace plin::sparse
