// CSR (compressed sparse row) matrices — the storage format of the
// memory-bound workload family (docs/sparse.md).
//
// Layout: row_ptr[r] .. row_ptr[r+1] delimits row r's entries in the
// parallel col_idx / values arrays. Column indices are 32-bit by design:
// the 4-byte index stream next to the 8-byte value stream is exactly what
// makes CSR SpMV traffic-dominated, and the hwmodel prices those streams
// separately (hwmodel/sparse.hpp). Rows are kept sorted by column and
// duplicate-free (normalize() restores the invariant after unordered
// assembly, e.g. a Matrix Market import).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace plin::sparse {

struct CsrMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_ptr;   // rows + 1 offsets, row_ptr[0] == 0
  std::vector<std::uint32_t> col_idx; // nnz column indices
  std::vector<double> values;         // nnz values

  std::size_t nnz() const { return values.size(); }

  /// Heap footprint of the three streams (what generation memory_touches).
  double size_bytes() const {
    return 8.0 * static_cast<double>(row_ptr.size()) +
           4.0 * static_cast<double>(col_idx.size()) +
           8.0 * static_cast<double>(values.size());
  }

  /// Throws InvalidArgument unless the structure is well formed: offsets
  /// monotone and spanning both entry arrays, every column in range, and
  /// every row sorted by column with no duplicates.
  void validate() const;

  /// Sorts every row by column index and merges duplicate entries by
  /// adding their values — the repair step for unordered assembly.
  void normalize();
};

/// An empty (all-zero) rows x cols matrix.
CsrMatrix make_empty(std::size_t rows, std::size_t cols);

/// y = A * x. x must have a.cols elements, y a.rows; throws otherwise.
/// Sequential; the row sum is the one kernel in spmv_kernel.hpp (two
/// accumulators over even/odd entry pairs).
void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y);

/// Infinity norm (max absolute row sum).
double inf_norm(const CsrMatrix& a);

/// The three maxima behind scaled_residual, over some block of rows. A max
/// combines exactly in any order, so the maxima of a row partition merge
/// into bitwise the whole system's — which lets each CG rank evaluate its
/// own rows and the host combine them.
struct ResidualMaxima {
  double residual = 0.0;  // max |(Ax)_i - b_i|
  double row_sum = 0.0;   // max sum_j |a_ij| (the rows' part of ||A||_inf)
  double x = 0.0;         // max |x_i| over the rows' own unknowns

  void merge(const ResidualMaxima& other);

  /// residual / (row_sum * x * n), or the bare residual when the
  /// denominator is zero.
  double scaled(std::size_t n) const;
};

/// Maxima over a's rows. x holds a.cols entries whose first a.rows are the
/// rows' own unknowns: a square system, or a row block remapped to
/// [owned | ghosts] as the distributed CG stores it. b holds a.rows
/// entries. (Ax)_i goes through spmv, so it carries the same bits as any
/// other spmv of the same row under the active kernel.
ResidualMaxima residual_maxima(const CsrMatrix& a, std::span<const double> x,
                               std::span<const double> b);

/// Scaled residual ||Ax-b||_inf / (||A||_inf * ||x||_inf * n) — the same
/// LAPACK acceptance metric linalg::scaled_residual applies to the dense
/// solvers, evaluated without densifying A. Requires a square matrix.
double scaled_residual(const CsrMatrix& a, std::span<const double> x,
                       std::span<const double> b);

}  // namespace plin::sparse
