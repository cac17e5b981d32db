// Conjugate gradient on CSR matrices — the memory-bound workload family
// next to the dense GEPP/IMe verticals (docs/sparse.md). All generated
// families are SPD by construction (sparse/generate.hpp), so plain
// (unpreconditioned) CG converges with the textbook guarantee.
//
// The distributed solver owns contiguous row blocks (the same
// chunk = ceil(n / P) arithmetic placement as Jacobi), generates its block
// locally from (kind, seed, n), and runs the iteration down one of two
// paths (CgPath below):
//   - kBlocking: the reference shape — a fully blocking halo exchange
//     before each SpMV, then separate scalar allreduces per dot product.
//   - kFused (default): an overlapped halo plus *fused iteration
//     collectives*. Local rows are split once at setup into *interior*
//     rows (read no ghost column) and *boundary* rows
//     (sparse::split_rows); per iteration the halo irecv/isends are
//     posted, the interior SpMV runs while the ghost values are in flight,
//     and the boundary rows finish after wait_all. Per-row accumulation
//     order is unchanged, so the SpMV result is bitwise the blocking one —
//     only the simulated time (and hence energy) moves. The per-iteration
//     scalar allreduces collapse into one small-vector allreduce
//     (element-wise, rank-order-preserving combine, so each element is
//     bitwise the value the scalar round would have produced), and
//     ||r||^2 advances by the standard recurrence
//     rr' = rr - 2 a (r.q) + a^2 (q.q) instead of a second round. The
//     recurrence carries a frozen eps * ||b||^2-scale rounding offset (the
//     attainable-accuracy limit of single-reduction CG), so it is guarded
//     by residual replacement: once the recurrence value dips under
//     1e-12 * ||b||^2, ||r||^2 is re-measured with a direct round — every
//     rank takes the same branch because the recurrence inputs are
//     replicated bitwise. The recurrence legitimately re-brackets the
//     residual trajectory, so kFused may terminate +-1 iteration from the
//     reference path.
// Both paths honor the repo's determinism contract: at a fixed path,
// results are bit-identical across worker counts and collective modes.
#pragma once

#include <cstdint>
#include <vector>

#include "solvers/cg/precond.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "xmpi/comm.hpp"

namespace plin::solvers {

/// Which iteration shape solve_pcg runs (see the header comment). kFused
/// is the default; kBlocking is the reference oracle.
enum class CgPath { kBlocking, kFused };

/// "blocking" / "fused".
const char* path_token(CgPath path);

struct CgOptions {
  sparse::SparseKind kind = sparse::SparseKind::kStencil5;
  std::size_t n = 0;
  std::uint64_t seed = 1;
  /// Relative-residual termination: ||r||_2 <= tolerance * ||b||_2.
  double tolerance = 1e-11;
  int max_iterations = 1000;
  CgPath path = CgPath::kFused;
  CgPrecond precond = CgPrecond::kNone;
};

struct CgResult {
  std::vector<double> x;       // full solution, replicated on every rank
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;  // ||r||_2 / ||b||_2 at exit
  std::size_t nnz = 0;             // global pattern nnz actually streamed
  /// solve_pcg: this rank's rows' part of the scaled residual of x. Merged
  /// over the ranks, scaled(n) is bitwise sparse::scaled_residual(A, x, b)
  /// on the global system (docs/sparse.md).
  sparse::ResidualMaxima residual;
};

/// Sequential reference: (preconditioned) CG on an explicit matrix and
/// right-hand side, with direct (unfused) dot products.
CgResult solve_cg(const sparse::CsrMatrix& a, const std::vector<double>& b,
                  double tolerance, int max_iterations,
                  CgPrecond precond = CgPrecond::kNone);

/// Distributed CG on `comm`; the system is generated from
/// (kind, seed, n) like the other solvers. Call from every rank.
CgResult solve_pcg(xmpi::Comm& comm, const CgOptions& options);

}  // namespace plin::solvers
