// Tests for the CG solvers: sequential convergence on every SPD family,
// agreement between the distributed and sequential solvers, the
// bit-identity contract across worker counts / collective modes, and the
// analytic iteration model backing the replay tier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "hwmodel/placement.hpp"
#include "hwmodel/sparse.hpp"
#include "linalg/generate.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/efficiency.hpp"
#include "sparse/generate.hpp"
#include "support/error.hpp"
#include "xmpi/runtime.hpp"

namespace plin::solvers {
namespace {

using sparse::SparseKind;

xmpi::RunConfig mini_config(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/32, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

class CgFamilyParam : public ::testing::TestWithParam<SparseKind> {};

TEST_P(CgFamilyParam, SequentialConvergesWithSmallResidual) {
  const SparseKind kind = GetParam();
  const std::size_t n = 200;
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);

  const CgResult result = solve_cg(a, b, 1e-11, 1000);
  EXPECT_TRUE(result.converged) << sparse::kind_token(kind);
  EXPECT_LE(result.relative_residual, 1e-11);
  EXPECT_EQ(result.nnz, a.nnz());
  EXPECT_LT(sparse::scaled_residual(a, result.x, b), 1e-12);
}

TEST_P(CgFamilyParam, DistributedMatchesSequential) {
  const SparseKind kind = GetParam();
  const std::size_t n = 150;  // ragged row blocks at 4 ranks
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const CgResult reference = solve_cg(a, b, 1e-11, 1000);
  ASSERT_TRUE(reference.converged);

  CgResult distributed;
  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = kind;
    options.n = n;
    options.seed = seed;
    // The sequential reference runs direct (unfused) dot products, so the
    // iteration-count comparison needs the matching distributed shape.
    options.path = CgPath::kBlocking;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.x.size(), n);
    // Solution is replicated: every rank holds a valid solve.
    EXPECT_LT(sparse::scaled_residual(a, r.x, b), 1e-12);
    if (comm.rank() == 0) distributed = r;
  });
  EXPECT_EQ(distributed.iterations, reference.iterations);
  EXPECT_EQ(distributed.nnz, a.nnz());
  ASSERT_EQ(distributed.x.size(), n);
  // Same Krylov trajectory up to the reduction bracketing: near-exact
  // agreement (the bit-identity contract is across *runtime* knobs, not
  // across rank counts, whose partial-sum bracketing legitimately differs).
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(distributed.x[i], reference.x[i],
                1e-9 * (std::fabs(reference.x[i]) + 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CgFamilyParam,
                         ::testing::Values(SparseKind::kStencil5,
                                           SparseKind::kStencil9,
                                           SparseKind::kStencil27,
                                           SparseKind::kBanded,
                                           SparseKind::kRandom));

struct CgRun {
  std::vector<double> x;
  int iterations = 0;
  double duration_s = 0.0;
  double energy_j = 0.0;
};

CgRun run_cg(const xmpi::RunConfig& config, std::size_t n,
             CgPath path = CgPath::kFused, std::uint64_t seed = 9,
             double tolerance = CgOptions{}.tolerance) {
  CgRun out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kStencil5;
        options.n = n;
        options.seed = seed;
        options.tolerance = tolerance;
        options.path = path;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
        if (comm.rank() == 0) {
          out.x = r.x;
          out.iterations = r.iterations;
        }
      });
  out.duration_s = run.duration_s;
  out.energy_j = run.energy.total_j();
  return out;
}

TEST(CgDeterminism, BitIdenticalAcrossWorkersAndCollectives) {
  const std::size_t n = 160;
  const int ranks = 8;

  xmpi::RunConfig base = mini_config(ranks);
  base.workers = 2;

  xmpi::RunConfig one_worker = mini_config(ranks);
  one_worker.workers = 1;

  xmpi::RunConfig more_workers = mini_config(ranks);
  more_workers.workers = 5;

  xmpi::RunConfig scalable = mini_config(ranks);
  scalable.transport.collectives = xmpi::CollectiveMode::kScalable;

  const CgRun reference = run_cg(base, n);
  ASSERT_EQ(reference.x.size(), n);
  // Host-execution knobs must not perturb anything simulated: solution,
  // iteration count, virtual duration and energy are all bit-identical.
  for (const xmpi::RunConfig& config : {one_worker, more_workers}) {
    const CgRun other = run_cg(config, n);
    EXPECT_EQ(other.iterations, reference.iterations);
    EXPECT_EQ(other.duration_s, reference.duration_s);
    EXPECT_EQ(other.energy_j, reference.energy_j);
    ASSERT_EQ(other.x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Bitwise: the exact same double, not merely close.
      EXPECT_EQ(other.x[i], reference.x[i]) << "x[" << i << "]";
    }
  }
  // The scalable collectives change the simulated *schedule* (timing and
  // therefore energy legitimately move), but the reduction values are
  // bit-identical to the tree schedule at every P — so the trajectory,
  // iteration count and solution bits must not move.
  const CgRun sc = run_cg(scalable, n);
  EXPECT_EQ(sc.iterations, reference.iterations);
  EXPECT_GT(sc.duration_s, 0.0);
  ASSERT_EQ(sc.x.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sc.x[i], reference.x[i]) << "x[" << i << "]";
  }
}

TEST(CgDeterminism, SingleRankMatchesMultiRankTrajectory) {
  // Not bitwise (partial-sum bracketing differs with the rank count), but
  // the iteration count is a sensitive trajectory probe: it must be stable
  // across world sizes for the campaign's iters column to be meaningful.
  // Pinned to the reference path — the fused recurrence may legitimately
  // re-bracket termination by one iteration (checked separately below).
  const std::size_t n = 160;
  std::vector<int> iteration_counts;
  for (const int ranks : {1, 3, 8}) {
    xmpi::Runtime::run(mini_config(ranks), [&](xmpi::Comm& comm) {
      CgOptions options;
      options.kind = SparseKind::kStencil5;
      options.n = n;
      options.seed = 9;
      options.path = CgPath::kBlocking;
      const CgResult r = solve_pcg(comm, options);
      EXPECT_TRUE(r.converged);
      if (comm.rank() == 0) iteration_counts.push_back(r.iterations);
    });
  }
  ASSERT_EQ(iteration_counts.size(), 3u);
  EXPECT_EQ(iteration_counts[0], iteration_counts[1]);
  EXPECT_EQ(iteration_counts[1], iteration_counts[2]);
}

TEST(CgPaths, FusedTracksBlockingWithinOneIteration) {
  // The fused recurrence legitimately re-brackets the residual trajectory;
  // the guarded residual replacement keeps it honest, so termination may
  // move by at most one iteration and the exit residual still meets the
  // tolerance.
  const std::size_t n = 160;
  for (const int ranks : {1, 3, 6, 12}) {
    const CgRun blocking = run_cg(mini_config(ranks), n, CgPath::kBlocking);
    const CgRun fused = run_cg(mini_config(ranks), n, CgPath::kFused);
    EXPECT_LE(std::abs(fused.iterations - blocking.iterations), 1)
        << "P=" << ranks;
    // Fewer allreduce rounds must show up as simulated time saved — except
    // at P = 1, where rounds are free and the extra recurrence terms make
    // fusion a (tiny) net compute cost.
    if (ranks > 1) {
      EXPECT_LT(fused.duration_s, blocking.duration_s) << "P=" << ranks;
    }
  }
}

TEST(CgPaths, FusedSpeedupAndReplayEnvelopeAtTheLatencyBoundPoint) {
  // stencil5 n = 4096 on 8 ranks of a 2-node cluster: few rows per rank, so
  // the allreduce rounds dominate an iteration and fusing them must show.
  // Tolerance 1e-7 keeps every fused iteration at one round (the
  // residual-replacement guard re-measures below relative residual 1e-6).
  const std::size_t n = 4096;
  const double tolerance = 1e-7;
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/2, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(8, hw::LoadLayout::kFullLoad, config.machine);
  const CgRun blocking =
      run_cg(config, n, CgPath::kBlocking, /*seed=*/1, tolerance);
  const CgRun fused = run_cg(config, n, CgPath::kFused, /*seed=*/1, tolerance);
  EXPECT_EQ(blocking.iterations, 24);
  EXPECT_EQ(fused.iterations, 24);
  EXPECT_EQ(blocking.duration_s, 0x1.ccb0f08a7631cp-12)
      << std::hexfloat << blocking.duration_s;
  EXPECT_EQ(fused.duration_s, 0x1.4e73909e6dd79p-12)
      << std::hexfloat << fused.duration_s;
  const double blocking_iter_s = blocking.duration_s / blocking.iterations;
  const double fused_iter_s = fused.duration_s / fused.iterations;
  EXPECT_GE(blocking_iter_s / fused_iter_s, 1.3);

  // The replay tier's per-iteration time stays within the 3x envelope of
  // the executed fused path.
  const perfsim::Simulator simulator(config.machine);
  perfsim::Workload workload;
  workload.algorithm = perfsim::Algorithm::kCg;
  workload.matrix = SparseKind::kStencil5;
  workload.n = n;
  workload.tolerance = tolerance;
  const double predicted_iter_s =
      simulator.predict(workload, config.placement).duration_s /
      perfsim::cg_model_iters(workload.matrix, tolerance);
  EXPECT_GE(predicted_iter_s / fused_iter_s, 1.0 / 3.0);
  EXPECT_LE(predicted_iter_s / fused_iter_s, 3.0);
}

TEST(CgPaths, SingleRankBlockingMatchesSequentialBitwise) {
  // At P = 1 the distributed blocking path degenerates to the sequential
  // loop (empty halo, identity allreduce, same dot bracketing) — so the
  // agreement is exact, not merely near.
  const std::size_t n = 150;
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const CgResult reference = solve_cg(a, b, 1e-11, 1000);
  ASSERT_TRUE(reference.converged);

  CgResult distributed;
  xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = SparseKind::kStencil5;
    options.n = n;
    options.seed = seed;
    options.path = CgPath::kBlocking;
    const CgResult r = solve_pcg(comm, options);
    if (comm.rank() == 0) distributed = r;
  });
  EXPECT_EQ(distributed.iterations, reference.iterations);
  EXPECT_DOUBLE_EQ(distributed.relative_residual,
                   reference.relative_residual);
  ASSERT_EQ(distributed.x.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(distributed.x[i], reference.x[i]) << "x[" << i << "]";
  }
}

TEST(CgEdge, MoreRanksThanRowsConvergesOnEveryPath) {
  // n < P leaves the high ranks without rows: empty chunks must post no
  // halo traffic, contribute zero partials and still participate in every
  // collective.
  const std::size_t n = 8;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, 3, n);
  const std::vector<double> b = linalg::generate_rhs(3, n);
  for (const CgPath path : {CgPath::kBlocking, CgPath::kFused}) {
    CgResult result;
    xmpi::Runtime::run(mini_config(12), [&](xmpi::Comm& comm) {
      CgOptions options;
      options.kind = SparseKind::kStencil5;
      options.n = n;
      options.seed = 3;
      options.path = path;
      const CgResult r = solve_pcg(comm, options);
      EXPECT_TRUE(r.converged) << path_token(path);
      if (comm.rank() == 0) result = r;
    });
    ASSERT_EQ(result.x.size(), n) << path_token(path);
    EXPECT_LT(sparse::scaled_residual(a, result.x, b), 1e-12)
        << path_token(path);
  }
}

TEST(CgEdge, BlockDiagAlignedChunksSendNoHaloMessages) {
  // blockdiag couples rows only inside 64-row diagonal blocks; with the
  // chunk size a multiple of 64 (n = 256 over 4 ranks -> chunk 64) every
  // partition boundary falls between blocks, the halo is empty, and the
  // fused path's zero-message fast path must be exercised: no per-
  // iteration halo traffic at all.
  const std::size_t n = 256;
  CgResult result;
  const xmpi::RunResult run =
      xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kBlockDiag;
        options.n = n;
        options.seed = 7;
        options.path = CgPath::kFused;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
        if (comm.rank() == 0) result = r;
      });
  EXPECT_EQ(run.traffic.halo_messages, 0u);
  EXPECT_EQ(run.traffic.halo_bytes, 0u);
  // The collectives (and the final gather) still ran.
  EXPECT_GT(run.traffic.data_messages, 0u);

  // Contrast: the stencil couples across every partition boundary, so the
  // same shape reports per-iteration halo traffic — and the halo counters
  // are a strict subset of the data counters.
  const xmpi::RunResult coupled =
      xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kStencil5;
        options.n = n;
        options.seed = 7;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
      });
  EXPECT_GT(coupled.traffic.halo_messages, 0u);
  EXPECT_GT(coupled.traffic.halo_bytes, 0u);
  EXPECT_LT(coupled.traffic.halo_messages, coupled.traffic.data_messages);
  EXPECT_LT(coupled.traffic.halo_bytes, coupled.traffic.data_bytes);
}

TEST(CgResidual, RankLocalMaximaMatchTheGlobalResidualBitwise) {
  // Each rank evaluates the residual maxima of its own rows; merged over
  // the ranks they must be bitwise the serial check on the global system.
  // n = 301 splits unevenly at 3 and 16 ranks.
  const std::size_t n = 301;
  const std::uint64_t seed = 23;
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom, SparseKind::kBlockDiag}) {
    const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
    for (const int ranks : {1, 3, 16}) {
      SCOPED_TRACE(std::string(sparse::kind_token(kind)) + " ranks=" +
                   std::to_string(ranks));
      std::vector<sparse::ResidualMaxima> parts(
          static_cast<std::size_t>(ranks));
      std::vector<double> x;
      xmpi::Runtime::run(mini_config(ranks), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = kind;
        options.n = n;
        options.seed = seed;
        const CgResult r = solve_pcg(comm, options);
        parts[static_cast<std::size_t>(comm.rank())] = r.residual;
        if (comm.rank() == 0) x = r.x;
      });
      sparse::ResidualMaxima merged;
      for (const sparse::ResidualMaxima& part : parts) merged.merge(part);
      const sparse::ResidualMaxima global = sparse::residual_maxima(a, x, b);
      EXPECT_EQ(merged.residual, global.residual);
      EXPECT_EQ(merged.row_sum, global.row_sum);
      EXPECT_EQ(merged.x, global.x);
      EXPECT_EQ(merged.scaled(n), sparse::scaled_residual(a, x, b));
      EXPECT_GT(merged.residual, 0.0);
    }
  }
}

TEST(CgPrecond, JacobiMatchesSequentialAndConvergesFused) {
  // kRandom has a genuinely varying diagonal, so the Jacobi preconditioner
  // is a real (non-scalar) transformation there.
  const std::size_t n = 150;
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kRandom, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const CgResult reference =
      solve_cg(a, b, 1e-11, 1000, CgPrecond::kJacobi);
  ASSERT_TRUE(reference.converged);
  EXPECT_LE(reference.relative_residual, 1e-11);

  CgResult distributed;
  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = SparseKind::kRandom;
    options.n = n;
    options.seed = seed;
    options.precond = CgPrecond::kJacobi;
    options.path = CgPath::kBlocking;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    if (comm.rank() == 0) distributed = r;
  });
  EXPECT_EQ(distributed.iterations, reference.iterations);
  ASSERT_EQ(distributed.x.size(), n);
  EXPECT_LT(sparse::scaled_residual(a, distributed.x, b), 1e-12);

  // The fused path fuses the two extra preconditioned terms into the same
  // single round and still has to land the tolerance.
  CgResult fused;
  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = SparseKind::kRandom;
    options.n = n;
    options.seed = seed;
    options.precond = CgPrecond::kJacobi;
    options.path = CgPath::kFused;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    if (comm.rank() == 0) fused = r;
  });
  EXPECT_LE(std::abs(fused.iterations - reference.iterations), 1);
  ASSERT_EQ(fused.x.size(), n);
  EXPECT_LT(sparse::scaled_residual(a, fused.x, b), 1e-12);
}

TEST(CgSequential, ZeroRhsSolvesImmediately) {
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, 1, 32);
  const std::vector<double> b(32, 0.0);
  const CgResult result = solve_cg(a, b, 1e-11, 100);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  for (const double v : result.x) EXPECT_EQ(v, 0.0);
}

TEST(CgSequential, RejectsIndefiniteMatrix) {
  sparse::CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.values = {1.0, -1.0};  // indefinite diagonal
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW((void)solve_cg(a, b, 1e-11, 100), Error);
}

TEST(CgModel, IterationCountTracksExecutedCounts) {
  // The analytic model is the Chebyshev bound on the Gershgorin condition
  // estimate (dominance margin 1 keeps the spectrum inside [1, 2S + 1]).
  // The estimate uses the *representative* off-diagonal sum, so it tracks
  // rather than bounds the executed counts — assert a tight-enough band
  // for the replay tier's iters column to be meaningful.
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom}) {
    const int modeled = perfsim::cg_model_iters(kind, 1e-11);
    EXPECT_GE(modeled, 1);
    const sparse::CsrMatrix a = sparse::generate_matrix(kind, 5, 200);
    const std::vector<double> b = linalg::generate_rhs(5, 200);
    const CgResult run = solve_cg(a, b, 1e-11, 2000);
    ASSERT_TRUE(run.converged);
    EXPECT_LE(run.iterations, 3 * modeled) << sparse::kind_token(kind);
    EXPECT_GE(3 * run.iterations, modeled) << sparse::kind_token(kind);
  }
  // Looser tolerance => fewer modeled iterations.
  EXPECT_LT(perfsim::cg_model_iters(SparseKind::kStencil5, 1e-4),
            perfsim::cg_model_iters(SparseKind::kStencil5, 1e-11));
}

TEST(CgReplay, PredictionScalesWithSizeAndIsMemoryBound) {
  const hw::MachineSpec machine = hw::marconi_a3();
  const perfsim::Simulator simulator(machine);
  perfsim::Workload workload;
  workload.algorithm = perfsim::Algorithm::kCg;
  workload.matrix = SparseKind::kStencil5;

  const hw::Placement placement =
      hw::make_placement(16, hw::LoadLayout::kFullLoad, machine);
  workload.n = 100000;
  const perfsim::Prediction small = simulator.predict(workload, placement);
  workload.n = 400000;
  const perfsim::Prediction large = simulator.predict(workload, placement);
  EXPECT_GT(small.duration_s, 0.0);
  EXPECT_GT(large.duration_s, small.duration_s);
  EXPECT_GT(large.total_j(), small.total_j());
  // Memory-bound workload: DRAM draws a far larger share of the energy
  // than in the dense-solver predictions.
  EXPECT_GT(large.dram_j[0] + large.dram_j[1],
            0.05 * (large.pkg_j[0] + large.pkg_j[1]));

  // Per SpMV of the stencil5 campaign point (n = 65536 on 8 ranks of a
  // 2x4-core cluster), the DRAM term outlasts the flop term at each core's
  // fair share of the socket bandwidth.
  const hw::MachineSpec mini = hw::mini_cluster(2, 4);
  const double ranks = 8.0;
  const double nnz = static_cast<double>(
      sparse::generate_matrix(SparseKind::kStencil5, 1, 65536).nnz());
  const double bytes_per_flop =
      hw::csr_spmv_bytes_per_flop(nnz / ranks, 65536.0 / ranks);
  const double bw_share =
      mini.node.socket.dram_bandwidth_bs / mini.node.socket.cores;
  EXPECT_GE(bytes_per_flop * kSpmv.efficiency *
                mini.node.socket.core.peak_flops() / bw_share,
            1.0);
}

}  // namespace
}  // namespace plin::solvers
