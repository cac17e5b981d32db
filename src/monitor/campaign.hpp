// Campaign harness — the paper's testing framework (§4, §5.1): runs a
// configured job (algorithm, matrix size, ranks, layout) a number of times
// under the white-box monitor, collects per-repetition measurements and
// prints them as a human-readable table (campaign grids write their CSV
// through batch::write_report_csv).
//
// The input system is generated from a fixed seed — the equivalent of the
// paper loading the system from a file "to ensure consistent input data
// for repetitive measurements".
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "monitor/white_box.hpp"
#include "perfsim/prediction.hpp"
#include "solvers/cg/precond.hpp"
#include "solvers/efficiency.hpp"
#include "sparse/generate.hpp"
#include "support/stats.hpp"

namespace plin::monitor {

struct JobSpec {
  perfsim::Algorithm algorithm = perfsim::Algorithm::kScalapack;
  std::size_t n = 0;
  int ranks = 1;
  hw::LoadLayout layout = hw::LoadLayout::kFullLoad;
  std::uint64_t seed = 1;
  std::size_t nb = solvers::kDefaultBlock;  // ScaLAPACK block size
  int repetitions = 3;  // the paper uses 10 on the real machine
  /// Per-package RAPL power cap programmed before the solve (0 = uncapped)
  /// — the paper's §6 "application of power caps" extension, reachable
  /// from batch campaign manifests.
  double power_cap_w = 0.0;
  /// kMixed runs the fp32-factorize + fp64-refine GEPP variant instead of
  /// full fp64 (scalapack only; IMe and Jacobi have no mixed path).
  perfsim::Precision precision = perfsim::Precision::kFp64;
  /// CG only: the sparse family the job solves (ignored by the dense
  /// solvers) and the relative-residual convergence target.
  sparse::SparseKind matrix = sparse::SparseKind::kStencil5;
  double tolerance = 1e-11;
  /// CG only: the preconditioner axis (none | jacobi).
  solvers::CgPrecond precond = solvers::CgPrecond::kNone;

  std::string describe() const;
};

struct RepetitionResult {
  RunMeasurement measurement;
  double residual = 0.0;     // scaled residual of the computed solution
  double host_seconds = 0.0; // wall time of this repetition (diagnostics)
  int refine_iters = 0;      // mixed precision: fp64 refinement sweeps
  bool fell_back = false;    // mixed precision: fp32 abandoned for fp64
  int cg_iters = 0;          // CG: iterations to convergence
  std::size_t nnz = 0;       // CG: global pattern nonzeros streamed
  /// CG: aggregate per-iteration halo traffic of the run (send-side counts
  /// from TrafficCounters — zero for the dense solvers and for CG systems
  /// whose partition has an empty halo, e.g. block-diagonal families).
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;
};

struct JobResult {
  JobSpec spec;
  std::vector<RepetitionResult> repetitions;

  /// Full repetition statistics (support/stats.hpp) for the two headline
  /// quantities; mean_* below are the means of the same distributions.
  SampleStats duration_stats() const;
  SampleStats total_j_stats() const;

  double mean_duration_s() const;
  double mean_total_j() const;
  double mean_pkg_j() const;
  double mean_dram_j() const;
  double mean_power_w() const;
  double worst_residual() const;
};

/// Runs one job on the numeric tier (xmpi execution under the white-box
/// monitor). Throws on solver failure.
JobResult run_job(const hw::MachineSpec& machine, const JobSpec& spec,
                  const MonitorOptions& options = {});

/// Human-readable results table (the framework's "human-readable format").
void print_campaign_table(std::ostream& os, std::span<const JobResult> jobs);

}  // namespace plin::monitor
