// Batch job specification — one point of a campaign grid, on either
// execution tier, with a stable content-addressed key.
//
// The key is an FNV-1a 64-bit hash of the spec's canonical string, which
// covers every field that influences the job's *result* (tier, machine,
// algorithm, n, ranks, layout, nb, seed, repetitions, iterations, power
// cap) plus a format-version tag. Execution policy (timeout, retries,
// worker count) deliberately stays out: re-running the same science with a
// different schedule must hit the cache.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/prediction.hpp"
#include "solvers/cg/precond.hpp"

namespace plin::batch {

/// Which execution substrate runs the job (DESIGN.md §2's two tiers).
enum class Tier {
  kNumeric,  // real solvers on xmpi under the white-box monitor
  kReplay,   // perfsim analytic replay at paper scale
};

const char* to_string(Tier tier);
Tier parse_tier(const std::string& token);

/// Short manifest tokens for the layouts ("full" | "half1" | "half2"),
/// shared by the CLI drivers and the manifest parser.
const char* layout_token(hw::LoadLayout layout);
hw::LoadLayout parse_layout_token(const std::string& token);

/// Manifest tokens for algorithms ("ime" | "scalapack" | "jacobi" | "cg").
const char* algorithm_token(perfsim::Algorithm algorithm);
perfsim::Algorithm parse_algorithm_token(const std::string& token);

/// Manifest tokens for precisions ("fp64" | "mixed").
const char* precision_token(perfsim::Precision precision);
perfsim::Precision parse_precision_token(const std::string& token);

/// Seeds travel as JSON numbers (store journal, serve wire), which hold an
/// integer exactly only below 2^53. Returns `value` as a seed; throws
/// InvalidArgument unless 0 <= value < 2^53. The manifest parser and the
/// CLI's --seed share this check.
std::uint64_t checked_seed(long value);

/// One fully-specified job. Defaults describe a small numeric-tier run.
struct JobSpec {
  Tier tier = Tier::kNumeric;
  /// Machine name: "marconi" | "epyc" | "mini:<nodes>x<cores_per_socket>".
  std::string machine = "mini:16x4";
  perfsim::Algorithm algorithm = perfsim::Algorithm::kIme;
  std::size_t n = 256;
  int ranks = 4;
  hw::LoadLayout layout = hw::LoadLayout::kFullLoad;
  std::size_t nb = 32;          // ScaLAPACK block size
  std::uint64_t seed = 1;
  int repetitions = 1;
  int iterations = 100;         // Jacobi sweep count (replay tier)
  double power_cap_w = 0.0;     // per-package RAPL cap; 0 = uncapped
  /// fp64 (default) or mixed (fp32 factorization + fp64 refinement);
  /// numeric tier + scalapack only.
  perfsim::Precision precision = perfsim::Precision::kFp64;
  /// Sparse family for cg jobs (sparse/generate.hpp tokens); ignored — and
  /// kept out of the canonical string — for every other algorithm.
  sparse::SparseKind matrix = sparse::SparseKind::kStencil5;
  /// CG preconditioner axis; appended to the canonical string only when a
  /// cg job is preconditioned, so every pre-existing key stays valid.
  solvers::CgPrecond precond = solvers::CgPrecond::kNone;

  /// Canonical serialization: the hash pre-image, also usable as a fully
  /// qualified human-readable job id.
  std::string canonical() const;

  /// Content-addressed key: 16 lowercase hex digits of FNV-1a 64.
  std::string key() const;

  /// Short description for progress logs.
  std::string describe() const;
};

/// Resolves a machine name ("marconi" | "epyc" | "mini:<N>x<C>") to its
/// MachineSpec; throws InvalidArgument on anything else.
hw::MachineSpec machine_from_name(const std::string& name);

/// FNV-1a 64-bit (exposed for tests).
std::uint64_t fnv1a64(std::string_view text);

}  // namespace plin::batch
