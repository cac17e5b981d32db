// The output-correctness oracle. Every value it reads comes from the
// program's result structs (monitor::JobResult, the serve replies' stored
// records, serve::EngineStats), never from printed tables: the residual
// column prints 0.00e-15 for anything under 5e-18 and a sub-millisecond job
// legitimately reads 0 J, so neither printed form can pass or fail a run.
//
// Checks run outside the timed regions. Each returns the list of problems
// it found (empty = correct) so a run can count failed operations and
// still report every reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "monitor/campaign.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// The deterministic outputs of one repetition of one numeric job.
struct JobObservation {
  std::string label;
  bool is_cg = false;
  bool mixed = false;
  std::string error;  // what run_job threw; empty when it returned
  double residual = 0.0;
  bool fell_back = false;
  int cg_iters = 0;
  std::size_t nnz = 0;
  int refine_iters = 0;
  double model_s = 0.0;  // modelled duration
  double model_j = 0.0;  // reported (RAPL-path) total energy
  int rapl_counters = 0; // energy counters the monitor read (4 per node)

  /// FNV-1a over the bit patterns of iterations, nnz, refinement
  /// iterations and modelled seconds: equal digests mean bit-identical
  /// deterministic outputs. The RAPL-path joules are left out: they are
  /// a counter measurement, and at this revision two repetitions of one
  /// job can read them differently (see rapl_resolution_j).
  std::uint64_t digest() const;
  std::string digest_hex() const;  // 16 lowercase hex digits

  /// What the RAPL path can resolve for this job: one counter update
  /// window at the job's mean power, plus one energy unit per counter at
  /// each of its two reads. Counter reads sample the energy ledger while
  /// ranks that lag in host time may still be appending segments that
  /// precede the sample, so repetitions with identical virtual timelines
  /// can differ by whole energy units.
  double rapl_resolution_j() const;
};

/// run_job's documented residual bounds.
inline constexpr double kFp64ResidualBound = 1e-10;
inline constexpr double kMixedResidualBound = 1e-9;

/// One observation per repetition of `result`.
std::vector<JobObservation> observe(const std::string& label,
                                    const plin::monitor::JobResult& result);

/// Observation of a job whose run_job call threw.
JobObservation observe_failure(const std::string& label,
                               const plin::monitor::JobSpec& spec,
                               const std::string& error);

/// Single-observation checks: returned without throwing, residual under
/// its bound, CG converged with nonzero iterations and nnz, mixed did not
/// fall back.
std::vector<std::string> check_job(const JobObservation& obs);

/// Repeatability: `again` must reproduce `first`'s digest bit for bit and
/// its RAPL-path joules within rapl_resolution_j().
std::vector<std::string> check_repeat(const JobObservation& first,
                                      const JobObservation& again);

/// One reply the serve load generator received.
struct ReplyObservation {
  std::string key;
  bool ok = false;
  std::string status;  // "cached" | "done" | "queued" | "coalesced" | ...
  std::string via;     // deferred replies: how the submit was admitted
  bool waited = true;  // false for a wait=false submit
  /// FNV-1a of the serialized record the reply carried; 0 when none.
  std::uint64_t record_hash = 0;
};

/// What the serve session must satisfy: every reply ok and of the status
/// its request allows, nothing rejected or failed, exactly one execution
/// per unique key, and every reply for a key carrying the record of that
/// key's one execution. Returns problems; `failed_replies` receives the
/// number of individual replies at fault.
std::vector<std::string> check_serve(
    const std::vector<ReplyObservation>& replies,
    const plin::serve::EngineStats& stats, std::size_t unique_keys,
    std::size_t* failed_replies);

}  // namespace perfbench
