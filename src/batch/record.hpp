// JobRecord — the unit the result store persists: one completed job, its
// spec, and every repetition's measurement. Serialization is exact: all
// doubles survive a JSON round trip bit-for-bit, so reports generated from
// freshly-computed records and from journal-replayed records are
// byte-identical (the store's resumability contract).
#pragma once

#include <string>
#include <vector>

#include "batch/spec.hpp"
#include "support/json.hpp"

namespace plin::batch {

/// One repetition of one job. Virtual-time quantities are deterministic
/// (identical across host schedules); host_s is wall-clock diagnostics and
/// is excluded from every report for exactly that reason.
struct RepetitionRecord {
  double duration_s = 0.0;
  double pkg_j[2] = {0.0, 0.0};
  double dram_j[2] = {0.0, 0.0};
  double residual = 0.0;
  double host_s = 0.0;
  int cg_iters = 0;          // cg jobs only (serialized conditionally)
  std::size_t nnz = 0;       // cg jobs only: global pattern nonzeros
  /// cg jobs only: aggregate per-iteration halo traffic (send-side counts;
  /// zero when the partition has an empty halo or on the replay tier).
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;

  double total_j() const {
    return pkg_j[0] + pkg_j[1] + dram_j[0] + dram_j[1];
  }
  double total_pkg_j() const { return pkg_j[0] + pkg_j[1]; }
  double total_dram_j() const { return dram_j[0] + dram_j[1]; }
};

struct JobRecord {
  JobSpec spec;
  std::vector<RepetitionRecord> repetitions;

  std::string key() const { return spec.key(); }
};

/// Spec <-> JSON, the one codec shared by the store's records and the serve
/// wire protocol. spec_to_json emits a stable field order and writes
/// precision, matrix and precond only where JobSpec::canonical() does, so
/// journals of jobs without them stay byte-stable. spec_from_json accepts
/// any order, gives omitted fields the JobSpec defaults, and throws
/// InvalidArgument on unknown fields, bad tokens and non-integral or
/// out-of-range integers, so a typo fails loudly instead of silently
/// running (and keying) a different job.
json::Value spec_to_json(const JobSpec& spec);
JobSpec spec_from_json(const json::Value& value);

/// Record <-> JSON. to_json emits a stable field order; from_json accepts
/// any order and throws plin::Error on missing fields or kind mismatches.
json::Value to_json(const JobRecord& record);
JobRecord record_from_json(const json::Value& value);

}  // namespace plin::batch
