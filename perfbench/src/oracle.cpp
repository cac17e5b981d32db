#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "batch/spec.hpp"
#include "msr/rapl_msr.hpp"

namespace perfbench {
namespace {

template <typename T>
void mix_bits(std::string& bytes, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  bytes.append(raw, sizeof(T));
}

}  // namespace

std::uint64_t JobObservation::digest() const {
  std::string bytes;
  mix_bits(bytes, static_cast<std::int64_t>(cg_iters));
  mix_bits(bytes, static_cast<std::uint64_t>(nnz));
  mix_bits(bytes, static_cast<std::int64_t>(refine_iters));
  mix_bits(bytes, model_s);
  return plin::batch::fnv1a64(bytes);
}

std::string JobObservation::digest_hex() const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest()));
  return hex;
}

double JobObservation::rapl_resolution_j() const {
  const double power_w = model_s > 0.0 ? model_j / model_s : 0.0;
  return power_w * plin::msr::kCounterUpdatePeriodS +
         2.0 * rapl_counters * plin::msr::RaplUnits{}.energy_unit_j();
}

std::vector<JobObservation> observe(const std::string& label,
                                    const plin::monitor::JobResult& result) {
  std::vector<JobObservation> out;
  for (const plin::monitor::RepetitionResult& rep : result.repetitions) {
    JobObservation obs;
    obs.label = label;
    obs.is_cg = result.spec.algorithm == plin::perfsim::Algorithm::kCg;
    obs.mixed = result.spec.precision == plin::perfsim::Precision::kMixed;
    obs.residual = rep.residual;
    obs.fell_back = rep.fell_back;
    obs.cg_iters = rep.cg_iters;
    obs.nnz = rep.nnz;
    obs.refine_iters = rep.refine_iters;
    obs.model_s = rep.measurement.duration_s;
    obs.model_j = rep.measurement.total_j();
    obs.rapl_counters = 4 * static_cast<int>(rep.measurement.nodes.size());
    out.push_back(std::move(obs));
  }
  if (out.empty()) {
    out.push_back(observe_failure(label, result.spec, "no repetitions"));
  }
  return out;
}

JobObservation observe_failure(const std::string& label,
                               const plin::monitor::JobSpec& spec,
                               const std::string& error) {
  JobObservation obs;
  obs.label = label;
  obs.is_cg = spec.algorithm == plin::perfsim::Algorithm::kCg;
  obs.mixed = spec.precision == plin::perfsim::Precision::kMixed;
  obs.error = error.empty() ? "unknown failure" : error;
  return obs;
}

std::vector<std::string> check_job(const JobObservation& obs) {
  std::vector<std::string> problems;
  auto fail = [&](const std::string& what) {
    problems.push_back(obs.label + ": " + what);
  };
  if (!obs.error.empty()) {
    fail("threw: " + obs.error);
    return problems;
  }
  const double bound = obs.mixed ? kMixedResidualBound : kFp64ResidualBound;
  // Written so that a NaN residual fails too.
  if (!(obs.residual < bound)) {
    std::ostringstream what;
    what << "residual " << obs.residual << " not under " << bound;
    fail(what.str());
  }
  if (obs.is_cg && obs.cg_iters <= 0) fail("cg reported no iterations");
  if (obs.is_cg && obs.nnz == 0) fail("cg reported no nonzeros");
  if (obs.mixed && obs.fell_back) fail("mixed precision fell back to fp64");
  if (!(obs.model_s > 0.0)) fail("modelled duration is not positive");
  if (!(obs.model_j >= 0.0)) fail("modelled energy is negative or NaN");
  return problems;
}

std::vector<std::string> check_repeat(const JobObservation& first,
                                      const JobObservation& again) {
  const double resolution_j =
      std::max(first.rapl_resolution_j(), again.rapl_resolution_j());
  if (first.digest() == again.digest() &&
      std::abs(first.model_j - again.model_j) <= resolution_j) {
    return {};
  }
  std::ostringstream what;
  what.precision(17);
  what << again.label << ": digest " << again.digest_hex()
       << " differs from the run's first " << first.digest_hex() << " (";
  what << "iters " << first.cg_iters << "/" << again.cg_iters << ", nnz "
       << first.nnz << "/" << again.nnz << ", refine " << first.refine_iters
       << "/" << again.refine_iters << ", model_s " << first.model_s << "/"
       << again.model_s << ", model_j " << first.model_j << "/"
       << again.model_j << " within " << resolution_j << ")";
  return {what.str()};
}

std::vector<std::string> check_serve(
    const std::vector<ReplyObservation>& replies,
    const plin::serve::EngineStats& stats, std::size_t unique_keys,
    std::size_t* failed_replies) {
  std::vector<std::string> problems;
  std::size_t bad = 0;
  // The record each key's execution stored: the first record seen for the
  // key. Every later reply for that key (cached or coalesced) must carry
  // the identical bytes.
  std::map<std::string, std::uint64_t> first_record;
  for (const ReplyObservation& r : replies) {
    std::string why;
    if (!r.ok) {
      why = "reply not ok (status '" + r.status + "')";
    } else if (r.waited && r.status != "done" && r.status != "cached") {
      why = "waited reply has status '" + r.status + "'";
    } else if (!r.waited && r.status != "queued" && r.status != "cached" &&
               r.status != "coalesced") {
      why = "unwaited reply has status '" + r.status + "'";
    } else if (r.waited && r.record_hash == 0) {
      why = "completed reply carries no record";
    } else if (r.record_hash != 0) {
      const auto [it, inserted] = first_record.emplace(r.key, r.record_hash);
      if (!inserted && it->second != r.record_hash) {
        why = "reply record differs from the key's executed record";
      }
    }
    if (!why.empty()) {
      ++bad;
      if (problems.size() < 8) problems.push_back("key " + r.key + ": " + why);
    }
  }
  if (stats.rejected != 0) {
    problems.push_back("engine rejected " + std::to_string(stats.rejected) +
                       " submits");
  }
  if (stats.failed != 0) {
    problems.push_back("engine failed " + std::to_string(stats.failed) +
                       " jobs");
  }
  if (stats.executed != unique_keys) {
    problems.push_back("engine executed " + std::to_string(stats.executed) +
                       " jobs for " + std::to_string(unique_keys) +
                       " unique keys");
  }
  if (failed_replies != nullptr) *failed_replies = bad;
  return problems;
}

}  // namespace perfbench
