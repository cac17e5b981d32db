#include "batch/record.hpp"

#include "support/error.hpp"

namespace plin::batch {

json::Value to_json(const JobRecord& record) {
  json::Value spec = json::make_object();
  spec.set("tier", to_string(record.spec.tier));
  spec.set("machine", record.spec.machine);
  spec.set("algorithm", algorithm_token(record.spec.algorithm));
  spec.set("n", static_cast<double>(record.spec.n));
  spec.set("ranks", record.spec.ranks);
  spec.set("layout", layout_token(record.spec.layout));
  spec.set("nb", static_cast<double>(record.spec.nb));
  spec.set("seed", static_cast<double>(record.spec.seed));
  spec.set("reps", record.spec.repetitions);
  spec.set("iterations", record.spec.iterations);
  spec.set("power_cap_w", record.spec.power_cap_w);
  // Written only for the non-default so records from fp64-only stores stay
  // byte-stable across versions (mirrors JobSpec::canonical()).
  if (record.spec.precision != perfsim::Precision::kFp64) {
    spec.set("precision", precision_token(record.spec.precision));
  }
  // Same conditional rule for the sparse fields: only cg jobs carry them,
  // so dense-only stores stay byte-stable across versions.
  const bool is_cg = record.spec.algorithm == perfsim::Algorithm::kCg;
  if (is_cg) {
    spec.set("matrix", sparse::kind_token(record.spec.matrix));
    // The precond axis only for preconditioned cg jobs — plain-cg stores
    // stay byte-stable (mirrors JobSpec::canonical()).
    if (record.spec.precond != solvers::CgPrecond::kNone) {
      spec.set("precond", solvers::precond_token(record.spec.precond));
    }
  }

  json::Array reps;
  reps.reserve(record.repetitions.size());
  for (const RepetitionRecord& rep : record.repetitions) {
    json::Value r = json::make_object();
    r.set("duration_s", rep.duration_s);
    r.set("pkg0_j", rep.pkg_j[0]);
    r.set("pkg1_j", rep.pkg_j[1]);
    r.set("dram0_j", rep.dram_j[0]);
    r.set("dram1_j", rep.dram_j[1]);
    r.set("residual", rep.residual);
    r.set("host_s", rep.host_s);
    if (is_cg) {
      r.set("cg_iters", rep.cg_iters);
      r.set("nnz", static_cast<double>(rep.nnz));
      r.set("halo_msgs", static_cast<double>(rep.halo_messages));
      r.set("halo_bytes", static_cast<double>(rep.halo_bytes));
    }
    reps.push_back(std::move(r));
  }

  json::Value root = json::make_object();
  root.set("key", record.key());
  root.set("spec", std::move(spec));
  root.set("reps", json::Value(std::move(reps)));
  return root;
}

JobRecord record_from_json(const json::Value& value) {
  JobRecord record;
  const json::Value& spec = value.at("spec");
  record.spec.tier = parse_tier(spec.at("tier").as_string());
  record.spec.machine = spec.at("machine").as_string();
  record.spec.algorithm =
      parse_algorithm_token(spec.at("algorithm").as_string());
  record.spec.n = spec.at("n").as_integral<std::size_t>();
  record.spec.ranks = spec.at("ranks").as_integral<int>();
  record.spec.layout = parse_layout_token(spec.at("layout").as_string());
  record.spec.nb = spec.at("nb").as_integral<std::size_t>();
  record.spec.seed = spec.at("seed").as_integral<std::uint64_t>();
  record.spec.repetitions = spec.at("reps").as_integral<int>();
  record.spec.iterations = spec.at("iterations").as_integral<int>();
  record.spec.power_cap_w = spec.at("power_cap_w").as_number();
  if (const json::Value* precision = spec.find("precision")) {
    record.spec.precision = parse_precision_token(precision->as_string());
  }
  if (const json::Value* matrix = spec.find("matrix")) {
    record.spec.matrix = sparse::parse_kind_token(matrix->as_string());
  }
  if (const json::Value* precond = spec.find("precond")) {
    record.spec.precond = solvers::parse_precond_token(precond->as_string());
  }

  for (const json::Value& r : value.at("reps").as_array()) {
    RepetitionRecord rep;
    rep.duration_s = r.at("duration_s").as_number();
    rep.pkg_j[0] = r.at("pkg0_j").as_number();
    rep.pkg_j[1] = r.at("pkg1_j").as_number();
    rep.dram_j[0] = r.at("dram0_j").as_number();
    rep.dram_j[1] = r.at("dram1_j").as_number();
    rep.residual = r.at("residual").as_number();
    rep.host_s = r.at("host_s").as_number();
    if (const json::Value* iters = r.find("cg_iters")) {
      rep.cg_iters = iters->as_integral<int>();
    }
    if (const json::Value* nnz = r.find("nnz")) {
      rep.nnz = nnz->as_integral<std::size_t>();
    }
    if (const json::Value* msgs = r.find("halo_msgs")) {
      rep.halo_messages = msgs->as_integral<std::uint64_t>();
    }
    if (const json::Value* bytes = r.find("halo_bytes")) {
      rep.halo_bytes = bytes->as_integral<std::uint64_t>();
    }
    record.repetitions.push_back(rep);
  }

  // The stored key column is advisory; the spec is authoritative. A
  // mismatch means the record was written by an incompatible version.
  const std::string stored_key = value.at("key").as_string();
  PLIN_CHECK_MSG(stored_key == record.key(),
                 "store record key does not match its spec (stale format?)");
  return record;
}

}  // namespace plin::batch
