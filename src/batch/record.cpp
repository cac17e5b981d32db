#include "batch/record.hpp"

#include "support/error.hpp"

namespace plin::batch {

json::Value spec_to_json(const JobSpec& spec) {
  json::Value out = json::make_object();
  out.set("tier", to_string(spec.tier));
  out.set("machine", spec.machine);
  out.set("algorithm", algorithm_token(spec.algorithm));
  out.set("n", static_cast<double>(spec.n));
  out.set("ranks", spec.ranks);
  out.set("layout", layout_token(spec.layout));
  out.set("nb", static_cast<double>(spec.nb));
  out.set("seed", static_cast<double>(spec.seed));
  out.set("reps", spec.repetitions);
  out.set("iterations", spec.iterations);
  out.set("power_cap_w", spec.power_cap_w);
  // Written only for the non-default so records from fp64-only stores stay
  // byte-stable across versions (mirrors JobSpec::canonical()).
  if (spec.precision != perfsim::Precision::kFp64) {
    out.set("precision", precision_token(spec.precision));
  }
  // Same conditional rule for the sparse fields: only cg jobs carry them,
  // so dense-only stores stay byte-stable across versions.
  if (spec.algorithm == perfsim::Algorithm::kCg) {
    out.set("matrix", sparse::kind_token(spec.matrix));
    // The precond axis only for preconditioned cg jobs — plain-cg stores
    // stay byte-stable (mirrors JobSpec::canonical()).
    if (spec.precond != solvers::CgPrecond::kNone) {
      out.set("precond", solvers::precond_token(spec.precond));
    }
  }
  return out;
}

JobSpec spec_from_json(const json::Value& value) {
  JobSpec spec;
  for (const auto& [field, v] : value.as_object()) {
    if (field == "tier") {
      spec.tier = parse_tier(v.as_string());
    } else if (field == "machine") {
      spec.machine = v.as_string();
    } else if (field == "algorithm") {
      spec.algorithm = parse_algorithm_token(v.as_string());
    } else if (field == "n") {
      spec.n = v.as_integral<std::size_t>();
    } else if (field == "ranks") {
      spec.ranks = v.as_integral<int>();
    } else if (field == "layout") {
      spec.layout = parse_layout_token(v.as_string());
    } else if (field == "nb") {
      spec.nb = v.as_integral<std::size_t>();
    } else if (field == "seed") {
      spec.seed = v.as_integral<std::uint64_t>();
    } else if (field == "reps") {
      spec.repetitions = v.as_integral<int>();
    } else if (field == "iterations") {
      spec.iterations = v.as_integral<int>();
    } else if (field == "power_cap_w") {
      spec.power_cap_w = v.as_number();
    } else if (field == "precision") {
      spec.precision = parse_precision_token(v.as_string());
    } else if (field == "matrix") {
      spec.matrix = sparse::parse_kind_token(v.as_string());
    } else if (field == "precond") {
      spec.precond = solvers::parse_precond_token(v.as_string());
    } else {
      throw InvalidArgument("unknown spec field '" + field + "'");
    }
  }
  PLIN_CHECK_MSG(spec.n > 0, "spec needs n > 0");
  PLIN_CHECK_MSG(spec.ranks > 0, "spec needs ranks > 0");
  PLIN_CHECK_MSG(spec.repetitions > 0, "spec needs reps > 0");
  return spec;
}

json::Value to_json(const JobRecord& record) {
  const bool is_cg = record.spec.algorithm == perfsim::Algorithm::kCg;

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
  root.set("spec", spec_to_json(record.spec));
  root.set("reps", json::Value(std::move(reps)));
  return root;
}

JobRecord record_from_json(const json::Value& value) {
  JobRecord record;
  record.spec = spec_from_json(value.at("spec"));

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
