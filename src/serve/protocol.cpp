#include "serve/protocol.hpp"

#include <utility>

#include "support/error.hpp"

namespace plin::serve {

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kSubmit: return "submit";
    case Op::kWait: return "wait";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
  }
  return "?";
}

namespace {

Op parse_op(const std::string& token) {
  if (token == "ping") return Op::kPing;
  if (token == "submit") return Op::kSubmit;
  if (token == "wait") return Op::kWait;
  if (token == "stats") return Op::kStats;
  if (token == "drain") return Op::kDrain;
  throw InvalidArgument("serve: unknown op '" + token +
                        "' (ping | submit | wait | stats | drain)");
}

}  // namespace

batch::JobSpec spec_from_json(const json::Value& value) {
  batch::JobSpec spec;
  for (const auto& [field, v] : value.as_object()) {
    if (field == "tier") {
      spec.tier = batch::parse_tier(v.as_string());
    } else if (field == "machine") {
      spec.machine = v.as_string();
    } else if (field == "algorithm") {
      spec.algorithm = batch::parse_algorithm_token(v.as_string());
    } else if (field == "n") {
      spec.n = v.as_integral<std::size_t>();
    } else if (field == "ranks") {
      spec.ranks = v.as_integral<int>();
    } else if (field == "layout") {
      spec.layout = batch::parse_layout_token(v.as_string());
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
      spec.precision = batch::parse_precision_token(v.as_string());
    } else {
      throw InvalidArgument("serve: unknown spec field '" + field + "'");
    }
  }
  PLIN_CHECK_MSG(spec.n > 0, "serve: spec needs n > 0");
  PLIN_CHECK_MSG(spec.ranks > 0, "serve: spec needs ranks > 0");
  PLIN_CHECK_MSG(spec.repetitions > 0, "serve: spec needs reps > 0");
  return spec;
}

json::Value spec_to_json(const batch::JobSpec& spec) {
  json::Value out = json::make_object();
  out.set("tier", batch::to_string(spec.tier));
  out.set("machine", spec.machine);
  out.set("algorithm", batch::algorithm_token(spec.algorithm));
  out.set("n", static_cast<double>(spec.n));
  out.set("ranks", spec.ranks);
  out.set("layout", batch::layout_token(spec.layout));
  out.set("nb", static_cast<double>(spec.nb));
  out.set("seed", static_cast<double>(spec.seed));
  out.set("reps", spec.repetitions);
  out.set("iterations", spec.iterations);
  out.set("power_cap_w", spec.power_cap_w);
  out.set("precision", batch::precision_token(spec.precision));
  return out;
}

Request parse_request(const std::string& line) {
  const json::Value root = json::parse(line);
  Request request;
  request.op = parse_op(root.at("op").as_string());
  if (const json::Value* tag = root.find("tag")) {
    request.tag = tag->as_string();
  }
  switch (request.op) {
    case Op::kSubmit: {
      if (const json::Value* tenant = root.find("tenant")) {
        request.tenant = tenant->as_string();
        PLIN_CHECK_MSG(!request.tenant.empty(),
                       "serve: tenant must be non-empty");
      }
      if (const json::Value* wait = root.find("wait")) {
        request.wait = wait->as_bool();
      }
      request.spec = spec_from_json(root.at("spec"));
      break;
    }
    case Op::kWait: {
      request.key = root.at("key").as_string();
      PLIN_CHECK_MSG(request.key.size() == 16,
                     "serve: key must be 16 hex digits (JobSpec::key)");
      break;
    }
    case Op::kPing:
    case Op::kStats:
    case Op::kDrain:
      break;
  }
  return request;
}

json::Value make_response(const Request& request, bool ok) {
  json::Value out = json::make_object();
  out.set("ok", ok);
  out.set("op", to_string(request.op));
  if (!request.tag.empty()) out.set("tag", request.tag);
  return out;
}

json::Value error_response(const std::string& message,
                           const std::string& tag) {
  json::Value out = json::make_object();
  out.set("ok", false);
  out.set("error", message);
  if (!tag.empty()) out.set("tag", tag);
  return out;
}

}  // namespace plin::serve
