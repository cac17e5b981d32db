#include "batch/spec.hpp"

#include <cstdio>

#include "support/error.hpp"
#include "support/json.hpp"

namespace plin::batch {

const char* to_string(Tier tier) {
  return tier == Tier::kNumeric ? "numeric" : "replay";
}

Tier parse_tier(const std::string& token) {
  if (token == "numeric") return Tier::kNumeric;
  if (token == "replay") return Tier::kReplay;
  throw InvalidArgument("unknown tier (use numeric | replay): " + token);
}

const char* layout_token(hw::LoadLayout layout) {
  switch (layout) {
    case hw::LoadLayout::kFullLoad: return "full";
    case hw::LoadLayout::kHalfLoadOneSocket: return "half1";
    case hw::LoadLayout::kHalfLoadTwoSockets: return "half2";
  }
  return "full";
}

hw::LoadLayout parse_layout_token(const std::string& token) {
  if (token == "full") return hw::LoadLayout::kFullLoad;
  if (token == "half1") return hw::LoadLayout::kHalfLoadOneSocket;
  if (token == "half2") return hw::LoadLayout::kHalfLoadTwoSockets;
  throw InvalidArgument("unknown layout (use full | half1 | half2): " +
                        token);
}

const char* algorithm_token(perfsim::Algorithm algorithm) {
  switch (algorithm) {
    case perfsim::Algorithm::kIme: return "ime";
    case perfsim::Algorithm::kScalapack: return "scalapack";
    case perfsim::Algorithm::kJacobi: return "jacobi";
    case perfsim::Algorithm::kCg: return "cg";
  }
  return "ime";
}

perfsim::Algorithm parse_algorithm_token(const std::string& token) {
  if (token == "ime") return perfsim::Algorithm::kIme;
  if (token == "scalapack") return perfsim::Algorithm::kScalapack;
  if (token == "jacobi") return perfsim::Algorithm::kJacobi;
  if (token == "cg") return perfsim::Algorithm::kCg;
  throw InvalidArgument(
      "unknown algorithm (use ime | scalapack | jacobi | cg): " + token);
}

const char* precision_token(perfsim::Precision precision) {
  return precision == perfsim::Precision::kMixed ? "mixed" : "fp64";
}

perfsim::Precision parse_precision_token(const std::string& token) {
  if (token == "fp64") return perfsim::Precision::kFp64;
  if (token == "mixed") return perfsim::Precision::kMixed;
  throw InvalidArgument("unknown precision (use fp64 | mixed): " + token);
}

std::uint64_t checked_seed(long value) {
  constexpr long kSeedLimit = 1L << 53;
  if (value < 0 || value >= kSeedLimit) {
    throw InvalidArgument("seed must lie in [0, 2^53): " +
                          std::to_string(value));
  }
  return static_cast<std::uint64_t>(value);
}

std::string JobSpec::canonical() const {
  // Version tag first: bump it whenever the meaning of any field changes,
  // so stale store entries turn into cache misses instead of wrong reuse.
  std::string out = "plin-batch-v1";
  out += "|tier=";
  out += to_string(tier);
  out += "|machine=" + machine;
  out += "|algorithm=";
  out += algorithm_token(algorithm);
  out += "|n=" + std::to_string(n);
  out += "|ranks=" + std::to_string(ranks);
  out += "|layout=";
  out += layout_token(layout);
  out += "|nb=" + std::to_string(nb);
  out += "|seed=" + std::to_string(seed);
  out += "|reps=" + std::to_string(repetitions);
  out += "|iterations=" + std::to_string(iterations);
  out += "|cap_w=" + json::format_number(power_cap_w);
  // Appended only for the non-default so every pre-existing fp64 store key
  // (and its journaled results) stays valid.
  if (precision != perfsim::Precision::kFp64) {
    out += "|precision=";
    out += precision_token(precision);
  }
  // Same append-only rule: only cg jobs carry a matrix, so every
  // pre-existing dense key stays valid.
  if (algorithm == perfsim::Algorithm::kCg) {
    out += "|matrix=";
    out += sparse::kind_token(matrix);
    // And once more: the precond axis appears only for preconditioned cg
    // jobs, so every unpreconditioned key (dense or sparse) is untouched.
    if (precond != solvers::CgPrecond::kNone) {
      out += "|precond=";
      out += solvers::precond_token(precond);
    }
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string JobSpec::key() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(canonical())));
  return buf;
}

std::string JobSpec::describe() const {
  std::string out = std::string(algorithm_token(algorithm)) + " n=" +
                    std::to_string(n) + " ranks=" + std::to_string(ranks) +
                    " " + layout_token(layout) + " [" + to_string(tier) +
                    ", " + machine + "]";
  if (power_cap_w > 0.0) {
    out += " cap=" + json::format_number(power_cap_w) + "W";
  }
  if (precision != perfsim::Precision::kFp64) {
    out += " ";
    out += precision_token(precision);
  }
  if (algorithm == perfsim::Algorithm::kCg) {
    out += " ";
    out += sparse::kind_token(matrix);
    if (precond != solvers::CgPrecond::kNone) {
      out += " ";
      out += solvers::precond_token(precond);
    }
  }
  return out;
}

hw::MachineSpec machine_from_name(const std::string& name) {
  if (name == "marconi") return hw::marconi_a3();
  if (name == "epyc") return hw::epyc_cluster();
  if (name.rfind("mini:", 0) == 0) {
    const std::string body = name.substr(5);
    const std::size_t x = body.find('x');
    if (x != std::string::npos) {
      int nodes = 0;
      int cores = 0;
      try {
        nodes = std::stoi(body.substr(0, x));
        cores = std::stoi(body.substr(x + 1));
      } catch (const std::exception&) {
        nodes = 0;
      }
      if (nodes > 0 && cores > 0) return hw::mini_cluster(nodes, cores);
    }
  }
  throw InvalidArgument(
      "unknown machine (use marconi | epyc | mini:<nodes>x<cores>): " + name);
}

}  // namespace plin::batch
