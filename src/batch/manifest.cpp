#include "batch/manifest.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/kvfile.hpp"

namespace plin::batch {
namespace {

[[noreturn]] void fail(const KvLine& line, const std::string& what) {
  throw InvalidArgument("manifest line " + std::to_string(line.line_no) +
                        ": " + what);
}

const std::string& single_value(const KvLine& line) {
  if (line.values.size() != 1) {
    fail(line, "key '" + line.key + "' takes exactly one value");
  }
  return line.values[0];
}

long parse_long(const KvLine& line, const std::string& token) {
  try {
    std::size_t used = 0;
    const long value = std::stol(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(line, "not an integer: " + token);
  }
}

double parse_num(const KvLine& line, const std::string& token) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(line, "not a number: " + token);
  }
}

/// Parses every value of a grid line with `parse`. A repeated value would
/// expand its jobs twice and print their rows twice, so it is rejected.
template <typename T, typename Parse>
std::vector<T> parse_axis(const KvLine& line, Parse&& parse) {
  std::vector<T> values;
  for (std::size_t i = 1; i < line.values.size(); ++i) {
    const std::string& token = line.values[i];
    const T value = parse(token);
    if (std::find(values.begin(), values.end(), value) != values.end()) {
      fail(line, "grid " + line.values[0] + " repeats the value " + token);
    }
    values.push_back(value);
  }
  return values;
}

long parse_positive(const KvLine& line, const std::string& token,
                    const char* what) {
  const long v = parse_long(line, token);
  if (v <= 0) fail(line, std::string(what) + " must be positive: " + token);
  return v;
}

void parse_grid(CampaignManifest& manifest, const KvLine& line) {
  if (line.values.size() < 2) {
    fail(line, "grid lines need an axis name and at least one value");
  }
  const std::string& axis = line.values[0];
  if (axis == "algorithm") {
    manifest.algorithms =
        parse_axis<perfsim::Algorithm>(line, parse_algorithm_token);
  } else if (axis == "n") {
    manifest.sizes = parse_axis<std::size_t>(line, [&](const std::string& t) {
      return static_cast<std::size_t>(parse_positive(line, t, "n"));
    });
  } else if (axis == "ranks") {
    manifest.rank_counts = parse_axis<int>(line, [&](const std::string& t) {
      return static_cast<int>(parse_positive(line, t, "ranks"));
    });
  } else if (axis == "layout") {
    manifest.layouts = parse_axis<hw::LoadLayout>(line, parse_layout_token);
  } else if (axis == "nb") {
    manifest.blocks = parse_axis<std::size_t>(line, [&](const std::string& t) {
      return static_cast<std::size_t>(parse_positive(line, t, "nb"));
    });
  } else if (axis == "seed") {
    manifest.seeds = parse_axis<std::uint64_t>(line, [&](const std::string& t) {
      const long v = parse_long(line, t);
      try {
        return checked_seed(v);
      } catch (const InvalidArgument& e) {
        fail(line, e.what());
      }
    });
  } else if (axis == "power_cap_w") {
    manifest.power_caps_w = parse_axis<double>(line, [&](const std::string& t) {
      const double v = parse_num(line, t);
      if (v < 0.0) fail(line, "power_cap_w must be >= 0: " + t);
      return v;
    });
  } else if (axis == "precision") {
    manifest.precisions =
        parse_axis<perfsim::Precision>(line, parse_precision_token);
  } else if (axis == "matrix") {
    manifest.matrices =
        parse_axis<sparse::SparseKind>(line, sparse::parse_kind_token);
  } else if (axis == "precond") {
    manifest.preconds =
        parse_axis<solvers::CgPrecond>(line, solvers::parse_precond_token);
  } else {
    fail(line, "unknown grid axis '" + axis +
                   "' (algorithm | n | ranks | layout | nb | seed | "
                   "power_cap_w | precision | matrix | precond)");
  }
}

}  // namespace

std::vector<JobSpec> CampaignManifest::expand() const {
  std::vector<JobSpec> specs;
  specs.reserve(job_count());
  for (const perfsim::Algorithm algorithm : algorithms) {
    for (const std::size_t n : sizes) {
      for (const int ranks : rank_counts) {
        for (const hw::LoadLayout layout : layouts) {
          for (const std::size_t nb : blocks) {
            for (const std::uint64_t seed : seeds) {
              for (const double cap_w : power_caps_w) {
                for (const perfsim::Precision precision : precisions) {
                  // Mixed precision is a GEPP variant; on a grid that also
                  // spans other algorithms, the mixed point only exists for
                  // scalapack (the cross product would otherwise demand an
                  // fp32 IMe/Jacobi that has no implementation or meaning).
                  if (precision != perfsim::Precision::kFp64 &&
                      algorithm != perfsim::Algorithm::kScalapack) {
                    continue;
                  }
                  for (const sparse::SparseKind matrix : matrices) {
                    // The matrix axis is a cg concept; on a mixed grid the
                    // other algorithms take exactly one point regardless of
                    // how many families the axis lists.
                    if (matrix != sparse::SparseKind::kStencil5 &&
                        algorithm != perfsim::Algorithm::kCg) {
                      continue;
                    }
                    for (const solvers::CgPrecond precond : preconds) {
                      // Same rule for the precond axis: preconditioned
                      // points exist for cg only.
                      if (precond != solvers::CgPrecond::kNone &&
                          algorithm != perfsim::Algorithm::kCg) {
                        continue;
                      }
                      JobSpec spec;
                      spec.tier = tier;
                      spec.machine = machine;
                      spec.algorithm = algorithm;
                      spec.n = n;
                      spec.ranks = ranks;
                      spec.layout = layout;
                      spec.nb = nb;
                      spec.seed = seed;
                      spec.repetitions = repetitions;
                      spec.iterations = iterations;
                      spec.power_cap_w = cap_w;
                      spec.precision = precision;
                      spec.matrix = matrix;
                      spec.precond = precond;
                      specs.push_back(std::move(spec));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

std::size_t CampaignManifest::job_count() const {
  // Mirrors the skips in expand(): non-fp64 points exist for scalapack
  // only, non-default matrices for cg only.
  std::size_t fp64_points = 0;
  for (const perfsim::Precision precision : precisions) {
    if (precision == perfsim::Precision::kFp64) ++fp64_points;
  }
  std::size_t default_matrix_points = 0;
  for (const sparse::SparseKind matrix : matrices) {
    if (matrix == sparse::SparseKind::kStencil5) ++default_matrix_points;
  }
  std::size_t default_precond_points = 0;
  for (const solvers::CgPrecond precond : preconds) {
    if (precond == solvers::CgPrecond::kNone) ++default_precond_points;
  }
  std::size_t algorithm_points = 0;
  for (const perfsim::Algorithm algorithm : algorithms) {
    const std::size_t precision_points =
        algorithm == perfsim::Algorithm::kScalapack ? precisions.size()
                                                    : fp64_points;
    const bool is_cg = algorithm == perfsim::Algorithm::kCg;
    const std::size_t matrix_points =
        is_cg ? matrices.size() : default_matrix_points;
    const std::size_t precond_points =
        is_cg ? preconds.size() : default_precond_points;
    algorithm_points += precision_points * matrix_points * precond_points;
  }
  return algorithm_points * sizes.size() * rank_counts.size() *
         layouts.size() * blocks.size() * seeds.size() * power_caps_w.size();
}

CampaignManifest parse_manifest(const std::string& text) {
  CampaignManifest manifest;
  for (const KvLine& line : parse_kv_text(text)) {
    if (line.key == "campaign") {
      manifest.name = single_value(line);
    } else if (line.key == "tier") {
      manifest.tier = parse_tier(single_value(line));
    } else if (line.key == "machine") {
      // Resolve eagerly so typos fail at parse time, not mid-campaign.
      (void)machine_from_name(single_value(line));
      manifest.machine = single_value(line);
    } else if (line.key == "reps") {
      const long v = parse_long(line, single_value(line));
      if (v <= 0) fail(line, "reps must be positive");
      manifest.repetitions = static_cast<int>(v);
    } else if (line.key == "workers") {
      const long v = parse_long(line, single_value(line));
      if (v <= 0) fail(line, "workers must be positive");
      manifest.workers = static_cast<int>(v);
    } else if (line.key == "retries") {
      const long v = parse_long(line, single_value(line));
      if (v < 0) fail(line, "retries must be >= 0");
      manifest.retries = static_cast<int>(v);
    } else if (line.key == "timeout_s") {
      const double v = parse_num(line, single_value(line));
      if (v < 0.0) fail(line, "timeout_s must be >= 0");
      manifest.timeout_s = v;
    } else if (line.key == "iterations") {
      const long v = parse_long(line, single_value(line));
      if (v <= 0) fail(line, "iterations must be positive");
      manifest.iterations = static_cast<int>(v);
    } else if (line.key == "grid") {
      parse_grid(manifest, line);
    } else {
      fail(line, "unknown key '" + line.key +
                     "' (campaign | tier | machine | reps | workers | "
                     "retries | timeout_s | iterations | grid)");
    }
  }

  if (manifest.tier == Tier::kReplay) {
    for (const double cap : manifest.power_caps_w) {
      if (cap > 0.0) {
        throw InvalidArgument(
            "manifest: power caps are numeric-tier only (perfsim does not "
            "model capped frequency scaling)");
      }
    }
  }
  PLIN_CHECK_MSG(manifest.job_count() > 0, "manifest: empty grid");
  PLIN_CHECK_MSG(manifest.job_count() <= 100000,
                 "manifest: grid expands to more than 100000 jobs");
  return manifest;
}

CampaignManifest load_manifest_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot read manifest file: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_manifest(buffer.str());
}

}  // namespace plin::batch
