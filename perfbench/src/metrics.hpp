// Metric declarations, the percentile helper and the result line.
//
// Every metric the benchmark can print is declared here once, with its
// unit; BENCHMARK.json declares the same names (the self-test holds the
// two lists equal). A run prints exactly the end-to-end set (untraced) or
// exactly the per-layer set (traced) — MetricSet::to_json refuses a result
// that misses or invents a name, so a workload cannot silently drop one.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0).
const std::vector<MetricDecl>& end_to_end_metrics();

/// Printed by traced runs (--trace 1).
const std::vector<MetricDecl>& per_layer_metrics();

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(std::string_view name);

/// Median (mean of the two middle samples for an even count); requires a
/// non-empty sample.
double median(std::vector<double> samples);

/// Nearest-rank percentile q in (0, 1) — but only when at least
/// `min_beyond` samples lie strictly beyond its rank, so a tail figure
/// always rests on enough observations (p99 needs >= 1000 samples).
std::optional<double> supported_percentile(std::vector<double> samples,
                                           double q,
                                           std::size_t min_beyond = 10);

/// Metric values of one run, checked against a declared list.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDecl>& declared)
      : declared_(declared) {}

  /// Throws plin::InvalidArgument for an undeclared name or a repeat.
  void set(const std::string& name, double value);

  /// Names declared but not set (empty once the run is complete).
  std::vector<std::string> missing() const;

  /// {"name": {"value": v, "unit": "u"}, ...}; throws unless complete and
  /// every value is finite.
  plin::json::Value to_json() const;

 private:
  const std::vector<MetricDecl>& declared_;
  std::vector<std::pair<std::string, double>> values_;
};

/// The contract's last stdout line.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const MetricSet& metrics);

}  // namespace perfbench
