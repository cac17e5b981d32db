#include "metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace perfbench {

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"job_p50_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"model_time_s", "sim_s"},
      {"model_energy_j", "J"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"sparse.generate_rows_s", "s"},
      {"sparse.generate_matrix_s", "s"},
      {"sparse.generate_mnnz_per_s", "Mnnz/s"},
      {"sparse.spmv_gbps", "GB/s"},
      {"sparse.spmv_bytes_per_flop", "B/flop"},
      {"sparse.stream_gbps", "GB/s"},
      {"sparse.spmv_frac_stream", "ratio"},
      {"linalg.dgemm_gflops", "GFLOP/s"},
      {"linalg.sgemm_gflops", "GFLOP/s"},
      {"linalg.dger_gflops", "GFLOP/s"},
      {"linalg.dtrsm_gflops", "GFLOP/s"},
      {"linalg.fma_peak_gflops", "GFLOP/s"},
      {"linalg.dgemm_frac_peak", "ratio"},
      {"xmpi.spawn_us_per_rank", "us"},
      {"xmpi.allreduce_small_us", "us"},
      {"xmpi.halo_exchange_us", "us"},
      {"xmpi.bcast_panel_us", "us"},
      {"xmpi.maxloc_us", "us"},
      {"xmpi.parks_per_job", "count"},
      {"solvers.cg_solve_s", "s"},
      {"solvers.cg_iters", "count"},
      {"solvers.cg_host_us_per_iter", "us"},
      {"solvers.gepp_solve_s", "s"},
      {"solvers.mixed_solve_s", "s"},
      {"solvers.mixed_refine_iters", "count"},
      {"solvers.ime_solve_s", "s"},
      {"monitor.self_s", "s"},
      {"perfsim.predict_us", "us"},
      {"batch.execute_job_ms", "ms"},
      {"batch.store_put_us", "us"},
      {"batch.store_get_us", "us"},
      {"batch.record_bytes", "bytes"},
      {"serve.hit_latency_p50_ms", "ms"},
      {"serve.cold_latency_p50_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.executed_per_unique", "ratio"},
      {"serve.coalesced", "count"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> samples) {
  PLIN_CHECK_MSG(!samples.empty(), "median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double q, std::size_t min_beyond) {
  PLIN_CHECK_MSG(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

void MetricSet::set(const std::string& name, double value) {
  const bool declared =
      std::any_of(declared_.begin(), declared_.end(),
                  [&](const MetricDecl& d) { return name == d.name; });
  PLIN_CHECK_MSG(declared, "metric '" + name + "' is not declared");
  for (const auto& [have, _] : values_) {
    PLIN_CHECK_MSG(have != name, "metric '" + name + "' set twice");
  }
  values_.emplace_back(name, value);
}

std::vector<std::string> MetricSet::missing() const {
  std::vector<std::string> out;
  for (const MetricDecl& d : declared_) {
    const bool have =
        std::any_of(values_.begin(), values_.end(),
                    [&](const auto& kv) { return kv.first == d.name; });
    if (!have) out.emplace_back(d.name);
  }
  return out;
}

plin::json::Value MetricSet::to_json() const {
  const std::vector<std::string> absent = missing();
  PLIN_CHECK_MSG(absent.empty(), "metric '" +
                                     (absent.empty() ? "" : absent.front()) +
                                     "' was declared but not measured");
  plin::json::Value out = plin::json::make_object();
  for (const MetricDecl& d : declared_) {
    const auto it =
        std::find_if(values_.begin(), values_.end(),
                     [&](const auto& kv) { return kv.first == d.name; });
    PLIN_CHECK_MSG(std::isfinite(it->second),
                   std::string("metric '") + d.name + "' is not finite");
    plin::json::Value entry = plin::json::make_object();
    entry.set("value", it->second);
    entry.set("unit", d.unit);
    out.set(d.name, std::move(entry));
  }
  return out;
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const MetricSet& metrics) {
  plin::json::Value out = plin::json::make_object();
  out.set("correct", correct);
  out.set("attempted", static_cast<double>(attempted));
  out.set("failed", static_cast<double>(failed));
  out.set("metrics", metrics.to_json());
  return plin::json::serialize(out);
}

}  // namespace perfbench
