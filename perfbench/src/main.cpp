// plbench — runs one benchmark workload and prints its metrics.
//
//   plbench --workload <cg_memory|dense_lu|serve_small> --seed <n>
//           --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) the per-layer metrics. Context lines (one JSON object each)
// come first; the last stdout line is the result object. A run whose
// outputs fail the oracle prints "correct": false and exits 1. The
// benchmark measures powerlin's defaults, so it refuses to run while any
// PLIN_* tuning variable is set.
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "layers.hpp"
#include "linalg/kernel_config.hpp"
#include "metrics.hpp"
#include "sparse/spmv_kernel.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "workloads.hpp"
#include "xmpi/runtime.hpp"

extern char** environ;

namespace {

namespace json = plin::json;
using namespace perfbench;

/// Every PLIN_* variable in the environment.
std::vector<std::string> plin_knobs() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PLIN_", 5) == 0) out.emplace_back(*e);
  }
  return out;
}

/// The defaults being measured, recorded beside the numbers.
json::Value context(const RunOptions& options) {
  plin::xmpi::RunConfig config;
  config.machine = numeric_machine();
  config.placement = plin::hw::make_placement(
      16, plin::hw::LoadLayout::kFullLoad, config.machine);
  const plin::xmpi::RunResult probe =
      plin::xmpi::Runtime::run(config, [](plin::xmpi::Comm&) {});
  const plin::linalg::KernelConfig& kernels =
      plin::linalg::active_kernel_config();
  json::Value c = json::make_object();
  c.set("workload", options.workload);
  c.set("seed", static_cast<double>(options.seed));
  c.set("seconds", options.seconds);
  c.set("trace", options.trace);
  c.set("build_type", PERFBENCH_BUILD_TYPE);
  c.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  c.set("llc_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  c.set("spmv_kernel", plin::sparse::kernel_token(
                           plin::sparse::active_spmv_config().kernel));
  c.set("simd_isa", plin::sparse::simd_isa());
  c.set("cg_path", "fused (default)");
  c.set("linalg_path", kernels.blocked ? "blocked" : "naive");
  c.set("gemm_tile", std::to_string(kernels.mr) + "x" +
                         std::to_string(kernels.nr));
  c.set("xmpi_executor", "worker pool (default)");
  c.set("xmpi_workers", static_cast<double>(probe.host_workers));
  c.set("xmpi_collectives", "tree (default)");
  json::Value line = json::make_object();
  line.set("context", std::move(c));
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void set_end_to_end(const WorkloadRun& run, MetricSet& metrics,
                    json::Value& info) {
  const TimedPhase& t = run.untraced;
  // The job mixes hold too few jobs for any tail: their per-job figure
  // stands in for both latencies (README.md).
  const bool requests = !t.window_p99_s.empty();
  metrics.set("setup_s", median(run.setup_s));
  metrics.set("jobs_per_s", median(t.window_rate));
  metrics.set("job_p50_s", t.job_p50_s);
  metrics.set("latency_p50_ms",
              (requests ? median(t.latency_s) : t.job_p50_s) * 1e3);
  metrics.set("latency_p99_ms",
              (requests ? median(t.window_p99_s) : t.job_p50_s) * 1e3);
  metrics.set("model_time_s", run.model_time_s);
  metrics.set("model_energy_j", run.model_energy_j);
  metrics.set("peak_rss_mb", peak_rss_mb());
  json::Value samples = json::make_object();
  samples.set("setups", static_cast<double>(run.setup_s.size()));
  samples.set("operations", static_cast<double>(t.ops));
  samples.set("requests_that_executed", static_cast<double>(t.exec_s.size()));
  samples.set("windows", static_cast<double>(t.window_rate.size()));
  info.set("samples", std::move(samples));
  info.set("latency_p99_ms_is_percentile", requests ? 99 : 50);
  // Wall-clock context: what a user would have waited.
  json::Array setups;
  for (double s : run.setup_s) setups.emplace_back(s);
  info.set("setup_samples_s", json::Value(std::move(setups)));
  info.set("phase_wall_s", t.wall_s);
  info.set("phase_cpu_s", t.cpu_s);
  if (!t.job_wall_s.empty()) info.set("job_wall_p50_s", median(t.job_wall_s));
}

int run(const RunOptions& options) {
  std::cout << json::serialize(context(options)) << "\n";
  Tracer tracer(options.trace);
  WorkloadRun run = run_workload(options, tracer);
  Outcome& outcome = run.outcome;

  json::Value info = json::make_object();
  MetricSet metrics(options.trace ? per_layer_metrics()
                                  : end_to_end_metrics());
  if (options.trace) {
    measure_layers(options, tracer, metrics, outcome);
    metrics.set("bench.trace_overhead_frac",
                run.traced.cpu_per_op() / run.untraced.cpu_per_op() - 1.0);
    const std::string path = options.scratch + "/trace-" + options.workload +
                             ".json";
    tracer.write(path);
    info.set("trace_file", path);
  } else {
    set_end_to_end(run, metrics, info);
  }
  json::Value digests = json::make_object();
  for (const auto& [label, digest] : run.digests) digests.set(label, digest);
  info.set("digests", std::move(digests));
  json::Array problems;
  for (const std::string& p : outcome.problems) problems.emplace_back(p);
  info.set("problems", json::Value(std::move(problems)));
  json::Value line = json::make_object();
  line.set("info", std::move(info));
  std::cout << json::serialize(line) << "\n";
  std::cout << result_line(outcome.correct(), outcome.attempted,
                           outcome.failed, metrics)
            << std::endl;
  return outcome.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const plin::CliArgs args(argc, argv);
  try {
    args.require_known({"workload", "seed", "seconds", "trace", "scratch"});
    RunOptions options;
    options.workload = args.get("workload", "");
    options.seed = std::stoull(args.get("seed", "1"));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.scratch = args.get("scratch", ".bench_build/scratch");
    if (!known_workload(options.workload)) {
      std::cerr << "plbench: unknown workload '" << options.workload
                << "' (cg_memory | dense_lu | serve_small)\n";
      return 2;
    }
    if (!(options.seconds > 0.0)) {
      std::cerr << "plbench: --seconds must be positive\n";
      return 2;
    }
    if (const std::vector<std::string> knobs = plin_knobs(); !knobs.empty()) {
      std::cerr << "plbench: refusing to run with " << knobs.front()
                << " set: the benchmark measures powerlin's defaults\n";
      return 2;
    }
    options.scratch += "/" + options.workload + "-" + std::to_string(getpid());
    std::filesystem::create_directories(options.scratch);
    const int status = run(options);
    // Keep only a trace file; stores and sockets go with the run.
    namespace fs = std::filesystem;
    for (const auto& entry : fs::directory_iterator(options.scratch)) {
      if (entry.is_directory()) fs::remove_all(entry.path());
    }
    if (fs::is_empty(options.scratch)) fs::remove(options.scratch);
    return status;
  } catch (const std::exception& e) {
    std::cerr << "plbench: " << e.what() << "\n";
    return 1;
  }
}
