// powerlin_run — command-line driver for energy profiling runs.
//
//   powerlin_run --tier numeric --algorithm ime --n 512 --ranks 16
//   powerlin_run --tier replay  --algorithm scalapack --n 34560 --ranks 1296
//   powerlin_run --campaign manifests/ci_smoke.plc --store campaign_store
//
// Run `powerlin_run --help` for the full flag reference. Unknown flags are
// rejected (a mistyped manifest or flag fails loudly instead of being
// silently ignored).
#include <iostream>
#include <utility>

#include "batch/spec.hpp"
#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "monitor/campaign.hpp"
#include "perfsim/simulator.hpp"
#include "serve/campaign.hpp"
#include "solvers/jacobi/jacobi.hpp"
#include "sparse/generate.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "support/version.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

constexpr const char* kUsage = R"(powerlin_run — energy profiling driver

One-off modes:
  --tier       numeric (execute on xmpi, default) | replay (perfsim)
  --algorithm  ime (default) | scalapack | jacobi | cg
  --n          matrix dimension (default 512 numeric / 17280 replay)
  --ranks      MPI ranks (default 16 numeric / 576 replay)
  --layout     full (default) | half1 | half2
  --nb         ScaLAPACK block size (default 64 replay; 32 numeric)
  --seed       generator seed in [0, 2^53) (default 1)
  --reps       numeric repetitions (default 1)
  --precision  fp64 (default) | mixed (fp32 factorization + fp64 iterative
               refinement; scalapack only — docs/mixed_precision.md; the
               replay tier prices it with the refinement-iteration model)
  --tol        Jacobi tolerance (default 1e-12); CG tolerance (default 1e-11)
  --dominance  Jacobi diagonal dominance (default 0)
  --iterations Jacobi replay sweep count (default 100)
  --matrix     CG sparse family: stencil5 (default) | stencil9 | stencil27 |
               banded | random | blockdiag (docs/sparse.md)
  --precond    CG preconditioner: none (default) | jacobi (diagonal)
  --out        directory for per-processor monitor files (numeric)
  --trace-dir  archive the span-trace bundle of the run into this directory
               (numeric tier; first repetition only — docs/tracing.md)

Campaign mode (batch orchestrator, docs/campaign.md):
  --campaign   path to a campaign manifest; runs the whole grid on the
               serve engine's worker pool with the content-addressed result
               store, skipping every job already journaled (resume = re-run
               same command)
  --store      result store directory (default campaign_store)
  --workers    override the manifest's host worker count
  --max-jobs   execute at most N jobs this invocation, then stop (the
               deterministic interrupt used to test resumability)
  --trace-dir  archive one span-trace bundle per numeric job under
               <trace-dir>/<job key>/ (docs/tracing.md)

  --version    print the release version and exit
  --help       this text
)";

/// Every numeric flag (true: a real number, false: an integer). main parses
/// each one present up front, so a malformed value fails even in a mode
/// that never reads it.
constexpr std::pair<const char*, bool> kNumericFlags[] = {
    {"n", false},       {"ranks", false},      {"nb", false},
    {"seed", false},    {"reps", false},       {"iterations", false},
    {"workers", false}, {"max-jobs", false},   {"tol", true},
    {"dominance", true}};

hw::LoadLayout parse_layout(const std::string& name) {
  return batch::parse_layout_token(name);
}

int run_replay(const CliArgs& args) {
  const hw::MachineSpec machine = hw::marconi_a3();
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 17280));
  const int ranks = static_cast<int>(args.get_int("ranks", 576));
  const hw::LoadLayout layout = parse_layout(args.get("layout", "full"));
  const std::size_t nb = static_cast<std::size_t>(args.get_int("nb", 64));
  perfsim::Workload workload;
  workload.n = n;
  workload.nb = nb;
  workload.algorithm =
      batch::parse_algorithm_token(args.get("algorithm", "ime"));
  if (workload.algorithm == perfsim::Algorithm::kJacobi) {
    workload.iterations = static_cast<int>(args.get_int("iterations", 100));
  } else if (workload.algorithm == perfsim::Algorithm::kCg) {
    workload.matrix =
        sparse::parse_kind_token(args.get("matrix", "stencil5"));
    workload.tolerance = args.get_double("tol", 1e-11);
    workload.precond =
        solvers::parse_precond_token(args.get("precond", "none"));
  }
  workload.precision =
      batch::parse_precision_token(args.get("precision", "fp64"));
  if (workload.precision != perfsim::Precision::kFp64 &&
      workload.algorithm != perfsim::Algorithm::kScalapack) {
    std::cerr << "error: --precision mixed is a GEPP (scalapack) variant; "
                 "IMe/Jacobi have no fp32 path\n";
    return 1;
  }
  const perfsim::Algorithm alg = workload.algorithm;

  const perfsim::Simulator simulator(machine);
  const hw::Placement placement = hw::make_placement(ranks, layout, machine);
  const perfsim::Prediction p = simulator.predict(workload, placement);

  std::cout << "Replay-tier prediction on " << machine.name << ": "
            << perfsim::to_string(alg) << " ("
            << perfsim::to_string(workload.precision) << "), n=" << n << ", "
            << placement.describe() << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"duration", format_duration(p.duration_s)});
  table.add_row({"PKG energy (socket 0)", format_energy(p.pkg_j[0])});
  table.add_row({"PKG energy (socket 1)", format_energy(p.pkg_j[1])});
  table.add_row({"DRAM energy (socket 0)", format_energy(p.dram_j[0])});
  table.add_row({"DRAM energy (socket 1)", format_energy(p.dram_j[1])});
  table.add_row({"total energy", format_energy(p.total_j())});
  table.add_row({"average power", format_power(p.avg_power_w())});
  table.add_row({"DRAM power", format_power(p.dram_power_w())});
  table.add_row({"critical-path compute", format_duration(p.compute_s)});
  table.add_row({"critical-path comm", format_duration(p.comm_s)});
  table.print(std::cout);
  return 0;
}

int run_numeric(const CliArgs& args) {
  const hw::MachineSpec machine = hw::mini_cluster(32, 4);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 512));
  const int ranks = static_cast<int>(args.get_int("ranks", 16));
  const hw::LoadLayout layout = parse_layout(args.get("layout", "full"));
  const perfsim::Algorithm algorithm =
      batch::parse_algorithm_token(args.get("algorithm", "ime"));

  const std::uint64_t seed = batch::checked_seed(args.get_int("seed", 1));

  if (algorithm == perfsim::Algorithm::kJacobi) {
    xmpi::RunConfig config;
    config.machine = machine;
    config.placement = hw::make_placement(ranks, layout, machine);
    config.trace_dir = args.get("trace-dir", "");
    solvers::JacobiResult result;
    const xmpi::RunResult run =
        xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
          solvers::JacobiOptions options;
          options.n = n;
          options.seed = seed;
          options.tolerance = args.get_double("tol", 1e-12);
          options.dominance = args.get_double("dominance", 0.0);
          const solvers::JacobiResult r = solve_pjacobi(comm, options);
          if (comm.rank() == 0) result = r;
        });
    std::cout << "Jacobi: " << (result.converged ? "converged" : "DID NOT "
                                                                 "converge")
              << " in " << result.iterations << " iterations, duration "
              << format_duration(run.duration_s) << ", energy "
              << format_energy(run.energy.total_j()) << "\n";
    return result.converged ? 0 : 1;
  }

  monitor::JobSpec spec;
  spec.algorithm = algorithm;
  if (algorithm == perfsim::Algorithm::kCg) {
    spec.matrix = sparse::parse_kind_token(args.get("matrix", "stencil5"));
    spec.tolerance = args.get_double("tol", 1e-11);
    spec.precond = solvers::parse_precond_token(args.get("precond", "none"));
  }
  spec.n = n;
  spec.ranks = ranks;
  spec.layout = layout;
  spec.seed = seed;
  spec.nb = static_cast<std::size_t>(args.get_int("nb", 32));
  spec.repetitions = static_cast<int>(args.get_int("reps", 1));
  spec.precision =
      batch::parse_precision_token(args.get("precision", "fp64"));

  monitor::MonitorOptions options;
  options.output_dir = args.get("out", "");
  options.trace_dir = args.get("trace-dir", "");

  const monitor::JobResult result =
      monitor::run_job(machine, spec, options);
  const std::vector<monitor::JobResult> jobs = {result};
  monitor::print_campaign_table(std::cout, jobs);
  return 0;
}

int run_campaign_mode(const CliArgs& args) {
  const batch::CampaignManifest manifest =
      batch::load_manifest_file(args.get("campaign", ""));
  serve::CampaignOptions options;
  options.store_dir = args.get("store", "campaign_store");
  options.workers = static_cast<int>(args.get_int("workers", 0));
  const long max_jobs = args.get_int("max-jobs", -1);
  if (max_jobs >= 0) {
    options.max_jobs = static_cast<std::size_t>(max_jobs);
  }
  options.trace_dir = args.get("trace-dir", "");

  const serve::CampaignResult result = serve::run_campaign(manifest, options);

  std::cout << "Campaign '" << manifest.name << "': "
            << result.executed << " executed, "
            << result.cached << " cached, "
            << result.failures.size() << " failed, "
            << result.stopped << " stopped ("
            << result.records.size() << "/"
            << (result.records.size() + result.missing)
            << " jobs in store)\n"
            << "Store cache: " << result.store_stats.hits << " hits, "
            << result.store_stats.misses << " misses, "
            << result.store_stats.inserts << " inserts this invocation\n\n";
  batch::print_report_table(std::cout, result.records);
  if (!result.csv_path.empty()) {
    std::cout << "\nReports: " << result.csv_path << ", "
              << result.markdown_path << "\n";
  }
  for (const serve::JobFailure& failure : result.failures) {
    std::cerr << "failed after " << failure.attempts << " attempt(s): "
              << failure.spec.describe() << ": " << failure.error << "\n";
  }
  if (!result.failures.empty()) return 1;
  return result.stopped > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    args.require_known({"tier", "algorithm", "n", "ranks", "layout", "nb",
                        "seed", "reps", "precision", "tol", "dominance",
                        "iterations", "matrix", "precond", "out", "campaign",
                        "store",
                        "workers", "max-jobs", "trace-dir", "version",
                        "help"});
    if (args.get_bool("help", false)) {
      std::cout << kUsage;
      return 0;
    }
    if (args.get_bool("version", false)) {
      std::cout << "powerlin_run " << plin::kVersion << "\n";
      return 0;
    }
    for (const auto& [name, real] : kNumericFlags) {
      if (real) {
        (void)args.get_double(name, 0.0);
      } else {
        (void)args.get_int(name, 0);
      }
    }
    if (args.has("campaign")) return run_campaign_mode(args);
    const std::string tier = args.get("tier", "numeric");
    if (tier == "replay") return run_replay(args);
    if (tier == "numeric") return run_numeric(args);
    std::cerr << "unknown --tier (use numeric | replay): " << tier << "\n";
    return 1;
  } catch (const plin::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
