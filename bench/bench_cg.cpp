// CG fast-path harness: gates the default fused CG path against the
// blocking reference (docs/sparse.md).
//
//   1. end-to-end iteration speedup — at the latency-dominated smoke point
//      (small rows-per-rank, so the allreduce rounds dominate the simulated
//      iteration) the default fused path (overlapped halo + fused
//      collectives) must beat the blocking shape by >= 1.3x per iteration
//      of virtual time. The full-mode point is 4x larger, SpMV-dominated,
//      and reports the (legitimately smaller, Amdahl-bounded) speedup
//      without gating it. Both run at tolerance 1e-7: above relative
//      residual 1e-6 the fused recurrence is trusted and every iteration
//      is a single round (the residual-replacement guard in
//      solvers/cg/cg.hpp re-measures below that, which would re-add rounds
//      a tolerance-1e-11 run pays).
//
// It also replays the speedup point through the perfsim CG model and
// checks the predicted per-iteration time against the executed one within
// the existing 3x model envelope (both directions).
//
// Everything lands in BENCH_cg.json (schema powerlin-bench-cg/v1). The
// virtual-time fields are fully deterministic and compared exactly against
// the checked-in smoke baseline under --check.
//
// Flags:
//   --smoke           CI sizes (speedup point n=4Ki) instead of n=16Ki
//   --check           exit nonzero unless every gate above holds and — when
//                     --baseline is given — the deterministic fields match
//                     the checked-in smoke baseline
//   --out=PATH        JSON output path (default BENCH_cg.json)
//   --baseline=PATH   checked-in BENCH_cg_smoke.json to compare against
#include <cstdio>
#include <string>

#include "harness.hpp"

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/cg/cg.hpp"
#include "sparse/generate.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

constexpr int kRanks = 8;
constexpr double kTolerance = 1e-7;  // keeps the fused bulk at one round

struct CgRun {
  int iters = 0;
  double duration_s = 0.0;
  double iter_s = 0.0;  // duration / iterations
};

CgRun run_path(std::size_t n, solvers::CgPath path) {
  const hw::MachineSpec machine = hw::mini_cluster(/*nodes=*/2,
                                                   /*cores_per_socket=*/4);
  xmpi::RunConfig config;
  config.machine = machine;
  config.placement =
      hw::make_placement(kRanks, hw::LoadLayout::kFullLoad, machine);
  CgRun out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        solvers::CgOptions options;
        options.kind = sparse::SparseKind::kStencil5;
        options.n = n;
        options.seed = 1;
        options.tolerance = kTolerance;
        options.path = path;
        const solvers::CgResult r = solve_pcg(comm, options);
        if (comm.rank() == 0) out.iters = r.iterations;
      });
  out.duration_s = run.duration_s;
  out.iter_s = out.iters > 0 ? run.duration_s / out.iters : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args =
      bench::parse_flags(argc, argv, {"smoke", "check", "out", "baseline"});
  const bool smoke = args.get_bool("smoke", false);
  const bool check = args.get_bool("check", false);
  const std::string out_path = args.get("out", "BENCH_cg.json");
  const std::string baseline_path = args.get("baseline", "");

  const std::size_t n = smoke ? 4096 : 16384;
  std::printf("bench_cg: stencil5 n=%zu, %d ranks, tol %g (%s)\n", n, kRanks,
              kTolerance, smoke ? "smoke" : "full");

  // --- 1. end-to-end iteration speedup -----------------------------------
  const CgRun blocking = run_path(n, solvers::CgPath::kBlocking);
  const CgRun fused = run_path(n, solvers::CgPath::kFused);
  const double speedup =
      fused.iter_s > 0.0 ? blocking.iter_s / fused.iter_s : 0.0;
  std::printf("  blocking: %8.3f us/iter (%d iters)\n",
              blocking.iter_s * 1e6, blocking.iters);
  std::printf("  fused:    %8.3f us/iter (%d iters) -> %.2fx\n",
              fused.iter_s * 1e6, fused.iters, speedup);

  // --- 2. perfsim replay envelope ----------------------------------------
  const hw::MachineSpec machine = hw::mini_cluster(2, 4);
  const perfsim::Simulator simulator(machine);
  perfsim::Workload workload;
  workload.algorithm = perfsim::Algorithm::kCg;
  workload.matrix = sparse::SparseKind::kStencil5;
  workload.n = n;
  workload.tolerance = kTolerance;
  const hw::Placement placement =
      hw::make_placement(kRanks, hw::LoadLayout::kFullLoad, machine);
  const perfsim::Prediction prediction =
      simulator.predict(workload, placement);
  const int model_iters =
      perfsim::cg_model_iters(workload.matrix, workload.tolerance);
  const double predicted_iter_s =
      model_iters > 0 ? prediction.duration_s / model_iters : 0.0;
  const double model_ratio =
      fused.iter_s > 0.0 ? predicted_iter_s / fused.iter_s : 0.0;
  std::printf("  replay:   %8.3f us/iter predicted (%.2fx executed)\n",
              predicted_iter_s * 1e6, model_ratio);

  json::Value report = bench::new_report("powerlin-bench-cg/v1", smoke);
  report.set("n", n);
  report.set("ranks", kRanks);
  report.set("blocking_iters", blocking.iters);
  report.set("blocking_s", blocking.duration_s);
  report.set("blocking_iter_s", blocking.iter_s);
  report.set("fused_iters", fused.iters);
  report.set("fused_s", fused.duration_s);
  report.set("fused_iter_s", fused.iter_s);
  report.set("speedup", speedup);
  report.set("predicted_iter_s", predicted_iter_s);
  report.set("model_ratio", model_ratio);
  bench::Gates gates;
  bench::write_report(out_path, report, gates);

  if (check) {
    if (smoke) {
      gates.record("fused-speedup>=1.3x", speedup >= 1.3,
                   bench::describe("fused iteration speedup ", speedup,
                                   "x at the latency-dominated smoke point"));
    }
    gates.record("model-envelope-3x",
                 !(model_ratio > 3.0 ||
                   (model_ratio > 0.0 && model_ratio < 1.0 / 3.0)),
                 bench::describe("perfsim per-iteration prediction off by ",
                                 model_ratio, "x"));
    if (!baseline_path.empty()) {
      // Virtual-time outputs are deterministic: iterations exact, durations
      // to the %.6g precision the baseline file stores.
      bench::Baseline baseline(baseline_path, gates);
      baseline.compare("blocking_iters", blocking.iters, bench::kExact);
      baseline.compare("fused_iters", fused.iters, bench::kExact);
      baseline.compare("blocking_s", blocking.duration_s, bench::within(1e-5));
      baseline.compare("fused_s", fused.duration_s, bench::within(1e-5));
    }
  }
  return gates.exit_code();
}
