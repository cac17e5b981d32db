// Span-tracing overhead harness (`BENCH_prof.json`).
//
// Measures what src/prof costs the host when it is OFF (runtime toggle
// false), ON (recorder active on every rank), and — when the binary was
// built with -DPLIN_PROF=OFF — COMPILED OUT (every hook is an empty inline
// stub). Two workloads bracket the hot paths the recorder touches:
//
//   * spawn+collective at paper scale (576 ranks; 144 in --smoke): the
//     per-message / per-collective record cost in the xmpi runtime;
//   * a GEPP solve at n=1728 (576 in --smoke): the per-phase bracket cost
//     inside a compute-dominated solver.
//
// Simulated results are virtual-time, so tracing must not change them:
// `--check` exits nonzero if any duration or energy total differs between
// the off and on runs (bit-for-bit), or if the on-run produced no trace
// while tracing is compiled in.
//
// Flags:
//   --smoke     smaller scales (CI smoke mode)
//   --out=PATH  JSON output path (default BENCH_prof.json)
//   --check     verify off-vs-on bit-identical simulated outputs
#include <cstdio>
#include <iomanip>
#include <string>
#include <vector>

#include "harness.hpp"

#include "prof/recorder.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

/// Spawn plus collectives: collective-dense, so every hop crosses the
/// runtime hooks the recorder instruments.
void spawn_collective(xmpi::Comm& comm) {
  double value = comm.rank() == 0 ? 1.5 : 0.0;
  for (int round = 0; round < 4; ++round) {
    comm.barrier();
    comm.bcast_value(value, /*root=*/0);
    (void)comm.allreduce_value(1.0, xmpi::ReduceOp::kSum);
  }
}

struct ProbeResult {
  std::string workload;
  int ranks = 0;
  double off_s = 0.0;
  double on_s = 0.0;
  // Simulated outputs captured from the last off/on run for --check.
  double off_duration = 0.0;
  double on_duration = 0.0;
  double off_energy = 0.0;
  double on_energy = 0.0;
  bool trace_present = false;

  double overhead() const {
    return off_s > 0.0 ? on_s / off_s - 1.0 : 0.0;
  }
};

template <typename Body>
ProbeResult measure(const char* name, int ranks, Body&& body) {
  ProbeResult result;
  result.workload = name;
  result.ranks = ranks;

  xmpi::RunConfig config = bench::full_load_config(ranks);
  config.trace = false;
  result.off_s = bench::best_seconds([&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, body);
    result.off_duration = run.duration_s;
    result.off_energy = run.energy.total_j();
  });

  config.trace = true;
  result.on_s = bench::best_seconds([&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, body);
    result.on_duration = run.duration_s;
    result.on_energy = run.energy.total_j();
    result.trace_present = run.trace != nullptr;
  });
  return result;
}

int run_harness(bool smoke, bool check, const std::string& out_path) {
  const int collective_ranks = smoke ? 144 : 576;
  const std::size_t gepp_n = smoke ? 576 : 1728;
  const int gepp_ranks = smoke ? 16 : 64;

  std::vector<ProbeResult> results;
  results.push_back(
      measure("spawn+collective", collective_ranks, spawn_collective));
  results.push_back(measure("gepp_solve", gepp_ranks, [gepp_n](
                                                          xmpi::Comm& comm) {
    solvers::PdgesvOptions options;
    options.n = gepp_n;
    options.seed = 7;
    (void)solve_pdgesv(comm, options);
  }));

  std::printf("tracing compiled %s\n\n",
              prof::kCompiledIn ? "IN" : "OUT (-DPLIN_PROF=OFF)");
  std::printf("%-18s %6s | %12s %12s %9s\n", "workload", "ranks", "off s",
              "on s", "overhead");
  for (const ProbeResult& r : results) {
    std::printf("%-18s %6d | %12.6f %12.6f %8.2f%%\n", r.workload.c_str(),
                r.ranks, r.off_s, r.on_s, 100.0 * r.overhead());
  }

  json::Value report = bench::new_report("powerlin-bench-prof/v1", smoke);
  // When compiled_in is false the binary was built -DPLIN_PROF=OFF and
  // "off_s" measures the fully compiled-out hooks; "on_s" then measures
  // the runtime toggle hitting empty stubs.
  report.set("compiled_in", prof::kCompiledIn);
  json::Array rows;
  for (const ProbeResult& r : results) {
    json::Value row = json::make_object();
    row.set("workload", r.workload);
    row.set("ranks", r.ranks);
    row.set("off_s", r.off_s);
    row.set("on_s", r.on_s);
    row.set("overhead", r.overhead());
    rows.push_back(std::move(row));
  }
  report.set("results", std::move(rows));
  bench::Gates gates;
  bench::write_report(out_path, report, gates);

  if (check) {
    for (const ProbeResult& r : results) {
      gates.record(r.workload + "-off-on-identical",
                   r.off_duration == r.on_duration &&
                       r.off_energy == r.on_energy,
                   bench::describe(std::setprecision(17), "duration ",
                                   r.off_duration, " vs ", r.on_duration,
                                   ", energy ", r.off_energy, " vs ",
                                   r.on_energy));
      if (prof::kCompiledIn) {
        gates.record(r.workload + "-trace-present", r.trace_present,
                     "traced run produced no trace");
      }
    }
  }
  return gates.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args =
      bench::parse_flags(argc, argv, {"smoke", "check", "out"});
  return run_harness(args.get_bool("smoke", false),
                     args.get_bool("check", false),
                     args.get("out", "BENCH_prof.json"));
}
