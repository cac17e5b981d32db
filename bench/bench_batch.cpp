// Batch orchestrator perf-regression harness.
//
// Runs one numeric-tier campaign grid through the orchestrator four ways —
// fresh on 1 worker, fresh on 4 workers, interrupted + resumed, and a
// pure-cache resume — prints a host wall-clock table and writes
// machine-readable `BENCH_batch.json` (schema powerlin-bench-batch/v1) so
// orchestration overhead has a recorded trajectory.
// The simulated results are bit-identical across all four schedules, which
// the harness verifies by diffing the stores' report bytes.
//
// Flags:
//   --smoke      smaller grid (CI smoke mode)
//   --out PATH   JSON output path (default BENCH_batch.json)
//   --check      exit nonzero unless (a) every schedule produced the same
//                report bytes and (b) the pure-cache resume beat the fresh
//                single-worker run
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

#include "serve/campaign.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace plin;

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_bench_batch" / name;
  fs::remove_all(dir);
  return dir.string();
}

struct Case {
  std::string name;
  double host_s = 0.0;
  std::size_t executed = 0;
  std::size_t cached = 0;
  std::string report;  // report.csv bytes
};

Case run_case(const std::string& name, const batch::CampaignManifest& manifest,
              serve::CampaignOptions options) {
  Case result;
  result.name = name;
  Stopwatch wall;
  const serve::CampaignResult campaign =
      serve::run_campaign(manifest, options);
  result.host_s = wall.elapsed_s();
  result.executed = campaign.executed;
  result.cached = campaign.cached;
  result.report = read_file(campaign.csv_path);
  if (!campaign.failures.empty()) {
    throw Error("bench_batch: campaign case '" + name + "' had failures");
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args =
      bench::parse_flags(argc, argv, {"smoke", "check", "out"});
  const bool smoke = args.get_bool("smoke", false);
  const bool check = args.get_bool("check", false);
  const std::string out_path = args.get("out", "BENCH_batch.json");

  batch::CampaignManifest manifest;
  manifest.name = smoke ? "bench-batch-smoke" : "bench-batch";
  manifest.tier = batch::Tier::kNumeric;
  manifest.machine = "mini:8x4";
  manifest.algorithms = {perfsim::Algorithm::kIme,
                         perfsim::Algorithm::kScalapack};
  manifest.sizes = smoke ? std::vector<std::size_t>{96, 128}
                         : std::vector<std::size_t>{128, 192, 256};
  manifest.rank_counts = smoke ? std::vector<int>{4} : std::vector<int>{4, 8};
  manifest.layouts = {hw::LoadLayout::kFullLoad,
                      hw::LoadLayout::kHalfLoadTwoSockets};
  manifest.repetitions = 2;

  std::vector<Case> cases;
  try {
    serve::CampaignOptions serial;
    serial.store_dir = scratch_dir("serial");
    serial.workers = 1;
    cases.push_back(run_case("fresh-1-worker", manifest, serial));

    serve::CampaignOptions pooled;
    pooled.store_dir = scratch_dir("pooled");
    pooled.workers = 4;
    cases.push_back(run_case("fresh-4-workers", manifest, pooled));

    serve::CampaignOptions interrupted;
    interrupted.store_dir = scratch_dir("interrupted");
    interrupted.workers = 4;
    interrupted.max_jobs = manifest.job_count() / 2;
    run_case("interrupt-half", manifest, interrupted);
    interrupted.max_jobs = static_cast<std::size_t>(-1);
    cases.push_back(run_case("resume-after-interrupt", manifest,
                             interrupted));

    // Pure cache: every job served from the journal, no execution.
    cases.push_back(run_case("resume-pure-cache", manifest, serial));
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  TextTable table({"case", "host time", "executed", "cached"});
  for (const Case& c : cases) {
    table.add_row({c.name, format_duration(c.host_s),
                   std::to_string(c.executed), std::to_string(c.cached)});
  }
  std::cout << "batch orchestrator harness (" << manifest.job_count()
            << " jobs x " << manifest.repetitions << " reps, numeric tier"
            << (smoke ? ", smoke" : "") << ")\n\n";
  table.print(std::cout);

  bool identical = true;
  for (const Case& c : cases) {
    if (c.report != cases.front().report) identical = false;
  }
  std::cout << "\nreports byte-identical across schedules: "
            << (identical ? "yes" : "NO") << "\n";

  json::Value report = bench::new_report("powerlin-bench-batch/v1", smoke);
  report.set("bench", "batch");
  report.set("jobs", manifest.job_count());
  report.set("smoke", smoke);
  report.set("reports_identical", identical);
  json::Array rows;
  for (const Case& c : cases) {
    json::Value row = json::make_object();
    row.set("name", c.name);
    row.set("host_s", c.host_s);
    row.set("executed", c.executed);
    row.set("cached", c.cached);
    rows.push_back(std::move(row));
  }
  report.set("cases", std::move(rows));
  bench::Gates gates;
  bench::write_report(out_path, report, gates);

  if (check) {
    gates.record("identical", identical);
    gates.record("cache-beats-fresh",
                 cases.back().host_s < cases.front().host_s);
  }
  return gates.exit_code();
}
