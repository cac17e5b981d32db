#include "serve/campaign.hpp"

#include <algorithm>
#include <fstream>

#include "batch/runner.hpp"
#include "serve/engine.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"

namespace plin::serve {

namespace {

constexpr const char* kTenant = "campaign";

/// One submitted job the orchestrator waits for, in manifest order.
struct Awaited {
  const batch::JobSpec* spec;
  bool executes;  // false for a duplicate grid point coalesced onto it
};

}  // namespace

CampaignResult run_campaign(const batch::CampaignManifest& manifest,
                            const CampaignOptions& options) {
  const std::vector<batch::JobSpec> specs = manifest.expand();
  batch::ResultStore store(options.store_dir);
  if (store.recovered_torn_tail()) {
    PLIN_LOG_WARN << "campaign '" << manifest.name
                  << "': store recovered from a mid-write crash";
  }

  EngineOptions engine_options;
  engine_options.workers =
      options.workers > 0 ? options.workers : manifest.workers;
  engine_options.retries = manifest.retries;
  engine_options.timeout_s = manifest.timeout_s;
  engine_options.executor = [hook = options.job_hook,
                             trace_dir = options.trace_dir](
                                const batch::JobSpec& spec) {
    if (hook) hook(spec);
    return batch::execute_job(spec, trace_dir);
  };

  PLIN_LOG_INFO << "campaign '" << manifest.name << "': " << specs.size()
                << " jobs on " << engine_options.workers
                << " worker(s), store " << store.dir();

  CampaignResult result;
  {
    Engine engine(store, engine_options);
    TenantConfig tenant;
    tenant.max_queued =
        static_cast<int>(std::max<std::size_t>(1, specs.size()));
    engine.configure_tenant(kTenant, tenant);

    // The max_jobs budget is spent only on jobs that must execute, so a
    // resume makes progress even when its budget is smaller than the cached
    // prefix. Once it is spent, the remaining jobs are only probed.
    std::size_t budget = options.max_jobs;
    std::vector<Awaited> awaited;
    for (const batch::JobSpec& spec : specs) {
      if (budget == 0) {
        if (store.probe(spec.key()).has_value()) {
          ++result.cached;
        } else {
          ++result.stopped;
        }
        continue;
      }
      switch (engine.submit(kTenant, spec)) {
        case SubmitStatus::kCached:
          PLIN_LOG_INFO << "campaign: skip (cached " << spec.key() << ") "
                        << spec.describe();
          ++result.cached;
          break;
        case SubmitStatus::kQueued:
          --budget;
          awaited.push_back({&spec, true});
          break;
        case SubmitStatus::kCoalesced:
          awaited.push_back({&spec, false});
          break;
        case SubmitStatus::kRejected:
          throw Error("campaign: engine rejected " + spec.describe());
      }
    }

    for (const Awaited& job : awaited) {
      const JobOutcome outcome = engine.wait(job.spec->key());
      if (!outcome.ok) {
        PLIN_LOG_WARN << "campaign: failed " << job.spec->describe() << ": "
                      << outcome.error;
        result.failures.push_back(
            JobFailure{*job.spec, outcome.error, 1 + manifest.retries});
      } else if (job.executes) {
        PLIN_LOG_INFO << "campaign: done (" << outcome.key << ") "
                      << job.spec->describe();
        ++result.executed;
      } else {
        ++result.cached;
      }
    }
  }
  PLIN_LOG_INFO << "campaign '" << manifest.name << "': " << result.executed
                << " executed, " << result.cached << " cached, "
                << result.failures.size() << " failed, " << result.stopped
                << " stopped";

  result.records = batch::collect_records(specs, store, &result.missing);
  result.store_stats = store.stats();

  if (options.write_reports) {
    result.csv_path = store.dir() + "/report.csv";
    std::ofstream csv(result.csv_path, std::ios::trunc);
    if (!csv) throw IoError("cannot write report: " + result.csv_path);
    batch::write_report_csv(csv, result.records);

    result.markdown_path = store.dir() + "/report.md";
    std::ofstream md(result.markdown_path, std::ios::trunc);
    if (!md) throw IoError("cannot write report: " + result.markdown_path);
    batch::write_report_markdown(md, result.records);
  }
  return result;
}

}  // namespace plin::serve
