// Campaign orchestrator — ties manifest, store, engine and report together:
// the top-level entry point behind `powerlin_run --campaign` and
// examples/energy_campaign.
//
//   manifest -> expand grid -> submit every job to a serve::Engine as one
//   tenant (store hits are served from the journal; misses run on the
//   engine's workers with its retries and cooperative timeout, and are
//   journaled as they complete) -> regenerate reports from the store.
//
// The campaign is the daemon's scheduler with a single tenant whose queue
// holds the whole grid, so admission control never rejects a campaign job.
//
// Reports are rewritten on every invocation (including pure-cache resumes),
// so <store>/report.csv and <store>/report.md always reflect the full
// journal. See docs/campaign.md for the resume workflow.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "batch/manifest.hpp"
#include "batch/report.hpp"
#include "batch/store.hpp"

namespace plin::serve {

struct CampaignOptions {
  std::string store_dir = "campaign_store";
  /// Overrides the manifest's worker count when > 0.
  int workers = 0;
  /// Deterministic interrupt: execute at most this many jobs (cache hits
  /// excluded) before stopping. Used by tests and the CI resume job.
  std::size_t max_jobs = static_cast<std::size_t>(-1);
  /// Write <store>/report.csv and <store>/report.md once every job is done.
  bool write_reports = true;
  /// Test hook invoked before each execution attempt; a throw from here is
  /// indistinguishable from a job failure (fault injection).
  std::function<void(const batch::JobSpec&)> job_hook;
  /// If non-empty, numeric-tier jobs archive their span-trace bundle under
  /// <trace_dir>/<spec.key()>/ — `powerlin_run --campaign ... --trace-dir`
  /// (docs/tracing.md).
  std::string trace_dir;
};

/// A job whose every attempt failed (or overran the timeout); it is absent
/// from the store and re-runs on the next invocation.
struct JobFailure {
  batch::JobSpec spec;
  std::string error;  // message of the final attempt
  int attempts = 0;   // 1 + the manifest's retries
};

struct CampaignResult {
  std::size_t executed = 0;  // jobs run (and stored) this invocation
  std::size_t cached = 0;    // jobs served from the store
  std::size_t stopped = 0;   // jobs left unrun by the max_jobs budget
  std::vector<JobFailure> failures;  // in manifest order
  /// Records present after this invocation, in manifest order.
  std::vector<batch::JobRecord> records;
  /// Jobs of the manifest still absent from the store (failed / stopped).
  std::size_t missing = 0;
  std::string csv_path;       // empty when write_reports is false
  std::string markdown_path;  // empty when write_reports is false
  /// Cache counters of this invocation (hits = jobs served from the
  /// journal, misses = jobs that had to execute, inserts = new records).
  batch::StoreStats store_stats;
};

/// Runs every job of the manifest not already in the store. Safe to call
/// again (resume) with the same store.
CampaignResult run_campaign(const batch::CampaignManifest& manifest,
                            const CampaignOptions& options = {});

}  // namespace plin::serve
