// Engine — the serve daemon's scheduler core, with no sockets in sight so
// every policy is unit-testable in-process.
//
// Jobs enter per-tenant FIFO queues and are dispatched to a bounded worker
// pool by stride scheduling: each tenant carries a virtual "pass" that
// advances by 1/weight per dispatched job, and the runnable tenant with the
// lowest pass goes next. A weight-2 tenant therefore drains twice as fast
// as a weight-1 tenant under contention, while an idle tenant's first job
// never waits behind a backlog it didn't cause (its pass is re-based onto
// the current minimum on activation).
//
// Deduplication is the content-addressed store key (batch/spec.hpp):
//   * key already completed -> cache hit, served without touching a worker;
//   * key queued or running  -> the submit coalesces onto the inflight job
//     (one execution, every subscriber notified);
//   * otherwise              -> queued, executed, journaled via
//     ResultStore::put before subscribers are woken — a completed job is
//     persisted before anyone is told about it, which is what makes the
//     kill-and-restart guarantee ("no lost or duplicated completed jobs")
//     hold: after a crash the journal replays exactly the completions that
//     were acknowledged-or-about-to-be.
//
// Admission control is per tenant (max queued, max inflight); a full queue
// rejects the submit (backpressure is explicit, not an unbounded buffer).
// Job timeouts are cooperative (checked when the job returns; simulated
// jobs always terminate); failures retry with linear backoff up to
// `retries` times. `powerlin_run --campaign` runs on this same engine as a
// single tenant (serve/campaign.hpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/store.hpp"
#include "support/json.hpp"

namespace plin::serve {

struct TenantConfig {
  double weight = 1.0;    // fair-share weight (pass advances by 1/weight)
  int max_queued = 1024;  // admission: pending jobs beyond this are rejected
  int max_inflight = 0;   // 0 = no per-tenant inflight cap
};

struct EngineOptions {
  int workers = 2;
  int retries = 0;             // extra attempts after a failure/timeout
  double timeout_s = 0.0;      // cooperative per-attempt budget; 0 = none
  double backoff_s = 0.0;      // host sleep before attempt k is k*backoff_s
  TenantConfig default_tenant;
  /// Runs one attempt of one job; empty means batch::execute_job.
  /// run_campaign installs execute_job behind its fault-injection hook and
  /// with its trace directory; tests install fake executors.
  std::function<batch::JobRecord(const batch::JobSpec&)> executor;
};

/// Terminal state of one key, delivered to subscribers.
struct JobOutcome {
  bool ok = false;
  std::string key;
  std::string error;  // final attempt's message when !ok
};

enum class SubmitStatus { kCached, kQueued, kCoalesced, kRejected };

const char* to_string(SubmitStatus status);

struct TenantStats {
  double weight = 1.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
};

struct EngineStats {
  std::uint64_t submitted = 0;   // all submit() calls
  std::uint64_t executed = 0;    // jobs actually run on a worker
  std::uint64_t completed = 0;   // jobs that reached the store
  std::uint64_t cache_hits = 0;  // served straight from the store
  std::uint64_t coalesced = 0;   // submits merged onto an inflight key
  std::uint64_t rejected = 0;    // admission-control refusals
  std::uint64_t failed = 0;      // keys whose final attempt failed
  std::uint64_t retries = 0;     // re-attempts after failure/timeout
  std::uint64_t timeouts = 0;    // attempts over the cooperative budget
  std::uint64_t queued_now = 0;  // pending jobs at snapshot time
  std::uint64_t inflight_now = 0;
  std::map<std::string, TenantStats> tenants;
};

class Engine {
 public:
  Engine(batch::ResultStore& store, EngineOptions options);
  ~Engine();  // drains

  /// Admission + dedupe decision for one job. kCached/kCoalesced/kQueued
  /// all eventually produce a terminal JobOutcome for spec.key().
  SubmitStatus submit(const std::string& tenant, const batch::JobSpec& spec);

  /// Invokes `callback` with the terminal outcome of `key` — immediately
  /// (from this thread) if the key is already terminal or stored, later
  /// (from a worker thread) otherwise. Unknown keys fail immediately.
  /// Callbacks must not call back into the engine (post to your own queue).
  void subscribe(const std::string& key,
                 std::function<void(const JobOutcome&)> callback);

  /// Blocking convenience over subscribe() for tests and simple clients.
  JobOutcome wait(const std::string& key);

  /// Registers / reconfigures a tenant (otherwise first submit creates it
  /// with options.default_tenant).
  void configure_tenant(const std::string& name, const TenantConfig& config);

  /// Stops admission, runs every queued job to completion, joins workers.
  /// Idempotent; called by the destructor.
  void drain();

  bool draining() const;

  /// The backing store (thread-safe; the server reads records for
  /// completed-job responses).
  batch::ResultStore& store() { return store_; }

  EngineStats stats() const;

  /// The engine's stats plus the store's cache counters as one JSON object
  /// — the daemon's /stats payload, also persisted as serve_stats.json and
  /// rendered by `powerlin_report --store`.
  json::Value stats_json() const;

 private:
  struct Tenant {
    TenantConfig config;
    TenantStats stats;
    double pass = 0.0;
    std::deque<std::string> queue;  // pending keys, FIFO within the tenant
    int inflight = 0;
  };

  enum class KeyState { kQueued, kRunning, kDone, kFailed };

  struct Job {
    batch::JobSpec spec;
    std::string tenant;
    KeyState state = KeyState::kQueued;
    std::string error;
    std::vector<std::function<void(const JobOutcome&)>> subscribers;
  };

  void worker_loop();
  /// Picks the next (tenant, key) under lock; returns false when draining
  /// and empty.
  bool next_job(std::string* key);
  void finish_job(const std::string& key, bool ok, const std::string& error);

  batch::ResultStore& store_;
  EngineOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: queue non-empty or draining
  std::condition_variable idle_cv_;   // drain: everything terminal
  std::map<std::string, Tenant> tenants_;
  std::map<std::string, Job> jobs_;   // every non-terminal + terminal key
  std::uint64_t queued_ = 0;
  std::uint64_t inflight_ = 0;
  bool draining_ = false;
  EngineStats totals_;
  std::vector<std::thread> workers_;
};

}  // namespace plin::serve
