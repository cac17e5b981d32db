#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "batch/runner.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/units.hpp"

namespace plin::serve {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kCached: return "cached";
    case SubmitStatus::kQueued: return "queued";
    case SubmitStatus::kCoalesced: return "coalesced";
    case SubmitStatus::kRejected: return "rejected";
  }
  return "?";
}

Engine::Engine(batch::ResultStore& store, EngineOptions options)
    : store_(store), options_(std::move(options)) {
  PLIN_CHECK_MSG(options_.workers > 0, "serve: need >= 1 worker");
  if (!options_.executor) {
    options_.executor = [](const batch::JobSpec& spec) {
      return batch::execute_job(spec);
    };
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Engine::~Engine() { drain(); }

void Engine::configure_tenant(const std::string& name,
                              const TenantConfig& config) {
  PLIN_CHECK_MSG(config.weight > 0.0, "serve: tenant weight must be > 0");
  PLIN_CHECK_MSG(config.max_queued > 0, "serve: max_queued must be > 0");
  PLIN_CHECK_MSG(config.max_inflight >= 0,
                 "serve: max_inflight must be >= 0 (0 = uncapped)");
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& tenant = tenants_[name];
  tenant.config = config;
  tenant.stats.weight = config.weight;
}

SubmitStatus Engine::submit(const std::string& tenant_name,
                            const batch::JobSpec& spec) {
  PLIN_CHECK_MSG(!tenant_name.empty(), "serve: tenant must be non-empty");
  const std::string key = spec.key();
  std::lock_guard<std::mutex> lock(mutex_);

  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant_name, Tenant{}).first;
    it->second.config = options_.default_tenant;
    it->second.stats.weight = it->second.config.weight;
  }
  Tenant& tenant = it->second;
  ++totals_.submitted;
  ++tenant.stats.submitted;

  if (draining_) {
    ++totals_.rejected;
    ++tenant.stats.rejected;
    return SubmitStatus::kRejected;
  }

  // Dedupe against inflight work first: coalescing beats even a store hit
  // because it needs no journal read.
  const auto job_it = jobs_.find(key);
  if (job_it != jobs_.end() && (job_it->second.state == KeyState::kQueued ||
                                job_it->second.state == KeyState::kRunning)) {
    ++totals_.coalesced;
    ++tenant.stats.coalesced;
    return SubmitStatus::kCoalesced;
  }

  // Dedupe against completed work (the counting cache probe).
  if (store_.probe(key).has_value()) {
    ++totals_.cache_hits;
    ++tenant.stats.cache_hits;
    ++totals_.completed;
    ++tenant.stats.completed;
    return SubmitStatus::kCached;
  }

  // Admission control: explicit backpressure instead of unbounded queues.
  if (static_cast<int>(tenant.queue.size()) >= tenant.config.max_queued) {
    ++totals_.rejected;
    ++tenant.stats.rejected;
    return SubmitStatus::kRejected;
  }

  // A previously-failed key is resubmittable: reset it in place (its
  // subscribers were already notified of the failure).
  Job& job = jobs_[key];
  job.spec = spec;
  job.tenant = tenant_name;
  job.state = KeyState::kQueued;
  job.error.clear();

  // Stride fair-share: an idle tenant joins at the current minimum pass of
  // the active tenants, so it competes fairly from now on instead of
  // burning accumulated credit or waiting out a backlog it didn't cause.
  if (tenant.queue.empty() && tenant.inflight == 0) {
    double min_pass = tenant.pass;
    bool any_active = false;
    for (const auto& [name, other] : tenants_) {
      if (name == tenant_name) continue;
      if (other.queue.empty() && other.inflight == 0) continue;
      min_pass = any_active ? std::min(min_pass, other.pass) : other.pass;
      any_active = true;
    }
    if (any_active) tenant.pass = std::max(tenant.pass, min_pass);
  }
  tenant.queue.push_back(key);
  ++queued_;
  work_cv_.notify_one();
  return SubmitStatus::kQueued;
}

bool Engine::next_job(std::string* key) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // The runnable tenant with the lowest (pass, name).
    Tenant* best = nullptr;
    for (auto& [name, tenant] : tenants_) {
      if (tenant.queue.empty()) continue;
      if (tenant.config.max_inflight > 0 &&
          tenant.inflight >= tenant.config.max_inflight) {
        continue;
      }
      if (best == nullptr || tenant.pass < best->pass) best = &tenant;
    }
    if (best != nullptr) {
      *key = best->queue.front();
      best->queue.pop_front();
      best->pass += 1.0 / best->config.weight;
      ++best->inflight;
      --queued_;
      ++inflight_;
      jobs_.at(*key).state = KeyState::kRunning;
      return true;
    }
    if (draining_ && queued_ == 0) return false;
    work_cv_.wait(lock);
  }
}

void Engine::worker_loop() {
  std::string key;
  while (next_job(&key)) {
    batch::JobSpec spec;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      spec = jobs_.at(key).spec;
    }
    std::string error;
    bool ok = false;
    const int attempts = 1 + std::max(0, options_.retries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++totals_.retries;
        }
        if (options_.backoff_s > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              options_.backoff_s * attempt));
        }
      }
      Stopwatch watch;
      try {
        const batch::JobRecord record = options_.executor(spec);
        const double elapsed_s = watch.elapsed_s();
        if (options_.timeout_s > 0.0 && elapsed_s > options_.timeout_s) {
          std::lock_guard<std::mutex> lock(mutex_);
          ++totals_.timeouts;
          error = "job exceeded the cooperative timeout (" +
                  format_duration(elapsed_s) + " > " +
                  format_duration(options_.timeout_s) +
                  "); result discarded";
          continue;
        }
        // Persist before acknowledging: the journal line is flushed inside
        // put(), so a crash after this point re-serves the record from the
        // store instead of re-running it.
        store_.put(record);
        ok = true;
        break;
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    finish_job(key, ok, error);
  }
}

void Engine::finish_job(const std::string& key, bool ok,
                        const std::string& error) {
  std::vector<std::function<void(const JobOutcome&)>> subscribers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& job = jobs_.at(key);
    Tenant& tenant = tenants_.at(job.tenant);
    --tenant.inflight;
    --inflight_;
    ++totals_.executed;
    if (ok) {
      ++totals_.completed;
      ++tenant.stats.completed;
    } else {
      ++totals_.failed;
      ++tenant.stats.failed;
    }
    job.state = ok ? KeyState::kDone : KeyState::kFailed;
    job.error = error;
    subscribers = std::move(job.subscribers);
    job.subscribers.clear();
    if (ok) jobs_.erase(key);  // the store is the terminal record now
  }
  JobOutcome outcome;
  outcome.ok = ok;
  outcome.key = key;
  outcome.error = error;
  for (const auto& callback : subscribers) callback(outcome);
  work_cv_.notify_all();  // an inflight slot freed up
  idle_cv_.notify_all();
}

void Engine::subscribe(const std::string& key,
                       std::function<void(const JobOutcome&)> callback) {
  JobOutcome outcome;
  outcome.key = key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(key);
    if (it != jobs_.end() && (it->second.state == KeyState::kQueued ||
                              it->second.state == KeyState::kRunning)) {
      it->second.subscribers.push_back(std::move(callback));
      return;
    }
    if (it != jobs_.end() && it->second.state == KeyState::kFailed) {
      outcome.ok = false;
      outcome.error = it->second.error;
    } else if (store_.contains(key)) {
      outcome.ok = true;
    } else {
      outcome.ok = false;
      outcome.error = "unknown key (never submitted, or rejected)";
    }
  }
  callback(outcome);
}

JobOutcome Engine::wait(const std::string& key) {
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    JobOutcome outcome;
  };
  auto shared = std::make_shared<Shared>();
  subscribe(key, [shared](const JobOutcome& outcome) {
    std::lock_guard<std::mutex> lock(shared->m);
    shared->outcome = outcome;
    shared->done = true;
    shared->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(shared->m);
  shared->cv.wait(lock, [&] { return shared->done; });
  return shared->outcome;
}

void Engine::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool Engine::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats out = totals_;
  out.queued_now = queued_;
  out.inflight_now = inflight_;
  for (const auto& [name, tenant] : tenants_) {
    out.tenants[name] = tenant.stats;
  }
  return out;
}

json::Value Engine::stats_json() const {
  const EngineStats engine = stats();
  const batch::StoreStats store = store_.stats();

  json::Value scheduler = json::make_object();
  scheduler.set("submitted", static_cast<double>(engine.submitted));
  scheduler.set("executed", static_cast<double>(engine.executed));
  scheduler.set("completed", static_cast<double>(engine.completed));
  scheduler.set("cache_hits", static_cast<double>(engine.cache_hits));
  scheduler.set("coalesced", static_cast<double>(engine.coalesced));
  scheduler.set("rejected", static_cast<double>(engine.rejected));
  scheduler.set("failed", static_cast<double>(engine.failed));
  scheduler.set("retries", static_cast<double>(engine.retries));
  scheduler.set("timeouts", static_cast<double>(engine.timeouts));
  scheduler.set("queued_now", static_cast<double>(engine.queued_now));
  scheduler.set("inflight_now", static_cast<double>(engine.inflight_now));

  json::Value tenants = json::make_object();
  for (const auto& [name, t] : engine.tenants) {
    json::Value one = json::make_object();
    one.set("weight", t.weight);
    one.set("submitted", static_cast<double>(t.submitted));
    one.set("completed", static_cast<double>(t.completed));
    one.set("cache_hits", static_cast<double>(t.cache_hits));
    one.set("coalesced", static_cast<double>(t.coalesced));
    one.set("rejected", static_cast<double>(t.rejected));
    one.set("failed", static_cast<double>(t.failed));
    tenants.set(name, std::move(one));
  }

  json::Value cache = json::make_object();
  cache.set("hits", static_cast<double>(store.hits));
  cache.set("misses", static_cast<double>(store.misses));
  cache.set("inserts", static_cast<double>(store.inserts));
  cache.set("replayed", static_cast<double>(store.replayed));
  cache.set("duplicate_keys", static_cast<double>(store.duplicate_keys));
  cache.set("skipped_stale", static_cast<double>(store.skipped_stale));
  cache.set("torn_tail", store.torn_tail);
  cache.set("hit_ratio", store.hit_ratio());

  json::Value root = json::make_object();
  root.set("scheduler", std::move(scheduler));
  root.set("tenants", std::move(tenants));
  root.set("cache", std::move(cache));
  return root;
}

}  // namespace plin::serve
