// Tests for the serve subsystem: wire protocol parsing, the engine's
// fair-share stride scheduler (dedupe, coalescing, admission control,
// retries, cooperative timeouts, drain), the crash-restart guarantee (a
// completed job is journaled before it is acknowledged, so a fresh engine
// over the same store serves it from cache), campaigns on the engine
// (cache resume, the exact --max-jobs budget, failure capture, and
// byte-identical reports across interrupts and worker counts), and the
// socket server end-to-end over a real AF_UNIX connection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "batch/record.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"

namespace plin::serve {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_serve_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

/// Instant replay-tier spec (milliseconds even in debug builds); seed
/// varies the key so tests control dedupe precisely.
batch::JobSpec replay_spec(std::uint64_t seed, std::size_t n = 96) {
  batch::JobSpec spec;
  spec.tier = batch::Tier::kReplay;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = n;
  spec.ranks = 4;
  spec.nb = 32;
  spec.seed = seed;
  return spec;
}

/// A trivially fast fake executor (no perfsim, no xmpi) for policy tests.
batch::JobRecord fake_record(const batch::JobSpec& spec) {
  batch::JobRecord record;
  record.spec = spec;
  batch::RepetitionRecord rep;
  rep.duration_s = 1.0;
  rep.pkg_j[0] = 2.0;
  record.repetitions.assign(static_cast<std::size_t>(spec.repetitions), rep);
  return record;
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, ParsesSubmitWithDefaults) {
  const Request r = parse_request(
      R"({"op":"submit","spec":{"tier":"replay","machine":"marconi",)"
      R"("algorithm":"scalapack","n":8640,"ranks":144}})");
  EXPECT_EQ(r.op, Op::kSubmit);
  EXPECT_EQ(r.tenant, "default");
  EXPECT_FALSE(r.wait);
  EXPECT_EQ(r.spec.n, 8640u);
  EXPECT_EQ(r.spec.ranks, 144);
  // Unlisted fields keep JobSpec defaults.
  EXPECT_EQ(r.spec.nb, 32u);
  EXPECT_EQ(r.spec.repetitions, 1);
}

TEST(ProtocolTest, EchoesTenantTagAndWait) {
  const Request r = parse_request(
      R"({"op":"submit","tenant":"fig5","tag":"c17","wait":true,)"
      R"("spec":{"n":96,"ranks":4}})");
  EXPECT_EQ(r.tenant, "fig5");
  EXPECT_EQ(r.tag, "c17");
  EXPECT_TRUE(r.wait);
  const json::Value response = make_response(r, true);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("op").as_string(), "submit");
  EXPECT_EQ(response.at("tag").as_string(), "c17");
}

TEST(ProtocolTest, RejectsGarbage) {
  EXPECT_THROW(parse_request("not json"), Error);
  EXPECT_THROW(parse_request(R"({"op":"frobnicate"})"), InvalidArgument);
  EXPECT_THROW(parse_request(R"({"op":"submit","spec":{"n":0}})"), Error);
  EXPECT_THROW(
      parse_request(R"({"op":"submit","spec":{"n":96,"typo_field":1}})"),
      InvalidArgument);
  EXPECT_THROW(parse_request(R"({"op":"wait","key":"tooshort"})"), Error);
  // Integer fields must be integral, non-negative, in range for their type
  // and at most 2^53 - 1 (past that a double rounds the seed, and with it
  // the job key).
  for (const char* field : {
           R"("n":-1)", R"("n":1e300)", R"("n":96.5)", R"("ranks":-4)",
           R"("ranks":4294967300)", R"("nb":-32)", R"("reps":1.5)",
           R"("iterations":-1)", R"("seed":-1)",
           R"("seed":9007199254740994)", R"("seed":1.8446744073709552e19)"}) {
    const std::string line =
        std::string(R"({"op":"submit","spec":{)") + field + "}}";
    EXPECT_THROW(parse_request(line), InvalidArgument) << line;
  }
  EXPECT_EQ(parse_request(R"({"op":"submit","spec":{"n":96,"ranks":4,)"
                          R"("seed":9007199254740991}})")
                .spec.seed,
            9007199254740991u);
}

TEST(ProtocolTest, SpecRoundTripsThroughJson) {
  batch::JobSpec spec = replay_spec(7, 128);
  spec.precision = perfsim::Precision::kMixed;
  spec.repetitions = 3;
  const batch::JobSpec back = batch::spec_from_json(batch::spec_to_json(spec));
  EXPECT_EQ(back.key(), spec.key());

  // The cg axes survive the trip, including a submit line on the wire: the
  // daemon must run (and key) the banded Jacobi job the client asked for.
  for (const solvers::CgPrecond precond :
       {solvers::CgPrecond::kNone, solvers::CgPrecond::kJacobi}) {
    batch::JobSpec cg = replay_spec(8);
    cg.algorithm = perfsim::Algorithm::kCg;
    cg.matrix = sparse::SparseKind::kBanded;
    cg.precond = precond;
    const batch::JobSpec cg_back =
        batch::spec_from_json(batch::spec_to_json(cg));
    EXPECT_EQ(cg_back.matrix, sparse::SparseKind::kBanded);
    EXPECT_EQ(cg_back.precond, precond);
    EXPECT_EQ(cg_back.key(), cg.key());

    json::Value submit = json::make_object();
    submit.set("op", "submit");
    submit.set("spec", batch::spec_to_json(cg));
    EXPECT_EQ(parse_request(json::serialize(submit)).spec.key(), cg.key());
  }
}

// --- engine: dedupe, coalescing, admission ----------------------------------

TEST(EngineTest, ExecutesStoresAndServesFromCache) {
  batch::ResultStore store(scratch_dir("engine_cache"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);

  const batch::JobSpec spec = replay_spec(1);
  EXPECT_EQ(engine.submit("alice", spec), SubmitStatus::kQueued);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(store.contains(spec.key()));

  // Identical resubmit: a first-class cache hit, no execution.
  EXPECT_EQ(engine.submit("bob", spec), SubmitStatus::kCached);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.tenants.at("bob").cache_hits, 1u);
}

TEST(EngineTest, CoalescesInflightDuplicates) {
  batch::ResultStore store(scratch_dir("engine_coalesce"));
  std::atomic<bool> release{false};
  std::atomic<int> executions{0};
  EngineOptions options;
  options.workers = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    ++executions;
    while (!release.load()) std::this_thread::yield();
    return fake_record(spec);
  };
  Engine engine(store, options);

  const batch::JobSpec spec = replay_spec(2);
  EXPECT_EQ(engine.submit("a", spec), SubmitStatus::kQueued);
  // Wait until the worker picked it up, then pile on duplicates.
  while (executions.load() == 0) std::this_thread::yield();
  EXPECT_EQ(engine.submit("a", spec), SubmitStatus::kCoalesced);
  EXPECT_EQ(engine.submit("b", spec), SubmitStatus::kCoalesced);

  std::atomic<int> notified{0};
  engine.subscribe(spec.key(), [&](const JobOutcome& outcome) {
    EXPECT_TRUE(outcome.ok);
    ++notified;
  });
  engine.subscribe(spec.key(), [&](const JobOutcome& outcome) {
    EXPECT_TRUE(outcome.ok);
    ++notified;
  });
  release = true;
  engine.drain();
  EXPECT_EQ(executions.load(), 1);  // one execution served every submit
  EXPECT_EQ(notified.load(), 2);
  EXPECT_EQ(engine.stats().coalesced, 2u);
}

TEST(EngineTest, AdmissionControlRejectsOverflow) {
  batch::ResultStore store(scratch_dir("engine_admission"));
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
  EngineOptions options;
  options.workers = 1;
  options.default_tenant.max_queued = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    running = true;
    while (!release.load()) std::this_thread::yield();
    return fake_record(spec);
  };
  Engine engine(store, options);

  // One running + two queued; the next submit must bounce. Waiting for the
  // first job to start keeps a late worker from freeing a queue slot
  // between the later submits.
  EXPECT_EQ(engine.submit("t", replay_spec(10)), SubmitStatus::kQueued);
  while (!running.load()) std::this_thread::yield();
  SubmitStatus last = SubmitStatus::kQueued;
  int accepted = 1;
  for (std::uint64_t seed = 11; seed < 16; ++seed) {
    last = engine.submit("t", replay_spec(seed));
    if (last == SubmitStatus::kQueued) ++accepted;
  }
  EXPECT_EQ(last, SubmitStatus::kRejected);
  EXPECT_EQ(accepted, 3);  // 1 running + max_queued 2
  EXPECT_GT(engine.stats().rejected, 0u);
  release = true;
}

TEST(EngineTest, FairShareFavoursHeavierTenant) {
  batch::ResultStore store(scratch_dir("engine_fairshare"));
  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  std::atomic<bool> release{false};
  EngineOptions options;
  options.workers = 1;
  options.executor = [&](const batch::JobSpec& spec) {
    while (!release.load()) std::this_thread::yield();
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(spec.seed);
    return fake_record(spec);
  };
  Engine engine(store, options);
  engine.configure_tenant("heavy", {2.0, 1024, 0});
  engine.configure_tenant("light", {1.0, 1024, 0});

  // Seeds 100+ belong to "heavy" (weight 2), 200+ to "light" (weight 1).
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(engine.submit("heavy", replay_spec(100 + i)),
              SubmitStatus::kQueued);
    EXPECT_EQ(engine.submit("light", replay_spec(200 + i)),
              SubmitStatus::kQueued);
  }
  release = true;
  engine.drain();

  ASSERT_EQ(order.size(), 12u);
  // Stride scheduling: the weight-2 tenant owns ~2/3 of any prefix (the
  // first dispatch may race ahead of the second tenant's first submit, so
  // allow one slot of slack).
  int heavy_in_first_six = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    if (order[i] < 200) ++heavy_in_first_six;
  }
  EXPECT_GE(heavy_in_first_six, 3);
  EXPECT_LE(heavy_in_first_six, 5);
  // Everyone finishes eventually: both tenants fully drained.
  EXPECT_EQ(engine.stats().tenants.at("heavy").completed, 6u);
  EXPECT_EQ(engine.stats().tenants.at("light").completed, 6u);
}

// --- engine: failures, retries, timeouts ------------------------------------

TEST(EngineTest, RetriesWithBackoffThenSucceeds) {
  batch::ResultStore store(scratch_dir("engine_retry"));
  std::atomic<int> attempts{0};
  EngineOptions options;
  options.retries = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    if (++attempts < 3) throw Error("transient fault");
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(20);
  engine.submit("t", spec);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST(EngineTest, ExhaustedRetriesFailTheKeyAndAllowResubmit) {
  batch::ResultStore store(scratch_dir("engine_fail"));
  std::atomic<bool> heal{false};
  EngineOptions options;
  options.retries = 1;
  options.executor = [&](const batch::JobSpec& spec) {
    if (!heal.load()) throw Error("broken dependency");
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(21);
  engine.submit("t", spec);
  const JobOutcome failed = engine.wait(spec.key());
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("broken dependency"), std::string::npos);
  EXPECT_EQ(engine.stats().failed, 1u);

  // The failure is not cached: a resubmit runs again and can succeed.
  heal = true;
  EXPECT_EQ(engine.submit("t", spec), SubmitStatus::kQueued);
  EXPECT_TRUE(engine.wait(spec.key()).ok);
}

TEST(EngineTest, CooperativeTimeoutDiscardsSlowJobs) {
  batch::ResultStore store(scratch_dir("engine_timeout"));
  EngineOptions options;
  options.timeout_s = 1e-9;
  options.executor = [](const batch::JobSpec& spec) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(22);
  engine.submit("t", spec);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("timeout"), std::string::npos);
  // "(5.07 ms > 1.00 ns)": the elapsed time and the budget, each with its
  // own unit prefix.
  const std::size_t open = outcome.error.find('(');
  const std::size_t gt = outcome.error.find(" > 1.00 ns)");
  ASSERT_NE(open, std::string::npos) << outcome.error;
  ASSERT_NE(gt, std::string::npos) << outcome.error;
  const std::string elapsed = outcome.error.substr(open + 1, gt - open - 1);
  EXPECT_TRUE(elapsed.ends_with(" ms") || elapsed.ends_with(" s"))
      << outcome.error;
  EXPECT_NE(elapsed.find_first_of("123456789"), std::string::npos)
      << outcome.error;
  EXPECT_GT(engine.stats().timeouts, 0u);
  EXPECT_FALSE(store.contains(spec.key()));  // over-budget result discarded
}

// --- engine: restart guarantee ----------------------------------------------

TEST(EngineTest, RestartServesCompletedJobsFromJournal) {
  const std::string dir = scratch_dir("engine_restart");
  const batch::JobSpec spec = replay_spec(30);
  {
    batch::ResultStore store(dir);
    EngineOptions options;
    options.executor = fake_record;
    Engine engine(store, options);
    engine.submit("t", spec);
    EXPECT_TRUE(engine.wait(spec.key()).ok);
  }  // engine + store die (the polite version of SIGKILL; the CI smoke job
     // does the impolite one)

  batch::ResultStore store(dir);
  EXPECT_EQ(store.stats().replayed, 1u);
  EXPECT_EQ(store.stats().duplicate_keys, 0u);  // journaled exactly once
  EngineOptions options;
  options.executor = [](const batch::JobSpec&) -> batch::JobRecord {
    throw Error("must not re-run a completed job");
  };
  Engine engine(store, options);
  EXPECT_EQ(engine.submit("t", spec), SubmitStatus::kCached);
  EXPECT_TRUE(engine.wait(spec.key()).ok);
}

TEST(EngineTest, DrainRejectsNewWorkAndFinishesQueued) {
  batch::ResultStore store(scratch_dir("engine_drain"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    engine.submit("t", replay_spec(seed));
  }
  engine.drain();
  EXPECT_TRUE(engine.draining());
  EXPECT_EQ(store.size(), 4u);  // every queued job finished
  EXPECT_EQ(engine.submit("t", replay_spec(99)), SubmitStatus::kRejected);
}

TEST(EngineTest, StatsJsonCarriesSchedulerTenantsAndCache) {
  batch::ResultStore store(scratch_dir("engine_statsjson"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(50);
  engine.submit("fig5", spec);
  engine.wait(spec.key());
  engine.submit("fig5", spec);  // cache hit

  const json::Value stats = engine.stats_json();
  EXPECT_EQ(stats.at("scheduler").at("executed").as_number(), 1.0);
  EXPECT_EQ(stats.at("scheduler").at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("tenants").at("fig5").at("submitted").as_number(), 2.0);
  EXPECT_EQ(stats.at("cache").at("inserts").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("duplicate_keys").as_number(), 0.0);
  // Round-trips through the support/json layer (the serve_stats.json file).
  const json::Value reparsed = json::parse(json::serialize(stats));
  EXPECT_EQ(json::serialize(reparsed), json::serialize(stats));
}

// --- campaigns on the engine ------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t journal_lines(const std::string& store_dir) {
  const std::string text = read_file(store_dir + "/journal.jsonl");
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

/// A 4-job numeric campaign small enough for unit tests.
batch::CampaignManifest tiny_manifest() {
  batch::CampaignManifest manifest;
  manifest.name = "tiny";
  manifest.tier = batch::Tier::kNumeric;
  manifest.machine = "mini:8x4";
  manifest.algorithms = {perfsim::Algorithm::kIme,
                         perfsim::Algorithm::kScalapack};
  manifest.sizes = {96, 128};
  manifest.rank_counts = {4};
  manifest.repetitions = 2;
  return manifest;
}

TEST(CampaignTest, ResumeServesEveryJobFromCache) {
  const batch::CampaignManifest manifest = tiny_manifest();
  CampaignOptions options;
  options.store_dir = scratch_dir("campaign_cache");
  const CampaignResult fresh = run_campaign(manifest, options);
  EXPECT_EQ(fresh.executed, 4u);
  EXPECT_EQ(fresh.cached, 0u);
  EXPECT_EQ(fresh.store_stats.misses, 4u);
  EXPECT_EQ(fresh.store_stats.inserts, 4u);

  const CampaignResult resumed = run_campaign(manifest, options);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.cached, 4u);
  EXPECT_EQ(resumed.store_stats.hits, 4u);
  EXPECT_EQ(resumed.store_stats.misses, 0u);
  EXPECT_EQ(resumed.store_stats.inserts, 0u);
  EXPECT_EQ(journal_lines(options.store_dir), 4u);
}

TEST(CampaignTest, MaxJobsIsExactWithFourWorkers) {
  batch::CampaignManifest manifest = tiny_manifest();
  manifest.workers = 4;
  const std::vector<batch::JobSpec> specs = manifest.expand();
  CampaignOptions options;
  options.store_dir = scratch_dir("campaign_maxjobs");
  options.max_jobs = 2;

  const CampaignResult first = run_campaign(manifest, options);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.stopped, 2u);
  EXPECT_EQ(first.missing, 2u);
  EXPECT_EQ(journal_lines(options.store_dir), 2u);
  // The budget is spent in manifest order, whatever the worker count.
  ASSERT_EQ(first.records.size(), 2u);
  EXPECT_EQ(first.records[0].key(), specs[0].key());
  EXPECT_EQ(first.records[1].key(), specs[1].key());

  // Resume with the same budget: the cached prefix doesn't consume it.
  const CampaignResult second = run_campaign(manifest, options);
  EXPECT_EQ(second.executed, 2u);
  EXPECT_EQ(second.cached, 2u);
  EXPECT_EQ(second.stopped, 0u);
  EXPECT_EQ(second.missing, 0u);
  EXPECT_EQ(second.store_stats.hits, 2u);
  EXPECT_EQ(journal_lines(options.store_dir), 4u);
}

TEST(CampaignTest, CapturesPermanentFailures) {
  batch::CampaignManifest manifest = tiny_manifest();
  manifest.algorithms = {perfsim::Algorithm::kIme};  // n = 96, then 128
  manifest.retries = 1;
  std::atomic<int> attempts{0};
  CampaignOptions options;
  options.store_dir = scratch_dir("campaign_fail");
  options.job_hook = [&](const batch::JobSpec& spec) {
    if (spec.n == 96) {
      ++attempts;
      throw Error("injected permanent fault");
    }
  };
  const CampaignResult result = run_campaign(manifest, options);
  EXPECT_EQ(result.executed, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].spec.n, 96u);
  EXPECT_EQ(result.failures[0].attempts, 2);  // 1 + retries
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_NE(result.failures[0].error.find("injected"), std::string::npos);
  // The failed job is absent from the store; the good one persisted.
  EXPECT_EQ(result.missing, 1u);
  const batch::ResultStore store(options.store_dir);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.contains(result.failures[0].spec.key()));
}

TEST(CampaignTest, LargeReplayGridIsNeverRejected) {
  // More jobs than the engine's default per-tenant queue (1024): the
  // campaign's tenant must admit the whole grid. Each job is held for 2 ms
  // so the workers cannot drain the queue as fast as it fills.
  batch::CampaignManifest manifest;
  manifest.name = "large";
  manifest.tier = batch::Tier::kReplay;
  manifest.machine = "mini:8x4";
  manifest.algorithms = {perfsim::Algorithm::kScalapack};
  manifest.sizes = {96, 128, 160, 192};
  manifest.workers = 4;
  manifest.seeds.clear();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    manifest.seeds.push_back(seed);
  }
  ASSERT_GT(manifest.job_count(), 1024u);
  CampaignOptions options;
  options.store_dir = scratch_dir("campaign_large");
  options.write_reports = false;
  options.job_hook = [](const batch::JobSpec&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const CampaignResult result = run_campaign(manifest, options);
  EXPECT_EQ(result.executed, manifest.job_count());
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.stopped, 0u);
  EXPECT_EQ(result.missing, 0u);
}

TEST(CampaignTest, ReportsAreByteIdenticalAcrossInterruptAndResume) {
  const batch::CampaignManifest manifest = tiny_manifest();

  CampaignOptions fresh_options;
  fresh_options.store_dir = scratch_dir("campaign_fresh");
  const CampaignResult fresh = run_campaign(manifest, fresh_options);
  EXPECT_EQ(fresh.executed, 4u);
  EXPECT_EQ(fresh.missing, 0u);

  CampaignOptions interrupted_options;
  interrupted_options.store_dir = scratch_dir("campaign_resumed");
  interrupted_options.max_jobs = 2;
  const CampaignResult interrupted =
      run_campaign(manifest, interrupted_options);
  EXPECT_EQ(interrupted.executed, 2u);
  EXPECT_EQ(interrupted.stopped, 2u);
  EXPECT_EQ(interrupted.missing, 2u);

  interrupted_options.max_jobs = static_cast<std::size_t>(-1);
  const CampaignResult resumed = run_campaign(manifest, interrupted_options);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.cached, 2u);
  EXPECT_EQ(resumed.missing, 0u);

  const std::string fresh_csv = read_file(fresh.csv_path);
  EXPECT_FALSE(fresh_csv.empty());
  EXPECT_EQ(fresh_csv, read_file(resumed.csv_path));
  EXPECT_EQ(read_file(fresh.markdown_path), read_file(resumed.markdown_path));
}

TEST(CampaignTest, ReportsAreByteIdenticalAcrossWorkerCounts) {
  const batch::CampaignManifest manifest = tiny_manifest();

  CampaignOptions serial;
  serial.store_dir = scratch_dir("campaign_w1");
  serial.workers = 1;
  const CampaignResult one = run_campaign(manifest, serial);

  CampaignOptions pooled;
  pooled.store_dir = scratch_dir("campaign_w4");
  pooled.workers = 4;
  const CampaignResult four = run_campaign(manifest, pooled);

  EXPECT_EQ(one.executed, 4u);
  EXPECT_EQ(four.executed, 4u);
  const std::string csv = read_file(one.csv_path);
  EXPECT_FALSE(csv.empty());
  EXPECT_EQ(csv, read_file(four.csv_path));
}

TEST(CampaignTest, PrecisionColumnAppearsOnlyWithMixedJobs) {
  // fp64-only reports keep the pre-mixed header byte-for-byte; a grid with
  // mixed points gains the precision column.
  batch::CampaignManifest manifest = tiny_manifest();
  CampaignOptions fp64_options;
  fp64_options.store_dir = scratch_dir("campaign_fp64_only");
  const CampaignResult fp64 = run_campaign(manifest, fp64_options);
  const std::string fp64_csv = read_file(fp64.csv_path);
  EXPECT_EQ(fp64_csv.find("precision"), std::string::npos);

  manifest.algorithms = {perfsim::Algorithm::kScalapack};
  manifest.precisions = {perfsim::Precision::kFp64,
                         perfsim::Precision::kMixed};
  CampaignOptions mixed_options;
  mixed_options.store_dir = scratch_dir("campaign_mixed");
  const CampaignResult mixed = run_campaign(manifest, mixed_options);
  EXPECT_EQ(mixed.executed, 4u);
  EXPECT_TRUE(mixed.failures.empty());
  const std::string mixed_csv = read_file(mixed.csv_path);
  EXPECT_NE(mixed_csv.find("precision"), std::string::npos);
  EXPECT_NE(mixed_csv.find("mixed"), std::string::npos);
  const std::string mixed_md = read_file(mixed.markdown_path);
  EXPECT_NE(mixed_md.find("| precision |"), std::string::npos);
}

// --- server end-to-end over AF_UNIX -----------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  void start(EngineOptions options = {}) {
    // Each test gets its own directory (the fixture name is per-test).
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = scratch_dir(std::string("e2e_") + info->name());
    store_ = std::make_unique<batch::ResultStore>(dir_);
    // Default executor: the real batch::execute_job (replay tier specs run
    // in milliseconds), making these genuinely end-to-end.
    engine_ = std::make_unique<Engine>(*store_, std::move(options));
    ServerOptions server_options;
    // Socket paths are length-limited (~107 bytes): keep it short.
    socket_path_ = dir_ + "/s.sock";
    server_options.socket_path = socket_path_;
    server_ = std::make_unique<Server>(*engine_, server_options);
    thread_ = std::thread([this] { server_->serve(); });
  }

  void TearDown() override {
    if (server_) server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    engine_.reset();
    store_.reset();
  }

  std::string dir_;
  std::string socket_path_;
  std::unique_ptr<batch::ResultStore> store_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerFixture, PingSubmitWaitStatsOverSocket) {
  start();
  Client client(socket_path_);
  EXPECT_TRUE(client.ping().at("ok").as_bool());

  const batch::JobSpec spec = replay_spec(60);
  const json::Value submitted = client.submit(spec, "fig5", /*wait=*/true,
                                              /*tag=*/"t1");
  EXPECT_TRUE(submitted.at("ok").as_bool());
  EXPECT_EQ(submitted.at("tag").as_string(), "t1");
  EXPECT_EQ(submitted.at("key").as_string(), spec.key());
  EXPECT_EQ(submitted.at("status").as_string(), "done");
  EXPECT_GT(submitted.at("record").at("reps").as_array().size(), 0u);

  // Same spec again: first-class cache hit, record included inline.
  const json::Value cached = client.submit(spec, "fig5", /*wait=*/false);
  EXPECT_EQ(cached.at("status").as_string(), "cached");
  EXPECT_GT(cached.at("record").at("reps").as_array().size(), 0u);

  // Wait on the known key from a second connection.
  Client other(socket_path_);
  const json::Value waited = other.wait_key(spec.key());
  EXPECT_TRUE(waited.at("ok").as_bool());
  EXPECT_EQ(waited.at("status").as_string(), "done");

  const json::Value stats = client.stats();
  EXPECT_EQ(stats.at("stats").at("scheduler").at("executed").as_number(),
            1.0);
  EXPECT_EQ(stats.at("stats").at("scheduler").at("cache_hits").as_number(),
            1.0);
}

TEST_F(ServerFixture, MalformedLinesGetErrorsNotDisconnects) {
  start();
  Client client(socket_path_);
  json::Value bad = json::make_object();
  bad.set("op", "frobnicate");
  const json::Value response = client.request(bad);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("unknown op"),
            std::string::npos);
  // So does an out-of-range integer field.
  json::Value submit = json::make_object();
  submit.set("op", "submit");
  json::Value spec = json::make_object();
  spec.set("n", 96);
  spec.set("ranks", 4);
  spec.set("seed", 1e300);
  submit.set("spec", spec);
  const json::Value rejected = client.request(submit);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_NE(rejected.at("error").as_string().find("expected an integer"),
            std::string::npos);
  // The connection survives the errors.
  EXPECT_TRUE(client.ping().at("ok").as_bool());
}

TEST_F(ServerFixture, UnknownWaitKeyFailsFast) {
  start();
  Client client(socket_path_);
  const json::Value response = client.wait_key("0123456789abcdef");
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("unknown key"),
            std::string::npos);
}

TEST_F(ServerFixture, DrainFinishesInflightAndAnswersWaiters) {
  start();
  Client submitter(socket_path_);
  const batch::JobSpec spec = replay_spec(61, 128);
  const json::Value accepted =
      submitter.submit(spec, "default", /*wait=*/false);
  EXPECT_TRUE(accepted.at("ok").as_bool());

  json::Value drain_body = json::make_object();
  drain_body.set("op", "drain");
  const json::Value draining = submitter.request(drain_body);
  EXPECT_TRUE(draining.at("draining").as_bool());

  if (thread_.joinable()) thread_.join();  // serve() returns post-drain
  EXPECT_TRUE(store_->contains(spec.key()));
}

}  // namespace
}  // namespace plin::serve
