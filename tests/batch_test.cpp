// Tests for the batch data layer: manifest parsing and grid expansion,
// content-addressed job keys, the record codec, the crash-safe result store
// (journal replay, torn-tail recovery, corruption detection) and the job
// runner. Campaigns themselves run on the serve engine (serve_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/manifest.hpp"
#include "batch/record.hpp"
#include "batch/runner.hpp"
#include "batch/spec.hpp"
#include "batch/store.hpp"
#include "support/error.hpp"

namespace plin::batch {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed up-front so reruns start clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_batch_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A 4-job numeric campaign small enough for unit tests.
CampaignManifest tiny_manifest() {
  CampaignManifest manifest;
  manifest.name = "tiny";
  manifest.tier = Tier::kNumeric;
  manifest.machine = "mini:8x4";
  manifest.algorithms = {perfsim::Algorithm::kIme,
                         perfsim::Algorithm::kScalapack};
  manifest.sizes = {96, 128};
  manifest.rank_counts = {4};
  manifest.repetitions = 2;
  return manifest;
}

// --- manifest parsing -------------------------------------------------------

TEST(ManifestTest, ParsesFullManifest) {
  const CampaignManifest m = parse_manifest(R"(# comment
campaign  demo
tier      replay
machine   marconi
reps      3
workers   4
retries   1
timeout_s 600
grid algorithm ime scalapack
grid n         8640 17280
grid ranks     144 576
grid layout    full half1 half2
grid nb        64
grid seed      1 2
)");
  EXPECT_EQ(m.name, "demo");
  EXPECT_EQ(m.tier, Tier::kReplay);
  EXPECT_EQ(m.machine, "marconi");
  EXPECT_EQ(m.repetitions, 3);
  EXPECT_EQ(m.workers, 4);
  EXPECT_EQ(m.retries, 1);
  EXPECT_DOUBLE_EQ(m.timeout_s, 600.0);
  EXPECT_EQ(m.job_count(), 2u * 2u * 2u * 3u * 1u * 2u);
  EXPECT_EQ(m.expand().size(), m.job_count());
}

TEST(ManifestTest, ExpansionIsCanonicalOrder) {
  CampaignManifest m = tiny_manifest();
  const std::vector<JobSpec> jobs = m.expand();
  ASSERT_EQ(jobs.size(), 4u);
  // algorithm outermost, then n.
  EXPECT_EQ(jobs[0].algorithm, perfsim::Algorithm::kIme);
  EXPECT_EQ(jobs[0].n, 96u);
  EXPECT_EQ(jobs[1].n, 128u);
  EXPECT_EQ(jobs[2].algorithm, perfsim::Algorithm::kScalapack);
  EXPECT_EQ(jobs[2].n, 96u);
  for (const JobSpec& job : jobs) {
    EXPECT_EQ(job.tier, Tier::kNumeric);
    EXPECT_EQ(job.machine, "mini:8x4");
    EXPECT_EQ(job.repetitions, 2);
  }
}

TEST(ManifestTest, RejectsUnknownKeyWithLineNumber) {
  try {
    parse_manifest("campaign x\nbogus 1\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ManifestTest, RejectsBadValuesAndEmptyGrids) {
  EXPECT_THROW(parse_manifest("tier warp\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("grid layout diagonal\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("grid n\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("machine nonsuch\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("reps 0\n"), InvalidArgument);
}

/// The message of the InvalidArgument that parsing `text` throws.
std::string manifest_error(const std::string& text) {
  try {
    (void)parse_manifest(text);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument for: " << text;
  return {};
}

TEST(ManifestTest, RejectsRepeatedGridValuesWithLineNumber) {
  // A repeated value would expand the same job twice and print its row
  // twice. Values compare after parsing, so "096" repeats "96".
  for (const char* grid :
       {"grid n 96 96 128\n", "grid n 96 128 096\n",
        "grid algorithm ime cg ime\n", "grid layout full full\n",
        "grid seed 3 3\n", "grid power_cap_w 0 0.0\n",
        "grid matrix stencil5 stencil5\n", "grid precond none none\n",
        "grid precision fp64 fp64\n", "grid ranks 4 4\n", "grid nb 8 8\n"}) {
    const std::string what =
        manifest_error("campaign dup\n" + std::string(grid));
    EXPECT_NE(what.find("line 2"), std::string::npos) << grid << what;
    EXPECT_NE(what.find("repeats"), std::string::npos) << grid << what;
  }
  EXPECT_EQ(parse_manifest("grid n 96 128\n").expand().size(), 2u);
}

TEST(ManifestTest, RejectsSeedsOutsideTheExactJsonRange) {
  // Seeds travel as JSON numbers: -1 would wrap to 2^64 - 1 and 2^60
  // would round in the journal.
  for (const char* seed : {"-1", "1152921504606846976", "9007199254740992"}) {
    const std::string what =
        manifest_error("campaign s\ngrid seed 1 " + std::string(seed) + "\n");
    EXPECT_NE(what.find("line 2"), std::string::npos) << seed << what;
    EXPECT_NE(what.find("2^53"), std::string::npos) << seed << what;
  }
  const CampaignManifest largest =
      parse_manifest("grid seed 0 9007199254740991\n");
  ASSERT_EQ(largest.seeds.size(), 2u);
  EXPECT_EQ(largest.seeds[1], 9007199254740991ull);
  EXPECT_EQ(checked_seed(0), 0u);
  EXPECT_THROW(checked_seed(-1), InvalidArgument);
  EXPECT_THROW(checked_seed(1L << 53), InvalidArgument);
}

TEST(ManifestTest, RejectsPowerCapsOnReplayTier) {
  EXPECT_THROW(
      parse_manifest("tier replay\nmachine marconi\ngrid power_cap_w 150\n"),
      InvalidArgument);
}

TEST(ManifestTest, PrecisionAxisExpandsForScalapackOnly) {
  const CampaignManifest m = parse_manifest(R"(
machine   mini:8x4
grid algorithm ime scalapack
grid n         96 128
grid precision fp64 mixed
)");
  const std::vector<JobSpec> jobs = m.expand();
  // 2 ime fp64 points + 2 scalapack points x 2 precisions.
  EXPECT_EQ(m.job_count(), 6u);
  ASSERT_EQ(jobs.size(), 6u);
  std::size_t mixed = 0;
  for (const JobSpec& job : jobs) {
    if (job.precision == perfsim::Precision::kMixed) {
      ++mixed;
      EXPECT_EQ(job.algorithm, perfsim::Algorithm::kScalapack);
    }
  }
  EXPECT_EQ(mixed, 2u);
  // Precision is the innermost axis: fp64 immediately precedes its mixed twin.
  EXPECT_EQ(jobs[2].precision, perfsim::Precision::kFp64);
  EXPECT_EQ(jobs[3].precision, perfsim::Precision::kMixed);
  EXPECT_EQ(jobs[3].n, jobs[2].n);
}

TEST(ManifestTest, AcceptsMixedPrecisionOnReplayTier) {
  // The replay tier prices mixed via the refinement-iteration model
  // (perfsim::predict_scalapack_mixed), so the grid parses and expands.
  const CampaignManifest m =
      parse_manifest("tier replay\nmachine marconi\n"
                     "grid algorithm scalapack\n"
                     "grid n 8640\n"
                     "grid precision fp64 mixed\n");
  EXPECT_EQ(m.job_count(), 2u);
  EXPECT_THROW(parse_manifest("grid precision fp16\n"), InvalidArgument);
}

TEST(ManifestTest, PrecondAxisExpandsForCgOnly) {
  const CampaignManifest m = parse_manifest(R"(
machine   mini:8x4
grid algorithm ime cg
grid n         96
grid precond   none jacobi
)");
  const std::vector<JobSpec> jobs = m.expand();
  // 1 ime point + 1 cg point x 2 preconditioners.
  EXPECT_EQ(m.job_count(), 3u);
  ASSERT_EQ(jobs.size(), 3u);
  std::size_t jacobi = 0;
  for (const JobSpec& job : jobs) {
    if (job.precond == solvers::CgPrecond::kJacobi) {
      ++jacobi;
      EXPECT_EQ(job.algorithm, perfsim::Algorithm::kCg);
    }
  }
  EXPECT_EQ(jacobi, 1u);
  EXPECT_THROW(parse_manifest("grid precond ilu\n"), InvalidArgument);
}

// --- spec keys --------------------------------------------------------------

TEST(SpecTest, KeyIsStableAcrossProcesses) {
  // Pinned value: changing the canonical format or hash is a format-version
  // bump and must be deliberate (stale store entries become cache misses).
  EXPECT_EQ(fnv1a64("powerlin"), 0xed687e7bbd43cc01ull);
  const JobSpec spec;
  EXPECT_EQ(spec.key(), JobSpec{}.key());
  EXPECT_EQ(spec.key().size(), 16u);
}

TEST(SpecTest, EveryResultFieldChangesTheKey) {
  const JobSpec base;
  const std::string base_key = base.key();
  JobSpec s = base;
  s.tier = Tier::kReplay;
  s.machine = "marconi";  // replay needs a paper machine; still a key change
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.machine = "mini:8x4";
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.algorithm = perfsim::Algorithm::kScalapack;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.n = 384;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.ranks = 8;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.layout = hw::LoadLayout::kHalfLoadOneSocket;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.nb = 64;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.seed = 2;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.repetitions = 5;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.iterations = 50;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.power_cap_w = 150.0;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.algorithm = perfsim::Algorithm::kScalapack;
  const std::string fp64_key = s.key();
  s.precision = perfsim::Precision::kMixed;
  EXPECT_NE(s.key(), fp64_key);
}

TEST(SpecTest, DefaultPrecisionKeepsPreExistingStoreKeys) {
  // fp64 is serialized implicitly: the canonical string must not mention
  // precision at all, so every key journaled before the axis existed still
  // hits the cache.
  const JobSpec spec;
  EXPECT_EQ(spec.canonical().find("precision"), std::string::npos);
  JobSpec mixed = spec;
  mixed.algorithm = perfsim::Algorithm::kScalapack;
  mixed.precision = perfsim::Precision::kMixed;
  EXPECT_NE(mixed.canonical().find("|precision=mixed"), std::string::npos);
  EXPECT_NE(mixed.describe().find("mixed"), std::string::npos);
}

TEST(SpecTest, DefaultPrecondKeepsPreExistingStoreKeys) {
  // The precond axis follows the same append-only rule as precision and
  // matrix: absent for the default, so every key journaled before the axis
  // existed (dense or unpreconditioned cg) still hits the cache.
  JobSpec cg;
  cg.algorithm = perfsim::Algorithm::kCg;
  const std::string plain = cg.canonical();
  EXPECT_EQ(plain.find("precond"), std::string::npos);
  EXPECT_NE(plain.find("|matrix="), std::string::npos);

  JobSpec jacobi = cg;
  jacobi.precond = solvers::CgPrecond::kJacobi;
  const std::string preconditioned = jacobi.canonical();
  EXPECT_NE(preconditioned.find("|precond=jacobi"), std::string::npos);
  // Ordered after the matrix token, as documented.
  EXPECT_LT(preconditioned.find("|matrix="),
            preconditioned.find("|precond=jacobi"));
  EXPECT_NE(jacobi.key(), cg.key());
  EXPECT_NE(jacobi.describe().find("jacobi"), std::string::npos);

  // Dense jobs never mention a preconditioner, even if the field is set.
  JobSpec dense;
  dense.precond = solvers::CgPrecond::kJacobi;
  EXPECT_EQ(dense.canonical().find("precond"), std::string::npos);
}

TEST(SpecTest, MachineNamesResolve) {
  EXPECT_GT(machine_from_name("marconi").total_nodes, 0);
  EXPECT_GT(machine_from_name("epyc").total_nodes, 0);
  EXPECT_EQ(machine_from_name("mini:8x4").total_nodes, 8);
  EXPECT_THROW(machine_from_name("mini:0x4"), InvalidArgument);
  EXPECT_THROW(machine_from_name("cray"), InvalidArgument);
}

// --- record serialization ---------------------------------------------------

JobRecord sample_record() {
  JobRecord record;
  record.spec.n = 96;
  record.spec.machine = "mini:8x4";
  record.spec.repetitions = 2;
  RepetitionRecord rep;
  rep.duration_s = 0.001234567891234567;
  rep.pkg_j[0] = 1.5;
  rep.pkg_j[1] = 1.25;
  rep.dram_j[0] = 0.125;
  rep.dram_j[1] = 0.0625;
  rep.residual = 3.0e-17;
  rep.host_s = 0.25;
  record.repetitions = {rep, rep};
  return record;
}

TEST(RecordTest, JsonRoundTripIsExact) {
  const JobRecord record = sample_record();
  const std::string text = json::serialize(to_json(record));
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.key(), record.key());
  ASSERT_EQ(back.repetitions.size(), 2u);
  EXPECT_EQ(back.repetitions[0].duration_s, record.repetitions[0].duration_s);
  EXPECT_EQ(back.repetitions[0].residual, record.repetitions[0].residual);
  EXPECT_EQ(back.repetitions[0].total_j(), record.repetitions[0].total_j());
  // Second round trip is byte-stable.
  EXPECT_EQ(json::serialize(to_json(back)), text);
}

TEST(RecordTest, MixedPrecisionRoundTripsThroughJson) {
  JobRecord record = sample_record();
  record.spec.algorithm = perfsim::Algorithm::kScalapack;
  record.spec.precision = perfsim::Precision::kMixed;
  const std::string text = json::serialize(to_json(record));
  EXPECT_NE(text.find("\"precision\""), std::string::npos);
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.spec.precision, perfsim::Precision::kMixed);
  EXPECT_EQ(back.key(), record.key());
  // fp64 records stay byte-stable: no precision field is emitted.
  const JobRecord fp64 = sample_record();
  EXPECT_EQ(json::serialize(to_json(fp64)).find("\"precision\""),
            std::string::npos);
}

TEST(RecordTest, CgPrecondAndHaloTrafficRoundTripThroughJson) {
  JobRecord record = sample_record();
  record.spec.algorithm = perfsim::Algorithm::kCg;
  record.spec.precond = solvers::CgPrecond::kJacobi;
  for (RepetitionRecord& rep : record.repetitions) {
    rep.cg_iters = 42;
    rep.nnz = 1234;
    rep.halo_messages = 168;
    rep.halo_bytes = 56448;
  }
  const std::string text = json::serialize(to_json(record));
  EXPECT_NE(text.find("\"precond\""), std::string::npos);
  EXPECT_NE(text.find("\"halo_msgs\""), std::string::npos);
  EXPECT_NE(text.find("\"halo_bytes\""), std::string::npos);
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.spec.precond, solvers::CgPrecond::kJacobi);
  EXPECT_EQ(back.key(), record.key());
  ASSERT_EQ(back.repetitions.size(), 2u);
  EXPECT_EQ(back.repetitions[0].halo_messages, 168u);
  EXPECT_EQ(back.repetitions[0].halo_bytes, 56448u);

  // Dense records stay byte-stable: none of the cg fields are emitted.
  const std::string dense = json::serialize(to_json(sample_record()));
  EXPECT_EQ(dense.find("\"precond\""), std::string::npos);
  EXPECT_EQ(dense.find("\"halo_msgs\""), std::string::npos);
  EXPECT_EQ(dense.find("\"halo_bytes\""), std::string::npos);
}

TEST(RecordTest, RejectsKeyMismatch) {
  json::Value value = to_json(sample_record());
  value.set("key", json::Value("0000000000000000"));
  EXPECT_THROW(record_from_json(value), Error);
}

// --- result store -----------------------------------------------------------

TEST(StoreTest, PutLookupAndReplay) {
  const std::string dir = scratch_dir("store_replay");
  const JobRecord record = sample_record();
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(record.key()));
    store.put(record);
    EXPECT_TRUE(store.contains(record.key()));
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  const JobRecord back = reopened.lookup(record.key());
  EXPECT_EQ(back.repetitions[0].duration_s, record.repetitions[0].duration_s);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "records" /
                         (record.key() + ".json")));
}

TEST(StoreTest, RecoversTornFinalLine) {
  const std::string dir = scratch_dir("store_torn");
  JobRecord first = sample_record();
  JobRecord second = sample_record();
  second.spec.seed = 2;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(second);
  }
  // Simulate a crash mid-append: chop the tail of the last journal line.
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  const std::string text = read_file(journal.string());
  std::ofstream out(journal, std::ios::binary | std::ios::trunc);
  out << text.substr(0, text.size() - 25);
  out.close();

  ResultStore recovered(dir);
  EXPECT_TRUE(recovered.recovered_torn_tail());
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.contains(first.key()));
  EXPECT_FALSE(recovered.contains(second.key()));
  // The torn job can be re-put and survives the next replay.
  recovered.put(second);
  ResultStore again(dir);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_FALSE(again.recovered_torn_tail());
}

TEST(StoreTest, TornTailRecoveryUnderConcurrentWriters) {
  // The serve daemon's restart path in miniature: a store that just
  // recovered a torn journal tail is immediately hammered by concurrent
  // writers (engine workers) while a reader replays lookups. Recovery,
  // appends and reads must compose into a consistent journal: a fresh
  // replay sees every completed put exactly once, no duplicates, no stale
  // rows.
  const std::string dir = scratch_dir("store_torn_concurrent");
  JobRecord first = sample_record();
  JobRecord torn = sample_record();
  torn.spec.seed = 999;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(torn);
  }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  const std::string text = read_file(journal.string());
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() - 25);
  }

  ResultStore store(dir);
  ASSERT_TRUE(store.recovered_torn_tail());
  ASSERT_EQ(store.size(), 1u);

  constexpr int kPerWriter = 40;
  const auto writer = [&](std::uint64_t base) {
    for (int i = 0; i < kPerWriter; ++i) {
      JobRecord record = sample_record();
      record.spec.seed = base + static_cast<std::uint64_t>(i);
      store.put(record);
    }
  };
  std::atomic<bool> stop_reading{false};
  std::thread reader([&] {
    // Concurrent reads must never see a half-written record.
    while (!stop_reading.load()) {
      if (store.contains(first.key())) {
        const JobRecord back = store.lookup(first.key());
        EXPECT_EQ(back.key(), first.key());
      }
    }
  });
  std::thread w1(writer, 1000);
  std::thread w2(writer, 2000);
  w1.join();
  w2.join();
  stop_reading = true;
  reader.join();

  // One survivor + both writers' records; the torn key was never re-put.
  EXPECT_EQ(store.size(), 1u + 2u * kPerWriter);

  ResultStore replayed(dir);
  EXPECT_FALSE(replayed.recovered_torn_tail());
  EXPECT_EQ(replayed.size(), 1u + 2u * kPerWriter);
  EXPECT_EQ(replayed.stats().duplicate_keys, 0u);
  EXPECT_EQ(replayed.stats().skipped_stale, 0u);
  EXPECT_FALSE(replayed.contains(torn.key()));
  for (std::uint64_t base : {1000ull, 2000ull}) {
    for (int i = 0; i < kPerWriter; ++i) {
      JobRecord probe = sample_record();
      probe.spec.seed = base + static_cast<std::uint64_t>(i);
      EXPECT_TRUE(replayed.contains(probe.spec.key()));
    }
  }
}

TEST(StoreTest, MidFileCorruptionThrows) {
  const std::string dir = scratch_dir("store_corrupt");
  JobRecord first = sample_record();
  JobRecord second = sample_record();
  second.spec.seed = 2;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(second);
  }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  std::string text = read_file(journal.string());
  text[0] = 'x';  // first line is no longer JSON; the last stays intact
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;
  EXPECT_THROW(ResultStore{dir}, IoError);
}

TEST(StoreTest, StaleKeysAreSkippedNotFatal) {
  const std::string dir = scratch_dir("store_stale");
  { ResultStore{dir}.put(sample_record()); }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  std::string text = read_file(journal.string());
  // Rewrite the stored key: the record now looks like an older format
  // version whose hash no longer matches.
  const std::string key = sample_record().key();
  text.replace(text.find(key), key.size(), "deadbeefdeadbeef");
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.skipped_stale(), 1u);
}

// --- runner -----------------------------------------------------------------

TEST(RunnerTest, NumericTierRejectsJacobi) {
  JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kJacobi;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, ReplayTierProducesPaperScaleRecord) {
  JobSpec spec;
  spec.tier = Tier::kReplay;
  spec.machine = "marconi";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 8640;
  spec.ranks = 144;
  spec.nb = 64;
  spec.repetitions = 3;
  const JobRecord record = execute_job(spec);
  ASSERT_EQ(record.repetitions.size(), 3u);
  EXPECT_GT(record.repetitions[0].duration_s, 0.0);
  EXPECT_GT(record.repetitions[0].total_j(), 0.0);
  EXPECT_EQ(record.repetitions[0].residual, 0.0);
  // Replay repetitions are analytic: identical by construction.
  EXPECT_EQ(record.repetitions[0].duration_s,
            record.repetitions[2].duration_s);
}

TEST(RunnerTest, ReplayTierPricesMixedPrecision) {
  JobSpec spec;
  spec.tier = Tier::kReplay;
  spec.machine = "marconi";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 8640;
  spec.ranks = 144;
  spec.nb = 64;
  spec.precision = perfsim::Precision::kMixed;
  const JobRecord mixed = execute_job(spec);
  spec.precision = perfsim::Precision::kFp64;
  const JobRecord fp64 = execute_job(spec);
  ASSERT_EQ(mixed.repetitions.size(), 1u);
  ASSERT_EQ(fp64.repetitions.size(), 1u);
  // fp32 factorization dominates: faster and cheaper than the fp64 run
  // even after paying for the refinement sweeps.
  EXPECT_LT(mixed.repetitions[0].duration_s, fp64.repetitions[0].duration_s);
  EXPECT_LT(mixed.repetitions[0].total_j(), fp64.repetitions[0].total_j());
  // Replay of a non-scalapack mixed job is still a contract violation.
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.precision = perfsim::Precision::kMixed;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, MixedPrecisionJobRunsGeppMixed) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 96;
  spec.ranks = 4;
  spec.precision = perfsim::Precision::kMixed;
  const JobRecord record = execute_job(spec);
  ASSERT_EQ(record.repetitions.size(), 1u);
  EXPECT_GT(record.repetitions[0].duration_s, 0.0);
  // Refinement drives the defect to fp64-grade accuracy (campaign guard
  // allows 1e-9; a well-conditioned system lands far below that).
  EXPECT_LT(record.repetitions[0].residual, 1e-11);
  EXPECT_GT(record.repetitions[0].residual, 0.0);
}

TEST(RunnerTest, MixedPrecisionRejectsNonGeppAlgorithms) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.n = 96;
  spec.ranks = 4;
  spec.precision = perfsim::Precision::kMixed;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, PowerCapStretchesDurationAndClampsPower) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.n = 512;
  spec.ranks = 16;
  const JobRecord uncapped = execute_job(spec);
  spec.power_cap_w = 30.0;  // well below the ~60 W/package full-load draw
  const JobRecord capped = execute_job(spec);
  const RepetitionRecord& u = uncapped.repetitions[0];
  const RepetitionRecord& c = capped.repetitions[0];
  EXPECT_GT(c.duration_s, u.duration_s);
  EXPECT_LT(c.total_j() / c.duration_s, u.total_j() / u.duration_s);
}

}  // namespace
}  // namespace plin::batch
