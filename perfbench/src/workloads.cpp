#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "batch/record.hpp"
#include "metrics.hpp"
#include "serve/client.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using plin::Stopwatch;
namespace batch = plin::batch;
namespace json = plin::json;
namespace monitor = plin::monitor;
namespace perfsim = plin::perfsim;
namespace serve = plin::serve;
namespace sparse = plin::sparse;

constexpr int kSetups = 5;      // set-ups per run; setup_s is their median
constexpr int kMinPasses = 2;   // a repeat is needed to prove determinism
constexpr int kRanks = 16;      // cg_memory / dense_lu world size

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A 64-bit stream id derived from the run seed and a path of indices.
std::uint64_t derive(std::uint64_t seed, std::initializer_list<std::uint64_t>
                                             path) {
  std::uint64_t h = splitmix(seed);
  for (std::uint64_t p : path) h = splitmix(h ^ splitmix(p + 1));
  return h;
}

/// Job seeds travel through the serve protocol as JSON numbers (doubles),
/// which carry integers exactly only below 2^53.
std::uint64_t job_seed(std::uint64_t bits) {
  return bits & ((std::uint64_t{1} << 53) - 1);
}

monitor::JobSpec cg_job(std::uint64_t seed, sparse::SparseKind kind,
                        std::size_t n) {
  monitor::JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kCg;
  spec.matrix = kind;
  spec.n = n;
  spec.ranks = kRanks;
  spec.seed = seed;
  spec.tolerance = 1e-11;
  spec.repetitions = 1;
  return spec;
}

monitor::JobSpec dense_job(std::uint64_t seed, perfsim::Algorithm algorithm,
                           perfsim::Precision precision, std::size_t n) {
  monitor::JobSpec spec;
  spec.algorithm = algorithm;
  spec.precision = precision;
  spec.n = n;
  spec.ranks = kRanks;
  spec.nb = 32;
  spec.seed = seed;
  spec.repetitions = 1;
  return spec;
}

std::vector<monitor::JobSpec> cg_mix(std::uint64_t seed, bool warmup) {
  return {cg_job(seed, sparse::SparseKind::kStencil5,
                 warmup ? 4096 : std::size_t{1} << 20),
          cg_job(seed, sparse::SparseKind::kRandom,
                 warmup ? 4096 : std::size_t{1} << 18),
          cg_job(seed, sparse::SparseKind::kStencil27,
                 warmup ? 4096 : 1000000)};
}

std::vector<monitor::JobSpec> dense_mix(std::uint64_t seed, bool warmup) {
  using perfsim::Algorithm;
  using perfsim::Precision;
  return {dense_job(seed, Algorithm::kScalapack, Precision::kFp64,
                    warmup ? 256 : 3072),
          dense_job(seed, Algorithm::kScalapack, Precision::kMixed,
                    warmup ? 256 : 3072),
          dense_job(seed, Algorithm::kIme, Precision::kFp64,
                    warmup ? 256 : 2048)};
}

/// Checks every job observation against the oracle and against the first
/// observation of the same job in this run.
class JobLedger {
 public:
  explicit JobLedger(Outcome& outcome) : outcome_(outcome) {}

  void check(const JobObservation& obs) {
    std::vector<std::string> problems = check_job(obs);
    const auto [it, inserted] = first_.emplace(obs.label, obs);
    if (!inserted && problems.empty()) problems = check_repeat(it->second, obs);
    outcome_.count(problems);
  }

  const JobObservation* first(const std::string& label) const {
    const auto it = first_.find(label);
    return it == first_.end() ? nullptr : &it->second;
  }

 private:
  Outcome& outcome_;
  std::map<std::string, JobObservation> first_;
};

/// Runs each spec of `mix` once through monitor::run_job; the clocks
/// cover the call only, the oracle runs after it.
void run_pass(const std::vector<monitor::JobSpec>& mix, Tracer& tracer,
              JobLedger& ledger, TimedPhase* phase) {
  for (const monitor::JobSpec& spec : mix) {
    std::optional<monitor::JobResult> result;
    std::string error;
    const double cpu0 = process_cpu_s();
    const Stopwatch wall;
    {
      const Tracer::Scope span = tracer.span("monitor.run_job");
      try {
        result = monitor::run_job(numeric_machine(), spec);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    const double wall_s = wall.elapsed_s();
    const double cpu_s = process_cpu_s() - cpu0;
    const std::string label = spec.describe();
    const std::vector<JobObservation> observed =
        result ? observe(label, *result)
               : std::vector<JobObservation>{
                     observe_failure(label, spec, error)};
    for (const JobObservation& obs : observed) ledger.check(obs);
    if (phase != nullptr) {
      phase->job_cpu_s.push_back(cpu_s);
      phase->job_wall_s.push_back(wall_s);
      phase->cpu_s += cpu_s;
      phase->wall_s += wall_s;
      ++phase->ops;
    }
  }
}

TimedPhase time_mix(const std::vector<monitor::JobSpec>& mix, double seconds,
                    Tracer& tracer, JobLedger& ledger) {
  TimedPhase phase;
  const Stopwatch wall;
  for (int pass = 0; pass < kMinPasses || wall.elapsed_s() < seconds;
       ++pass) {
    const double cpu_before = phase.cpu_s;
    run_pass(mix, tracer, ledger, &phase);
    phase.window_rate.push_back(static_cast<double>(mix.size()) /
                                (phase.cpu_s - cpu_before));
  }
  for (std::size_t kind = 0; kind < mix.size(); ++kind) {
    std::vector<double> samples;
    for (std::size_t i = kind; i < phase.job_cpu_s.size(); i += mix.size()) {
      samples.push_back(phase.job_cpu_s[i]);
    }
    phase.job_p50_s += median(samples) / static_cast<double>(mix.size());
  }
  return phase;
}

WorkloadRun run_job_mix(const RunOptions& options, Tracer& tracer,
                        const std::vector<monitor::JobSpec>& warmup,
                        const std::vector<monitor::JobSpec>& mix) {
  WorkloadRun run;
  JobLedger ledger(run.outcome);
  // Set-up: the lazy one-time work of the first job (SIMD dispatch, fiber
  // stack pool, payload pool) happens in a small job of every kind.
  for (int i = 0; i < kSetups; ++i) {
    const double cpu0 = process_cpu_s();
    run_pass(warmup, tracer, ledger, nullptr);
    run.setup_s.push_back(process_cpu_s() - cpu0);
  }
  Tracer untraced(false);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  run.untraced = time_mix(mix, phase_s, untraced, ledger);
  if (options.trace) run.traced = time_mix(mix, phase_s, tracer, ledger);
  for (const monitor::JobSpec& spec : mix) {
    const JobObservation* obs = ledger.first(spec.describe());
    if (obs == nullptr) continue;
    run.model_time_s += obs->model_s;
    run.model_energy_j += obs->model_j;
    run.digests.emplace_back(obs->label, obs->digest_hex());
  }
  return run;
}

// -- serve_small ---------------------------------------------------------------

/// The 12 small numeric job shapes: {ime, scalapack, cg} x n {256, 384} x
/// ranks {4, 8}, each about 20 ms of host time.
constexpr int kSmallShapes = 12;

batch::JobSpec small_numeric(int shape, std::uint64_t seed) {
  static constexpr perfsim::Algorithm kAlgorithms[] = {
      perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack,
      perfsim::Algorithm::kCg};
  batch::JobSpec spec;
  spec.tier = batch::Tier::kNumeric;
  spec.algorithm = kAlgorithms[shape % 3];
  spec.n = (shape / 3) % 2 == 0 ? 256 : 384;
  spec.ranks = (shape / 6) % 2 == 0 ? 4 : 8;
  spec.seed = seed;
  return spec;
}

struct PlannedRequest {
  batch::JobSpec spec;
  bool wait = true;
  bool fresh = false;  // introduces a key no earlier request used
};

/// One client's seeded request sequence: 80% hot-set reads, 16% unique
/// small numeric jobs, 2% unique replay-tier jobs and 2% same-key pairs
/// (an unwaited submit, then a waited one that coalesces onto it).
class ClientPlan {
 public:
  ClientPlan(const ServeMix& mix, int phase, int client)
      : mix_(mix),
        rng_(derive(mix.seed, {1, static_cast<std::uint64_t>(phase),
                               static_cast<std::uint64_t>(client)})),
        stream_(derive(mix.seed, {2, static_cast<std::uint64_t>(phase),
                                  static_cast<std::uint64_t>(client)})) {}

  bool mid_pair() const { return pair_pending_; }

  PlannedRequest next() {
    if (pair_pending_) {
      pair_pending_ = false;
      return {pair_spec_, true, false};
    }
    const std::uint64_t draw = rng_() % 100;
    if (draw < 80) return {mix_.hot[rng_() % mix_.hot.size()], true, false};
    if (draw < 96) return {small_numeric(shape(), fresh_seed()), true, true};
    if (draw < 98) return {small_replay(fresh_seed()), true, true};
    pair_spec_ = small_numeric(shape(), fresh_seed());
    pair_pending_ = true;
    return {pair_spec_, false, true};
  }

 private:
  int shape() { return static_cast<int>(rng_() % kSmallShapes); }
  std::uint64_t fresh_seed() {
    return job_seed(splitmix(stream_ + counter_++));
  }

  static batch::JobSpec small_replay(std::uint64_t seed) {
    batch::JobSpec spec;
    spec.tier = batch::Tier::kReplay;
    spec.machine = "mini:8x4";
    spec.algorithm = perfsim::Algorithm::kScalapack;
    spec.n = 96;
    spec.ranks = 4;
    spec.seed = seed;
    return spec;
  }

  const ServeMix& mix_;
  std::mt19937_64 rng_;
  std::uint64_t stream_;
  std::uint64_t counter_ = 0;
  bool pair_pending_ = false;
  batch::JobSpec pair_spec_;
};

ReplyObservation observe_reply(const batch::JobSpec& spec, bool waited,
                               const json::Value& response) {
  ReplyObservation obs;
  obs.key = spec.key();
  obs.waited = waited;
  const json::Value* ok = response.find("ok");
  obs.ok = ok != nullptr && ok->kind() == json::Kind::kBool && ok->as_bool();
  if (const json::Value* s = response.find("status");
      s != nullptr && s->kind() == json::Kind::kString) {
    obs.status = s->as_string();
  }
  if (const json::Value* v = response.find("via");
      v != nullptr && v->kind() == json::Kind::kString) {
    obs.via = v->as_string();
  }
  const json::Value* key = response.find("key");
  if (key == nullptr || key->kind() != json::Kind::kString ||
      key->as_string() != obs.key) {
    obs.ok = false;
    obs.status = "reply for another key";
  }
  if (const json::Value* record = response.find("record")) {
    obs.record_hash = batch::fnv1a64(json::serialize(*record)) | 1;
  }
  return obs;
}

void check_session(ServeSession& session,
                   const std::vector<ReplyObservation>& replies,
                   std::size_t unique_keys, Outcome& outcome) {
  std::size_t bad = 0;
  const std::vector<std::string> problems =
      check_serve(replies, session.finish(), unique_keys, &bad);
  outcome.attempted += replies.size();
  outcome.failed += bad;
  outcome.note(problems);
}

WorkloadRun run_serve_small(const RunOptions& options, Tracer& tracer) {
  WorkloadRun run;
  const ServeMix mix(options.seed);
  std::unique_ptr<ServeSession> session;
  std::vector<ReplyObservation> replies;
  ModelTotals totals;
  // Set-up: daemon start on an empty store plus the hot-set pre-warm,
  // repeated; the last session serves the timed traffic.
  for (int i = 0; i < kSetups; ++i) {
    if (session) {
      check_session(*session, replies, mix.hot.size(), run.outcome);
      session.reset();
    }
    replies.clear();
    const std::string dir = options.scratch + "/serve" + std::to_string(i);
    fs::remove_all(dir);
    const double cpu0 = process_cpu_s();
    session = std::make_unique<ServeSession>(dir);
    totals = prewarm(*session, mix, &replies);
    run.setup_s.push_back(process_cpu_s() - cpu0);
  }
  run.model_time_s = totals.seconds;
  run.model_energy_j = totals.joules;

  constexpr std::size_t kMinRequests = 1000;  // p99 keeps 10 samples beyond
  std::size_t unique_keys = mix.hot.size();
  Tracer untraced(false);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  run.untraced = drive_serve(*session, mix, 0, phase_s, kMinRequests,
                             untraced, &replies, &unique_keys);
  if (options.trace) {
    run.traced = drive_serve(*session, mix, 1, phase_s, kMinRequests, tracer,
                             &replies, &unique_keys);
  }
  check_session(*session, replies, unique_keys, run.outcome);
  return run;
}

}  // namespace

void Outcome::count(const std::vector<std::string>& found) {
  ++attempted;
  if (!found.empty()) ++failed;
  note(found);
}

void Outcome::note(const std::vector<std::string>& found) {
  problems.insert(problems.end(), found.begin(), found.end());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double TimedPhase::cpu_per_op() const {
  return ops > 0 ? cpu_s / static_cast<double>(ops) : 0.0;
}

bool known_workload(const std::string& name) {
  return name == "cg_memory" || name == "dense_lu" || name == "serve_small";
}

WorkloadRun run_workload(const RunOptions& options, Tracer& tracer) {
  if (options.workload == "cg_memory") {
    return run_job_mix(options, tracer, cg_mix(options.seed, true),
                       cg_mix(options.seed, false));
  }
  if (options.workload == "dense_lu") {
    return run_job_mix(options, tracer, dense_mix(options.seed, true),
                       dense_mix(options.seed, false));
  }
  PLIN_CHECK_MSG(options.workload == "serve_small",
                 "unknown workload '" + options.workload + "'");
  return run_serve_small(options, tracer);
}

plin::hw::MachineSpec numeric_machine() {
  return plin::hw::mini_cluster(32, 4);
}

namespace {

std::string created(const std::string& dir) {
  fs::create_directories(dir);
  return dir;
}

/// One engine worker per client connection (and per core at nproc = 4).
/// With fewer workers than closed-loop clients the engine runs saturated,
/// and the latency tail then measures queueing, which amplified every host
/// slowdown: p99 moved 0.30 (IQR/median) across ten runs with the daemon's
/// default of 2 workers.
serve::EngineOptions engine_options() {
  serve::EngineOptions options;
  options.workers = ServeMix::kClients;
  return options;
}

}  // namespace

ServeSession::ServeSession(const std::string& dir)
    : socket_(created(dir) + "/s.sock"),
      store_(dir + "/store"),
      engine_(store_, engine_options()),
      server_(engine_, serve::ServerOptions{socket_}),
      io_([this] { server_.serve(); }) {}

ServeSession::~ServeSession() {
  if (io_.joinable()) {
    server_.stop();
    io_.join();
  }
}

serve::EngineStats ServeSession::finish() {
  if (io_.joinable()) {
    server_.stop();
    io_.join();
  }
  engine_.drain();
  return engine_.stats();
}

ServeMix::ServeMix(std::uint64_t run_seed) : seed(run_seed) {
  // One hot key per shape, so the hot set's work is the same for every
  // seed; only the generated systems differ.
  for (int shape = 0; shape < kSmallShapes; ++shape) {
    hot.push_back(small_numeric(
        shape,
        job_seed(derive(seed, {0, static_cast<std::uint64_t>(shape)}))));
  }
}

TimedPhase drive_serve(ServeSession& session, const ServeMix& mix, int phase,
                       double seconds, std::size_t min_requests,
                       Tracer& tracer,
                       std::vector<ReplyObservation>* replies,
                       std::size_t* unique_keys) {
  enum class Kind { kExecuted, kHit, kOther };
  struct Done {
    double at_s;       // wall time since the phase started
    double cpu_s;      // process CPU clock at completion
    double latency_s;  // submit to reply
    Kind kind;
  };
  struct ClientLog {
    std::vector<Done> done;
    std::vector<ReplyObservation> replies;
    std::size_t fresh = 0;
  };
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < ServeMix::kClients; ++c) {
    clients.push_back(std::make_unique<serve::Client>(session.socket()));
  }
  std::vector<ClientLog> logs(ServeMix::kClients);
  std::atomic<std::size_t> sent{0};
  const double cpu0 = process_cpu_s();
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < ServeMix::kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      ClientPlan plan(mix, phase, c);
      const std::string tenant = "client" + std::to_string(c);
      while (plan.mid_pair() || wall.elapsed_s() < seconds ||
             sent.load() < min_requests) {
        const PlannedRequest request = plan.next();
        sent.fetch_add(1);
        if (request.fresh) ++log.fresh;
        ReplyObservation obs;
        const Stopwatch clock;
        try {
          const Tracer::Scope span = tracer.span("serve.request");
          obs = observe_reply(request.spec, request.wait,
                              clients[static_cast<std::size_t>(c)]->submit(
                                  request.spec, tenant, request.wait));
        } catch (const std::exception& e) {
          obs.key = request.spec.key();
          obs.status = std::string("client error: ") + e.what();
          log.replies.push_back(std::move(obs));
          return;
        }
        const double latency = clock.elapsed_s();
        const Kind kind = obs.status == "done" && obs.via == "queued"
                              ? Kind::kExecuted
                          : obs.status == "cached" ? Kind::kHit
                                                   : Kind::kOther;
        log.done.push_back({wall.elapsed_s(), process_cpu_s(), latency, kind});
        log.replies.push_back(std::move(obs));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TimedPhase out;
  out.wall_s = wall.elapsed_s();
  out.cpu_s = process_cpu_s() - cpu0;
  std::vector<Done> done;
  for (ClientLog& log : logs) {
    done.insert(done.end(), log.done.begin(), log.done.end());
    replies->insert(replies->end(), log.replies.begin(), log.replies.end());
    *unique_keys += log.fresh;
  }
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.at_s < b.at_s; });
  for (const Done& d : done) {
    out.latency_s.push_back(d.latency_s);
    if (d.kind == Kind::kExecuted) out.exec_s.push_back(d.latency_s);
    if (d.kind == Kind::kHit) out.hit_s.push_back(d.latency_s);
  }
  out.ops = done.size();
  // Windows of kWindow consecutive replies in completion order (a trailing
  // partial window is dropped unless it is the only one). Their medians
  // are the run's throughput, tail and executed-job figures, so a few
  // seconds of host contention move a few windows, not the figures. A
  // window's p99 has 10 samples beyond it.
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = std::max<std::size_t>(1, done.size() / kWindow);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = w * kWindow;
    const std::size_t hi = w + 1 == windows && done.size() < kWindow
                               ? done.size()
                               : lo + kWindow;
    if (hi <= lo) break;
    const double cpu_before = lo == 0 ? cpu0 : done[lo - 1].cpu_s;
    out.window_rate.push_back(static_cast<double>(hi - lo) /
                              (done[hi - 1].cpu_s - cpu_before));
    std::vector<double> latency, executed;
    for (std::size_t i = lo; i < hi; ++i) {
      latency.push_back(done[i].latency_s);
      if (done[i].kind == Kind::kExecuted) executed.push_back(done[i].latency_s);
    }
    if (const auto p99 = supported_percentile(latency, 0.99)) {
      out.window_p99_s.push_back(*p99);
    }
    if (!executed.empty()) out.window_exec_p50_s.push_back(median(executed));
  }
  if (!out.window_exec_p50_s.empty()) {
    out.job_p50_s = median(out.window_exec_p50_s);
  }
  return out;
}

ModelTotals prewarm(ServeSession& session, const ServeMix& mix,
                    std::vector<ReplyObservation>* replies) {
  ModelTotals totals;
  const auto client = std::make_unique<serve::Client>(session.socket());
  for (const batch::JobSpec& spec : mix.hot) {
    const json::Value response = client->submit(spec, "warm", true);
    replies->push_back(observe_reply(spec, true, response));
    if (const json::Value* record = response.find("record")) {
      for (const batch::RepetitionRecord& rep :
           batch::record_from_json(*record).repetitions) {
        totals.seconds += rep.duration_s;
        totals.joules += rep.total_j();
      }
    }
  }
  return totals;
}

}  // namespace perfbench
