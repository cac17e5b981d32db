// The three workloads (perfbench/README.md has the table):
//
//   cg_memory    numeric-tier CG jobs through monitor::run_job — host time
//                in sparse generation and SpMV (memory bound);
//   dense_lu     numeric-tier GEPP fp64 / GEPP mixed / IMe jobs through
//                monitor::run_job — host time in linalg kernels and xmpi
//                panel collectives (compute bound);
//   serve_small  the serve Engine + Server on a real AF_UNIX socket driven
//                by 4 closed-loop client connections — per-request
//                overhead, store reads beside journalled writes.
//
// Every input comes from the run seed. Each workload is set up several
// times (the median is setup_s), then timed; the oracle (oracle.hpp) runs
// outside every timed region.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "batch/spec.hpp"
#include "batch/store.hpp"
#include "hwmodel/machine.hpp"
#include "oracle.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // run-private directory for stores and sockets
};

/// Operations attempted, operations that failed, and why.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  /// Counts one operation, failed when `found` is non-empty.
  void count(const std::vector<std::string>& found);
  /// Records problems that are not tied to a single operation.
  void note(const std::vector<std::string>& found);
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Host CPU seconds consumed by this process so far, all threads. Unlike
/// wall time it does not grow while a virtual machine's CPUs are stolen by
/// its host, which on shared hosts moves wall time by tens of percent from
/// one run to the next.
double process_cpu_s();

/// Host timings of one timed phase.
struct TimedPhase {
  /// Typical host seconds per executed job. Job mixes: each job kind's
  /// median process CPU seconds, averaged over the kinds (a plain median
  /// of a mix flips between kinds). Serve: the median over reply windows
  /// of the window's median wall latency of requests that executed a job.
  double job_p50_s = 0.0;
  std::vector<double> latency_s;   // serve: wall latency, submit to reply
  std::vector<double> hit_s;       // serve: requests answered from the store
  std::vector<double> exec_s;      // serve: requests that executed a job
  std::vector<double> job_cpu_s;   // job mixes: CPU seconds per job
  std::vector<double> job_wall_s;  // job mixes: wall seconds per job
  /// Completed operations per host CPU-second in each throughput window:
  /// one pass of the job mix, or 1000 consecutive serve replies. jobs_per_s
  /// is their median, so a transient stall moves one window, not the figure.
  std::vector<double> window_rate;
  /// Serve: each 1000-reply window's p99 latency and its executed-job
  /// median latency.
  std::vector<double> window_p99_s;
  std::vector<double> window_exec_p50_s;
  double cpu_s = 0.0;   // process CPU seconds over the phase
  double wall_s = 0.0;  // wall seconds of the phase
  std::size_t ops = 0;  // completed operations

  double cpu_per_op() const;
};

struct WorkloadRun {
  std::vector<double> setup_s;  // one sample per set-up
  TimedPhase untraced;
  TimedPhase traced;            // trace runs only
  double model_time_s = 0.0;    // one pass of the job mix / the hot set
  double model_energy_j = 0.0;
  /// Per-job digests (label -> hex), cg_memory and dense_lu only.
  std::vector<std::pair<std::string, std::string>> digests;
  Outcome outcome;
};

bool known_workload(const std::string& name);

/// Sets up and times `options.workload`. Trace runs time an untraced and a
/// traced phase of half the run each; other runs one untraced phase.
WorkloadRun run_workload(const RunOptions& options, Tracer& tracer);

/// The machine every numeric job runs on (powerlin_run's numeric tier).
plin::hw::MachineSpec numeric_machine();

/// An Engine + Server with a fresh, empty store under `dir`, serving on
/// `dir`/s.sock from its own IO thread.
class ServeSession {
 public:
  explicit ServeSession(const std::string& dir);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  const std::string& socket() const { return socket_; }

  /// Stops the server (queued work drains first) and returns the engine's
  /// final counters.
  plin::serve::EngineStats finish();

 private:
  std::string socket_;
  plin::batch::ResultStore store_;
  plin::serve::Engine engine_;
  plin::serve::Server server_;
  std::thread io_;  // declared last: it runs server_
};

/// The seeded serve request mix.
struct ServeMix {
  static constexpr int kClients = 4;
  std::uint64_t seed = 1;
  std::vector<plin::batch::JobSpec> hot;  // pre-warmed at set-up

  explicit ServeMix(std::uint64_t seed);
};

/// Closed-loop traffic of ServeMix::kClients connections against
/// `session`: each client sends its next request only after the previous
/// reply, until `seconds` have passed and at least `min_requests` were
/// sent. `phase` selects fresh cold keys, so a second phase on the same
/// session does not replay the first one's. `replies` receives every
/// reply and `unique_keys` grows by the cold keys the traffic introduced;
/// returns the host timings.
TimedPhase drive_serve(ServeSession& session, const ServeMix& mix, int phase,
                       double seconds, std::size_t min_requests,
                       Tracer& tracer,
                       std::vector<ReplyObservation>* replies,
                       std::size_t* unique_keys);

/// Sum of the modelled duration and total energy over records.
struct ModelTotals {
  double seconds = 0.0;
  double joules = 0.0;
};

/// Submits (wait=true) and observes every hot spec from one connection;
/// returns the model totals of the hot set's records.
ModelTotals prewarm(ServeSession& session, const ServeMix& mix,
                    std::vector<ReplyObservation>* replies);

}  // namespace perfbench
