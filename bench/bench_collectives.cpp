// Collective-schedule and transport benchmark: tree vs scalable schedules
// and the payload pool's allocation savings.
//
// For each workload x rank count the harness runs the seed tree schedules
// and the scalable schedules (PLIN_XMPI_COLL=scalable equivalent) and
// records the virtual duration, the bytes funneled through rank 0
// (send + recv side, `TrafficCounters::through_bytes`), total message
// counts, payload acquires vs heap allocations and host wall-clock.
//
// Output: a table plus machine-readable `BENCH_collectives.json`
// (schema powerlin-bench-collectives/v1).
//
// Flags:
//   --smoke     small rank counts (CI smoke mode)
//   --out=PATH  JSON output path (default BENCH_collectives.json)
//   --check     exit nonzero unless, at the largest rank count,
//               (a) the scalable allgather and allreduce move >= 2x less
//                   bytes through rank 0 than the tree schedules, and
//               (b) the pool removes heap allocations (misses < payload
//                   acquires; without recycling every acquire would
//                   allocate).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

// ---- workloads -------------------------------------------------------------

/// Ring-friendly allgather: every rank contributes 256 doubles (2 KiB) and
/// receives the 256*P concatenation — the tree schedule funnels all of it
/// through rank 0 twice (gather then broadcast).
void allgather_blocks(xmpi::Comm& comm) {
  constexpr std::size_t kChunk = 256;
  std::vector<double> mine(kChunk, comm.rank() + 0.25);
  std::vector<double> all(kChunk * static_cast<std::size_t>(comm.size()));
  for (int round = 0; round < 2; ++round) {
    comm.allgather(std::span<const double>(mine), std::span<double>(all));
  }
}

/// Large-vector allreduce (4096 doubles = 32 KiB): the reduce-scatter +
/// allgather schedule's bandwidth-bound regime.
void allreduce_vector(xmpi::Comm& comm) {
  constexpr std::size_t kCount = 4096;
  std::vector<double> data(kCount, comm.rank() * 1e-3 + 1.0);
  std::vector<double> out(kCount);
  for (int round = 0; round < 2; ++round) {
    comm.allreduce(std::span<const double>(data), std::span<double>(out),
                   xmpi::ReduceOp::kSum);
  }
}

/// Scalar allreduce: the latency-bound regime (recursive doubling), the
/// shape solvers hit once per panel (pivot norms, convergence checks).
void allreduce_scalar(xmpi::Comm& comm) {
  double acc = comm.rank() * 0.5;
  for (int round = 0; round < 8; ++round) {
    acc = comm.allreduce_value(acc, xmpi::ReduceOp::kMax);
  }
}

/// Pivot-selection shape: allreduce_maxloc once per "panel".
void maxloc_rounds(xmpi::Comm& comm) {
  for (int round = 0; round < 8; ++round) {
    (void)comm.allreduce_maxloc(static_cast<double>((comm.rank() * 7 + round) %
                                                    comm.size()),
                                comm.rank());
  }
}

using Workload = void (*)(xmpi::Comm&);

struct WorkloadSpec {
  const char* name;
  Workload body;
  bool gated;  // participates in the --check root-bytes gate
};

constexpr WorkloadSpec kWorkloads[] = {
    {"allgather", allgather_blocks, true},
    {"allreduce", allreduce_vector, true},
    {"allreduce_small", allreduce_scalar, false},
    {"maxloc", maxloc_rounds, false},
};

// ---- measurement -----------------------------------------------------------

/// One mode of one workload: virtual + host timing and transport counters.
struct ModeSample {
  double duration_s = 0.0;      // virtual
  double host_s = 0.0;          // best-of-N wall clock
  std::uint64_t root_bytes = 0;  // rank 0 through_bytes()
  std::uint64_t messages = 0;   // world total (send-side)
  std::uint64_t acquires = 0;   // payload buffers requested (eager sends)
  std::uint64_t allocs = 0;     // payload-pool misses = heap allocations
  std::uint64_t pool_hits = 0;
  std::uint64_t rendezvous = 0;
};

ModeSample sample(const WorkloadSpec& spec, int ranks,
                  xmpi::CollectiveMode collectives) {
  xmpi::RunConfig config = bench::full_load_config(ranks);
  config.transport.collectives = collectives;
  ModeSample out;
  const auto once = [&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, spec.body);
    out.duration_s = run.duration_s;
    out.root_bytes = run.rank_traffic.empty()
                         ? 0
                         : run.rank_traffic.front().through_bytes();
    out.messages = run.traffic.data_messages + run.traffic.control_messages;
    out.acquires = run.transport.pool.acquires();
    out.allocs = run.transport.pool.misses;
    out.pool_hits = run.transport.pool.hits;
    out.rendezvous = run.transport.rendezvous_messages;
  };
  out.host_s = bench::best_seconds(once);
  return out;
}

struct CaseResult {
  std::string workload;
  int ranks = 0;
  bool gated = false;
  ModeSample tree;
  ModeSample scalable;

  double root_ratio() const {
    return scalable.root_bytes > 0
               ? static_cast<double>(tree.root_bytes) /
                     static_cast<double>(scalable.root_bytes)
               : 0.0;
  }
};

json::Value mode_json(const ModeSample& m) {
  json::Value out = json::make_object();
  out.set("duration_s", m.duration_s);
  out.set("root_through_bytes", m.root_bytes);
  out.set("messages", m.messages);
  out.set("acquires", m.acquires);
  out.set("alloc_count", m.allocs);
  out.set("pool_hits", m.pool_hits);
  out.set("rendezvous_messages", m.rendezvous);
  out.set("host_s", m.host_s);
  return out;
}

int run_harness(bool smoke, bool check, const std::string& out_path) {
  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{48, 144} : std::vector<int>{144, 576};

  std::vector<CaseResult> results;
  for (const WorkloadSpec& spec : kWorkloads) {
    for (const int ranks : rank_counts) {
      CaseResult r;
      r.workload = spec.name;
      r.ranks = ranks;
      r.gated = spec.gated;
      r.tree = sample(spec, ranks, xmpi::CollectiveMode::kTree);
      r.scalable = sample(spec, ranks, xmpi::CollectiveMode::kScalable);
      results.push_back(std::move(r));
    }
  }

  std::printf("%-16s %6s | %14s %14s %7s | %10s %10s %10s\n", "workload",
              "ranks", "tree root B", "scal root B", "ratio", "acquires",
              "allocs", "rndzvs");
  for (const CaseResult& r : results) {
    std::printf("%-16s %6d | %14llu %14llu %6.2fx | %10llu %10llu %10llu\n",
                r.workload.c_str(), r.ranks,
                static_cast<unsigned long long>(r.tree.root_bytes),
                static_cast<unsigned long long>(r.scalable.root_bytes),
                r.root_ratio(),
                static_cast<unsigned long long>(r.tree.acquires),
                static_cast<unsigned long long>(r.tree.allocs),
                static_cast<unsigned long long>(r.tree.rendezvous));
  }

  json::Value report =
      bench::new_report("powerlin-bench-collectives/v1", smoke);
  json::Array rows;
  for (const CaseResult& r : results) {
    json::Value row = json::make_object();
    row.set("workload", r.workload);
    row.set("ranks", r.ranks);
    row.set("tree", mode_json(r.tree));
    row.set("scalable", mode_json(r.scalable));
    row.set("root_bytes_ratio", r.root_ratio());
    rows.push_back(std::move(row));
  }
  report.set("results", std::move(rows));
  bench::Gates gates;
  bench::write_report(out_path, report, gates);

  if (!check) return gates.exit_code();
  const int largest = rank_counts.back();
  // Rendezvous delivery already bypasses the allocator for most exact-match
  // receives, so the pool's remaining win is gated in aggregate over the
  // whole sweep rather than per workload (any single case can legitimately
  // go ~all-rendezvous under favourable host scheduling). Without the
  // pool every acquire would be a heap allocation.
  std::uint64_t allocs = 0;
  std::uint64_t acquires = 0;
  for (const CaseResult& r : results) {
    if (r.ranks != largest) continue;
    allocs += r.tree.allocs;
    acquires += r.tree.acquires;
    if (r.gated) {
      gates.record(r.workload + "-root-bytes>=2x", r.root_ratio() >= 2.0,
                   bench::describe("only ", r.root_ratio(),
                                   "x less data through rank 0 at ", r.ranks,
                                   " ranks"));
    }
  }
  gates.record("pool-allocs<acquires", allocs < acquires,
               bench::describe(allocs, " heap allocations, ", acquires,
                               " payload acquires at ", largest, " ranks"));
  return gates.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args =
      bench::parse_flags(argc, argv, {"smoke", "check", "out"});
  return run_harness(args.get_bool("smoke", false),
                     args.get_bool("check", false),
                     args.get("out", "BENCH_collectives.json"));
}
