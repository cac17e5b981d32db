#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "batch/record.hpp"
#include "batch/runner.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "peak.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "sparse/generate.hpp"
#include "sparse/spmv_kernel.hpp"
#include "support/stopwatch.hpp"
#include "xmpi/runtime.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace batch = plin::batch;
namespace hw = plin::hw;
namespace json = plin::json;
namespace linalg = plin::linalg;
namespace monitor = plin::monitor;
namespace perfsim = plin::perfsim;
namespace solvers = plin::solvers;
namespace sparse = plin::sparse;
namespace xmpi = plin::xmpi;
using plin::Stopwatch;

constexpr std::size_t kStencil5N = std::size_t{1} << 20;
constexpr std::size_t kHalo = 1024;  // one stencil5 grid row at kStencil5N

xmpi::RunConfig world(int ranks) {
  xmpi::RunConfig config;
  config.machine = numeric_machine();
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

/// Deterministic fill in [-0.5, 0.5).
template <typename T>
void fill(linalg::BasicMatrix<T>& m, std::uint64_t salt) {
  std::uint64_t s = salt;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      m(i, j) = static_cast<T>(static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5);
    }
  }
}

void require(Outcome& outcome, bool ok, const std::string& what) {
  outcome.count(ok ? std::vector<std::string>{}
                   : std::vector<std::string>{"layer probe: " + what});
}

/// Median of per-call seconds over `repeats` calls of `body`, each inside
/// a span called `name`.
template <typename Body>
double median_call_s(Tracer& tracer, const char* name, int repeats,
                     Body&& body) {
  for (int r = 0; r < repeats; ++r) {
    const Tracer::Scope span = tracer.span(name);
    body();
  }
  return median(tracer.durations(name));
}

// -- sparse --------------------------------------------------------------------

void probe_sparse(const RunOptions& options, Tracer& tracer,
                  MetricSet& metrics, Outcome& outcome) {
  struct System {
    sparse::SparseKind kind;
    std::size_t n;
  };
  // cg_memory's systems, split into its 16 rank blocks.
  const System systems[] = {{sparse::SparseKind::kStencil5, kStencil5N},
                            {sparse::SparseKind::kRandom, std::size_t{1} << 18},
                            {sparse::SparseKind::kStencil27, 1000000}};
  constexpr std::size_t kBlocks = 16;
  double nnz_total = 0.0;
  for (const System& sys : systems) {
    std::size_t block_nnz = 0;
    {
      const Tracer::Scope span = tracer.span("sparse.generate_rows");
      const std::size_t chunk = (sys.n + kBlocks - 1) / kBlocks;
      for (std::size_t lo = 0; lo < sys.n; lo += chunk) {
        block_nnz += sparse::generate_rows(sys.kind, options.seed, sys.n, lo,
                                           std::min(sys.n, lo + chunk))
                         .nnz();
      }
    }
    std::size_t matrix_nnz = 0;
    {
      const Tracer::Scope span = tracer.span("sparse.generate_matrix");
      matrix_nnz =
          sparse::generate_matrix(sys.kind, options.seed, sys.n).nnz();
    }
    require(outcome,
            block_nnz == matrix_nnz &&
                block_nnz == sparse::pattern_nnz(sys.kind, sys.n),
            std::string("generated nnz disagree for ") +
                sparse::kind_token(sys.kind));
    nnz_total += static_cast<double>(matrix_nnz);
  }
  const double rows_s = tracer.total("sparse.generate_rows");
  metrics.set("sparse.generate_rows_s", rows_s);
  metrics.set("sparse.generate_matrix_s",
              tracer.total("sparse.generate_matrix"));
  metrics.set("sparse.generate_mnnz_per_s", nnz_total / rows_s * 1e-6);

  // SpMV over the full stencil5 matrix with the active kernel.
  const sparse::CsrMatrix a = sparse::generate_matrix(
      sparse::SparseKind::kStencil5, options.seed, kStencil5N);
  std::vector<double> x(a.cols);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 + 1e-6 * (i % 97);
  std::vector<double> y(a.rows, 0.0);
  std::vector<std::uint32_t> rows(a.rows);
  std::iota(rows.begin(), rows.end(), 0u);
  const double spmv_s = median_call_s(tracer, "sparse.spmv_rows", 30, [&] {
    sparse::spmv_rows(a, x, y, rows);
  });
  std::vector<double> reference(a.rows, 0.0);
  sparse::spmv(a, x, reference);
  double worst = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    worst = std::max(worst, std::abs(y[i] - reference[i]) /
                                std::max(1.0, std::abs(reference[i])));
  }
  require(outcome, worst < 1e-12, "spmv_rows disagrees with spmv");
  // Computed traffic: values + column indices + row offsets + row list,
  // x and y once each.
  const double nnz = static_cast<double>(a.nnz());
  const double n = static_cast<double>(a.rows);
  const double bytes = 12.0 * nnz + 8.0 * (n + 1) + 4.0 * n + 16.0 * n;
  const double spmv_gbps = bytes / spmv_s * 1e-9;
  const double stream_gbps =
      triad_gbps(static_cast<std::size_t>(bytes / 24.0), 30);
  metrics.set("sparse.spmv_gbps", spmv_gbps);
  metrics.set("sparse.spmv_bytes_per_flop", bytes / (2.0 * nnz));
  metrics.set("sparse.stream_gbps", stream_gbps);
  metrics.set("sparse.spmv_frac_stream", spmv_gbps / stream_gbps);
  // Both working sets are stated beside the numbers; at this size they
  // fit the LLC of large servers, so the ratio compares like with like.
  json::Value sizes = json::make_object();
  sizes.set("spmv_bytes", bytes);
  sizes.set("stream_bytes", 24.0 * std::floor(bytes / 24.0));
  json::Value line = json::make_object();
  line.set("working_sets", std::move(sizes));
  std::cout << json::serialize(line) << "\n";
}

// -- linalg --------------------------------------------------------------------

void probe_linalg(Tracer& tracer, MetricSet& metrics, Outcome& outcome) {
  // dense_lu's local shapes on a 4x4 grid at n=3072, nb=32.
  constexpr std::size_t kLocal = 768;
  constexpr std::size_t kNb = 32;
  linalg::BasicMatrix<double> a(kLocal, kNb), b(kNb, kLocal), c(kLocal, kLocal);
  fill(a, 1);
  fill(b, 2);
  fill(c, 3);
  const double gemm_flops = 2.0 * kLocal * kLocal * kNb;
  const double dgemm_s = median_call_s(tracer, "linalg.dgemm", 40, [&] {
    linalg::dgemm(-1.0, a.view(), b.view(), 1.0, c.view());
  });
  linalg::BasicMatrix<float> af(kLocal, kNb), bf(kNb, kLocal), cf(kLocal, kLocal);
  fill(af, 4);
  fill(bf, 5);
  fill(cf, 6);
  const double sgemm_s = median_call_s(tracer, "linalg.sgemm", 40, [&] {
    linalg::gemm<float>(-1.0f, af.view(), bf.view(), 1.0f, cf.view());
  });

  // Rank-1 panel update, timed in batches (one call is microseconds).
  constexpr int kGerBatch = 200;
  linalg::BasicMatrix<double> panel(kLocal, kNb);
  fill(panel, 7);
  std::vector<double> gx(kLocal, 1e-3), gy(kNb, 1e-3);
  const double ger_s =
      median_call_s(tracer, "linalg.dger", 15, [&] {
        for (int i = 0; i < kGerBatch; ++i) {
          linalg::dger(-1.0, gx, gy, panel.view());
        }
      }) /
      kGerBatch;

  // Unit-lower 32x32 solve into a 32x768 block row, from a fresh copy
  // each call so values stay bounded.
  linalg::BasicMatrix<double> l(kNb, kNb);
  fill(l, 8);
  for (std::size_t i = 0; i < kNb; ++i) {
    for (std::size_t j = 0; j < kNb; ++j) {
      l(i, j) = i == j ? 1.0 : (j < i ? 0.05 * l(i, j) : 0.0);
    }
  }
  linalg::BasicMatrix<double> rhs0(kNb, kLocal);
  fill(rhs0, 9);
  for (int r = 0; r < 100; ++r) {
    linalg::BasicMatrix<double> rhs = rhs0;
    const Tracer::Scope span = tracer.span("linalg.dtrsm");
    linalg::dtrsm_lower_unit(l.view(), rhs.view());
  }
  const double trsm_s = median(tracer.durations("linalg.dtrsm"));
  bool finite = true;
  for (std::size_t i = 0; i < kLocal; ++i) {
    finite = finite && std::isfinite(c(i, i)) && std::isfinite(cf(i, i));
  }
  require(outcome, finite, "gemm produced a non-finite value");

  const double peak = fma_peak_gflops(5);
  const double dgemm_gflops = gemm_flops / dgemm_s * 1e-9;
  metrics.set("linalg.dgemm_gflops", dgemm_gflops);
  metrics.set("linalg.sgemm_gflops", gemm_flops / sgemm_s * 1e-9);
  metrics.set("linalg.dger_gflops", 2.0 * kLocal * kNb / ger_s * 1e-9);
  metrics.set("linalg.dtrsm_gflops",
              1.0 * kNb * kNb * kLocal / trsm_s * 1e-9);
  metrics.set("linalg.fma_peak_gflops", peak);
  metrics.set("linalg.dgemm_frac_peak", dgemm_gflops / peak);
}

// -- xmpi ----------------------------------------------------------------------

/// Host microseconds per operation: each rank builds its operation with
/// `make_op(comm)` (buffers live per rank, as in the solvers), then rank 0
/// times `ops` calls between two barriers; median of three worlds.
template <typename MakeOp>
double per_op_us(Tracer& tracer, const char* name, int ranks, int ops,
                 MakeOp&& make_op) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    double seconds = 0.0;
    const Tracer::Scope span = tracer.span(name);
    xmpi::Runtime::run(world(ranks), [&](xmpi::Comm& comm) {
      auto op = make_op(comm);
      comm.barrier();
      const Stopwatch clock;
      for (int k = 0; k < ops; ++k) op(k);
      comm.barrier();
      if (comm.rank() == 0) seconds = clock.elapsed_s();
    });
    samples.push_back(seconds / ops * 1e6);
  }
  return median(samples);
}

void probe_xmpi(Tracer& tracer, MetricSet& metrics, Outcome& outcome) {
  double spawn_us = 0.0;
  for (const int ranks : {8, 16}) {
    const std::string name = "xmpi.spawn_" + std::to_string(ranks);
    spawn_us += median_call_s(tracer, name.c_str(), 20, [&] {
                  xmpi::Runtime::run(world(ranks), [](xmpi::Comm&) {});
                }) /
                ranks * 1e6 / 2.0;
  }
  metrics.set("xmpi.spawn_us_per_rank", spawn_us);

  // CG's fused round: one 5-double sum per iteration.
  std::atomic<bool> sums_ok{true};
  metrics.set("xmpi.allreduce_small_us",
              per_op_us(tracer, "xmpi.allreduce", 16, 500,
                        [&](xmpi::Comm& comm) {
                          return [&comm, &sums_ok](int k) {
                            const double in[5] = {1.0, 2.0, 3.0, 4.0,
                                                  static_cast<double>(k)};
                            double out[5];
                            comm.allreduce(std::span<const double>(in),
                                           std::span<double>(out),
                                           xmpi::ReduceOp::kSum);
                            if (out[0] != comm.size()) sums_ok = false;
                          };
                        }));
  require(outcome, sums_ok, "allreduce returned a wrong sum");

  // stencil5 at n=2^20 on 16 ranks: one 1024-wide grid row to each side.
  metrics.set(
      "xmpi.halo_exchange_us",
      per_op_us(tracer, "xmpi.halo", 16, 200, [&](xmpi::Comm& comm) {
        return [&comm, out = std::vector<double>(2 * kHalo, 1.0),
                in = std::vector<double>(2 * kHalo)](int) mutable {
          const std::span<const double> o(out);
          const std::span<double> i(in);
          const int r = comm.rank();
          std::vector<xmpi::Request> requests;
          if (r > 0) requests.push_back(comm.irecv(i.first(kHalo), r - 1, 7));
          if (r + 1 < comm.size()) {
            requests.push_back(comm.irecv(i.last(kHalo), r + 1, 7));
          }
          if (r > 0) {
            requests.push_back(comm.isend_halo(o.first(kHalo), r - 1, 7));
          }
          if (r + 1 < comm.size()) {
            requests.push_back(comm.isend_halo(o.last(kHalo), r + 1, 7));
          }
          xmpi::wait_all(requests);
        };
      }));

  // dense_lu's panel: 768 x 32 doubles down a 4-rank process column.
  std::atomic<bool> bcast_ok{true};
  metrics.set(
      "xmpi.bcast_panel_us",
      per_op_us(tracer, "xmpi.bcast", 4, 100, [&](xmpi::Comm& comm) {
        return [&comm, &bcast_ok,
                panel = std::vector<double>(768 * 32)](int k) mutable {
          const int root = k % comm.size();
          if (comm.rank() == root) std::fill(panel.begin(), panel.end(), k);
          comm.bcast(std::span<double>(panel), root);
          if (panel.back() != k) bcast_ok = false;
        };
      }));
  require(outcome, bcast_ok, "bcast delivered a wrong panel");

  std::atomic<bool> maxloc_ok{true};
  metrics.set("xmpi.maxloc_us",
              per_op_us(tracer, "xmpi.maxloc", 4, 500, [&](xmpi::Comm& comm) {
                return [&comm, &maxloc_ok](int k) {
                  const int winner = k % comm.size();
                  const double v = comm.rank() == winner ? 2.0 : 1.0;
                  if (comm.allreduce_maxloc(v, comm.rank()).index != winner) {
                    maxloc_ok = false;
                  }
                };
              }));
  require(outcome, maxloc_ok, "maxloc picked the wrong rank");
}

// -- solvers + monitor ---------------------------------------------------------

double dense_residual(std::uint64_t seed, std::size_t n,
                      const std::vector<double>& x) {
  const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  return linalg::scaled_residual(a.view(), x, linalg::generate_rhs(seed, n));
}

void probe_solvers(const RunOptions& options, Tracer& tracer,
                   MetricSet& metrics, Outcome& outcome) {
  solvers::CgOptions cg;
  cg.kind = sparse::SparseKind::kStencil5;
  cg.n = kStencil5N;
  cg.seed = options.seed;
  cg.tolerance = 1e-11;
  solvers::CgResult cg_result;
  xmpi::RunResult cg_run;
  {
    const Tracer::Scope span = tracer.span("solvers.cg_solve");
    cg_run = xmpi::Runtime::run(world(16), [&](xmpi::Comm& comm) {
      solvers::CgResult r = solvers::solve_pcg(comm, cg);
      if (comm.rank() == 0) cg_result = std::move(r);
    });
  }
  const double cg_s = tracer.total("solvers.cg_solve");
  require(outcome, cg_result.converged && cg_result.iterations > 0,
          "cg did not converge");
  metrics.set("solvers.cg_solve_s", cg_s);
  metrics.set("solvers.cg_iters", cg_result.iterations);
  metrics.set("solvers.cg_host_us_per_iter",
              cg_s / std::max(1, cg_result.iterations) * 1e6);
  metrics.set("xmpi.parks_per_job", static_cast<double>(cg_run.host_parks));

  // The same system through the monitor: its own cost is the difference.
  monitor::JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kCg;
  spec.matrix = cg.kind;
  spec.n = cg.n;
  spec.ranks = 16;
  spec.seed = options.seed;
  spec.tolerance = cg.tolerance;
  spec.repetitions = 1;
  std::vector<std::string> problems;
  double run_job_s = 0.0;
  {
    Tracer::Scope span = tracer.span("monitor.self_probe");
    try {
      for (const JobObservation& obs :
           observe(spec.describe(), monitor::run_job(numeric_machine(), spec))) {
        const std::vector<std::string> found = check_job(obs);
        problems.insert(problems.end(), found.begin(), found.end());
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("monitor run_job threw: ") + e.what());
    }
    run_job_s = span.close();
  }
  outcome.count(problems);
  metrics.set("monitor.self_s", run_job_s - cg_s);

  constexpr std::size_t kDenseN = 3072;
  constexpr std::size_t kImeN = 2048;
  std::vector<double> x;
  {
    const Tracer::Scope span = tracer.span("solvers.gepp_solve");
    xmpi::Runtime::run(world(16), [&](xmpi::Comm& comm) {
      solvers::PdgesvOptions o;
      o.n = kDenseN;
      o.seed = options.seed;
      o.nb = 32;
      std::vector<double> r = solvers::solve_pdgesv(comm, o).x;
      if (comm.rank() == 0) x = std::move(r);
    });
  }
  require(outcome,
          dense_residual(options.seed, kDenseN, x) < kFp64ResidualBound,
          "gepp residual over bound");
  solvers::GeppMixedResult mixed;
  {
    const Tracer::Scope span = tracer.span("solvers.mixed_solve");
    xmpi::Runtime::run(world(16), [&](xmpi::Comm& comm) {
      solvers::GeppMixedOptions o;
      o.n = kDenseN;
      o.seed = options.seed;
      o.nb = 32;
      solvers::GeppMixedResult r = solvers::solve_gepp_mixed(comm, o);
      if (comm.rank() == 0) mixed = std::move(r);
    });
  }
  require(outcome,
          !mixed.fell_back && mixed.iters > 0 &&
              dense_residual(options.seed, kDenseN, mixed.x) <
                  kMixedResidualBound,
          "mixed precision fell back or missed its residual bound");
  {
    const Tracer::Scope span = tracer.span("solvers.ime_solve");
    xmpi::Runtime::run(world(16), [&](xmpi::Comm& comm) {
      solvers::ImepOptions o;
      o.n = kImeN;
      o.seed = options.seed;
      std::vector<double> r = solvers::solve_imep(comm, o).x;
      if (comm.rank() == 0) x = std::move(r);
    });
  }
  require(outcome, dense_residual(options.seed, kImeN, x) < kFp64ResidualBound,
          "ime residual over bound");
  metrics.set("solvers.gepp_solve_s", tracer.total("solvers.gepp_solve"));
  metrics.set("solvers.mixed_solve_s", tracer.total("solvers.mixed_solve"));
  metrics.set("solvers.mixed_refine_iters", mixed.iters);
  metrics.set("solvers.ime_solve_s", tracer.total("solvers.ime_solve"));
}

// -- perfsim -------------------------------------------------------------------

void probe_perfsim(Tracer& tracer, MetricSet& metrics, Outcome& outcome) {
  // The paper grid (manifests/paper_grid.plc): 72 replay cells on Marconi.
  const hw::MachineSpec machine = hw::marconi_a3();
  const perfsim::Simulator simulator(machine);
  struct Cell {
    perfsim::Workload workload;
    hw::Placement placement;
  };
  std::vector<Cell> cells;
  for (const perfsim::Algorithm algorithm :
       {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack}) {
    for (const std::size_t n : {8640, 17280, 25920, 34560}) {
      for (const int ranks : {144, 576, 1296}) {
        for (const hw::LoadLayout layout :
             {hw::LoadLayout::kFullLoad, hw::LoadLayout::kHalfLoadOneSocket,
              hw::LoadLayout::kHalfLoadTwoSockets}) {
          Cell cell{perfsim::Workload{}, hw::make_placement(ranks, layout,
                                                            machine)};
          cell.workload.algorithm = algorithm;
          cell.workload.n = n;
          cell.workload.nb = 64;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  bool positive = true;
  const double grid_s = median_call_s(tracer, "perfsim.predict_grid", 3, [&] {
    for (const Cell& cell : cells) {
      const perfsim::Prediction p =
          simulator.predict(cell.workload, cell.placement);
      positive = positive && p.duration_s > 0.0 && p.total_j() > 0.0;
    }
  });
  require(outcome, positive, "a replay prediction is not positive");
  metrics.set("perfsim.predict_us",
              grid_s / static_cast<double>(cells.size()) * 1e6);
}

// -- batch ---------------------------------------------------------------------

void probe_batch(const RunOptions& options, Tracer& tracer,
                 MetricSet& metrics, Outcome& outcome) {
  batch::JobSpec spec;  // small numeric job: ime n=256 on 4 ranks
  spec.seed = options.seed;
  batch::JobRecord record;
  const double execute_s =
      median_call_s(tracer, "batch.execute_job", 7,
                    [&] { record = batch::execute_job(spec); });
  require(outcome,
          record.repetitions.size() == 1 &&
              record.repetitions[0].residual < kFp64ResidualBound,
          "execute_job returned a bad record");
  const std::string bytes = json::serialize(batch::to_json(record));
  metrics.set("batch.execute_job_ms", execute_s * 1e3);
  metrics.set("batch.record_bytes", static_cast<double>(bytes.size()));

  const std::string dir = options.scratch + "/store_probe";
  fs::remove_all(dir);
  batch::ResultStore store(dir);
  constexpr int kRecords = 200;
  std::vector<std::string> keys;
  for (int i = 0; i < kRecords; ++i) {
    record.spec.seed = options.seed + 1 + static_cast<std::uint64_t>(i);
    keys.push_back(record.key());
    const Tracer::Scope span = tracer.span("batch.store_put");
    store.put(record);
  }
  bool round_trip = true;
  for (const std::string& key : keys) {
    batch::JobRecord back;
    {
      const Tracer::Scope span = tracer.span("batch.store_get");
      back = store.lookup(key);
    }
    round_trip = round_trip && back.key() == key &&
                 back.repetitions.size() == record.repetitions.size();
  }
  require(outcome, round_trip && store.size() == kRecords,
          "store lost or altered a record");
  metrics.set("batch.store_put_us",
              median(tracer.durations("batch.store_put")) * 1e6);
  metrics.set("batch.store_get_us",
              median(tracer.durations("batch.store_get")) * 1e6);
}

// -- serve ---------------------------------------------------------------------

void probe_serve(const RunOptions& options, Tracer& tracer,
                 MetricSet& metrics, Outcome& outcome) {
  const ServeMix mix(options.seed);
  const std::string dir = options.scratch + "/serve_probe";
  fs::remove_all(dir);
  ServeSession session(dir);
  std::vector<ReplyObservation> replies;
  (void)prewarm(session, mix, &replies);
  std::size_t unique_keys = mix.hot.size();
  const TimedPhase phase = drive_serve(session, mix, 2, 1.0, 400, tracer,
                                       &replies, &unique_keys);
  const plin::serve::EngineStats stats = session.finish();
  std::size_t bad = 0;
  outcome.note(check_serve(replies, stats, unique_keys, &bad));
  outcome.attempted += replies.size();
  outcome.failed += bad;
  metrics.set("serve.hit_latency_p50_ms", median(phase.hit_s) * 1e3);
  metrics.set("serve.cold_latency_p50_ms", median(phase.exec_s) * 1e3);
  metrics.set("serve.cache_hit_ratio",
              static_cast<double>(stats.cache_hits) /
                  static_cast<double>(stats.submitted));
  metrics.set("serve.executed_per_unique",
              static_cast<double>(stats.executed) /
                  static_cast<double>(unique_keys));
  metrics.set("serve.coalesced", static_cast<double>(stats.coalesced));
}

}  // namespace

void measure_layers(const RunOptions& options, Tracer& tracer,
                    MetricSet& metrics, Outcome& outcome) {
  probe_sparse(options, tracer, metrics, outcome);
  probe_linalg(tracer, metrics, outcome);
  probe_xmpi(tracer, metrics, outcome);
  probe_solvers(options, tracer, metrics, outcome);
  probe_perfsim(tracer, metrics, outcome);
  probe_batch(options, tracer, metrics, outcome);
  probe_serve(options, tracer, metrics, outcome);
}

}  // namespace perfbench
