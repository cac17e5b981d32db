// Kernel perf-regression harness: it sweeps GEMM shapes (square,
// panel-shaped, KC-thin trailing-update) and the triangular solves over
// BOTH kernel paths — the retained naive reference and the cache-blocked
// packed engine — at BOTH precisions (fp64 and the fp32 tier the mixed
// GEPP factorization runs on), cross-checks their results, prints a
// GFLOP/s table and writes machine-readable `BENCH_kernels.json` so
// subsequent PRs have a perf trajectory to compare against.
//
// Flags:
//   --smoke         tiny sizes (CI smoke mode)
//   --out=PATH      JSON output path (default BENCH_kernels.json)
//   --check         exit nonzero unless blocked >= naive GFLOP/s on the
//                   largest square GEMM shape of the sweep
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

#include "linalg/kernel_config.hpp"
#include "linalg/kernels.hpp"
#include "support/rng.hpp"

namespace {

using namespace plin;

template <typename T>
linalg::BasicMatrix<T> random_matrix(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed) {
  linalg::BasicMatrix<T> m(rows, cols);
  Rng rng(seed);
  for (T& v : m.flat()) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  return m;
}

template <typename T>
constexpr const char* precision_name() {
  return sizeof(T) == sizeof(double) ? "fp64" : "fp32";
}

/// Naive-vs-blocked divergence envelope: the paths may round partial sums
/// differently, so the bound scales with the reduction length and the
/// scalar's epsilon; anything beyond it is a real bug.
template <typename T>
double diff_budget(std::size_t k) {
  const double unit = sizeof(T) == sizeof(double) ? 1e-12 : 1e-3;
  return unit * static_cast<double>(k) * 16.0;
}

struct GemmResult {
  std::string shape;
  const char* precision = "fp64";
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  double gflops_naive = 0.0;
  double gflops_blocked = 0.0;
  double max_abs_diff = 0.0;
  double diff_limit = 0.0;

  double speedup() const {
    return gflops_naive > 0.0 ? gflops_blocked / gflops_naive : 0.0;
  }
};

template <typename T>
GemmResult measure_gemm(const std::string& shape, std::size_t m, std::size_t n,
                        std::size_t k) {
  const linalg::BasicMatrix<T> a = random_matrix<T>(m, k, 101 + m + n + k);
  const linalg::BasicMatrix<T> b = random_matrix<T>(k, n, 202 + m + n + k);
  const linalg::BasicMatrix<T> c0 = random_matrix<T>(m, n, 303 + m + n + k);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);

  linalg::BasicMatrix<T> c_naive = c0;
  linalg::BasicMatrix<T> c_blocked = c0;
  linalg::gemm_naive<T>(T(1), a.view(), b.view(), T(0.5), c_naive.view());
  linalg::gemm_blocked<T>(T(1), a.view(), b.view(), T(0.5), c_blocked.view());
  double diff = 0.0;
  for (std::size_t i = 0; i < m * n; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(c_naive.flat()[i]) -
                                    static_cast<double>(c_blocked.flat()[i])));
  }

  linalg::BasicMatrix<T> c = c0;
  const double t_naive = bench::best_seconds([&] {
    linalg::gemm_naive<T>(T(1), a.view(), b.view(), T(0.5), c.view());
  });
  const double t_blocked = bench::best_seconds([&] {
    linalg::gemm_blocked<T>(T(1), a.view(), b.view(), T(0.5), c.view());
  });

  GemmResult result;
  result.shape = shape;
  result.precision = precision_name<T>();
  result.m = m;
  result.n = n;
  result.k = k;
  result.gflops_naive = flops / t_naive * 1e-9;
  result.gflops_blocked = flops / t_blocked * 1e-9;
  result.max_abs_diff = diff;
  result.diff_limit = diff_budget<T>(k);
  return result;
}

struct TrsmResult {
  std::string kernel;
  const char* precision = "fp64";
  std::size_t n = 0;
  std::size_t m = 0;
  double gflops_naive = 0.0;
  double gflops_blocked = 0.0;
  double max_abs_diff = 0.0;
};

template <typename T>
TrsmResult measure_trsm_lower(std::size_t n, std::size_t m) {
  linalg::BasicMatrix<T> l = random_matrix<T>(n, n, 404 + n);
  // Scale the strict lower triangle down so the solve is well conditioned
  // (unit-lower with O(1) entries grows the solution exponentially in n,
  // which would make the naive/blocked cross-check meaningless).
  const T scale = T(1) / static_cast<T>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l(i, j) *= scale;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = T(0);
    l(i, i) = T(1);
  }
  const linalg::BasicMatrix<T> b0 = random_matrix<T>(n, m, 505 + n);
  const double flops = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(m);

  linalg::BasicMatrix<T> x_naive = b0;
  linalg::BasicMatrix<T> x_blocked = b0;
  linalg::trsm_lower_unit_naive<T>(l.view(), x_naive.view());
  linalg::trsm_lower_unit_blocked<T>(l.view(), x_blocked.view());
  double diff = 0.0;
  for (std::size_t i = 0; i < n * m; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(x_naive.flat()[i]) -
                                    static_cast<double>(x_blocked.flat()[i])));
  }

  linalg::BasicMatrix<T> x(n, m);
  const double t_naive = bench::best_seconds([&] {
    x = b0;
    linalg::trsm_lower_unit_naive<T>(l.view(), x.view());
  });
  const double t_blocked = bench::best_seconds([&] {
    x = b0;
    linalg::trsm_lower_unit_blocked<T>(l.view(), x.view());
  });

  TrsmResult result;
  result.kernel = sizeof(T) == sizeof(double) ? "dtrsm_lower_unit"
                                              : "strsm_lower_unit";
  result.precision = precision_name<T>();
  result.n = n;
  result.m = m;
  result.gflops_naive = flops / t_naive * 1e-9;
  result.gflops_blocked = flops / t_blocked * 1e-9;
  result.max_abs_diff = diff;
  return result;
}

json::Value result_json(const char* kernel, const char* precision,
                        const std::string& shape, std::size_t m,
                        std::size_t n, std::size_t k, double gflops_naive,
                        double gflops_blocked, double max_abs_diff) {
  json::Value out = json::make_object();
  out.set("kernel", kernel);
  out.set("precision", precision);
  out.set("shape", shape);
  out.set("m", m);
  out.set("n", n);
  out.set("k", k);
  out.set("gflops_naive", gflops_naive);
  out.set("gflops_blocked", gflops_blocked);
  out.set("speedup", gflops_naive > 0.0 ? gflops_blocked / gflops_naive : 0.0);
  out.set("max_abs_diff", max_abs_diff);
  return out;
}

json::Value make_report(bool smoke, const std::vector<GemmResult>& gemm,
                        const std::vector<TrsmResult>& trsm) {
  const linalg::KernelConfig& cfg = linalg::active_kernel_config();
  json::Value config = json::make_object();
  config.set("mc", cfg.mc);
  config.set("kc", cfg.kc);
  config.set("nc", cfg.nc);
  config.set("mr", cfg.mr);
  config.set("nr", cfg.nr);
  config.set("trsm_block", cfg.trsm_block);
  json::Value report = bench::new_report("powerlin-bench-kernels/v2", smoke);
  report.set("kernel_config", std::move(config));
  json::Array results;
  for (const GemmResult& r : gemm) {
    results.push_back(result_json(
        std::string_view(r.precision) == "fp64" ? "dgemm" : "sgemm",
        r.precision, r.shape, r.m, r.n, r.k, r.gflops_naive, r.gflops_blocked,
        r.max_abs_diff));
  }
  for (const TrsmResult& r : trsm) {
    results.push_back(result_json(r.kernel.c_str(), r.precision, "square",
                                  r.n, r.m, r.n, r.gflops_naive,
                                  r.gflops_blocked, r.max_abs_diff));
  }
  report.set("results", std::move(results));
  return report;
}

int run_harness(bool smoke, bool check, const std::string& out_path) {
  // Shapes mirror how the solvers drive GEMM: square (whole-problem),
  // panel-shaped (tall-skinny C, the L21 * U12 panel product) and KC-thin
  // trailing updates (rank-nb, the dgetrf hot loop).
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 128, 192}
            : std::vector<std::size_t>{128, 256, 384, 512};
  const std::size_t nb = 64;

  std::vector<GemmResult> gemm;
  for (std::size_t s : sizes) {
    gemm.push_back(measure_gemm<double>("square", s, s, s));
    gemm.push_back(measure_gemm<float>("square", s, s, s));
  }
  for (std::size_t s : sizes) {
    if (s <= nb) continue;
    gemm.push_back(measure_gemm<double>("panel", s, nb, nb));
    gemm.push_back(measure_gemm<float>("panel", s, nb, nb));
    gemm.push_back(measure_gemm<double>("trailing", s, s, nb));
    gemm.push_back(measure_gemm<float>("trailing", s, s, nb));
  }

  std::vector<TrsmResult> trsm;
  const std::size_t trsm_n = sizes.back();
  trsm.push_back(measure_trsm_lower<double>(trsm_n, trsm_n));
  trsm.push_back(measure_trsm_lower<float>(trsm_n, trsm_n));

  std::printf("%-23s %6s %6s %6s | %12s %12s %8s %12s\n", "kernel/shape", "m",
              "n", "k", "naive GF/s", "blocked GF/s", "speedup",
              "max|diff|");
  const GemmResult* largest_square = nullptr;
  bool numerics_ok = true;
  for (const GemmResult& r : gemm) {
    const bool fp64 = std::string_view(r.precision) == "fp64";
    std::printf("%s/%-12s %4s %6zu %6zu %6zu | %12.3f %12.3f %7.2fx "
                "%12.3g\n",
                fp64 ? "dgemm" : "sgemm", r.shape.c_str(), r.precision, r.m,
                r.n, r.k, r.gflops_naive, r.gflops_blocked, r.speedup(),
                r.max_abs_diff);
    if (r.max_abs_diff > r.diff_limit) numerics_ok = false;
    if (fp64 && r.shape == "square" &&
        (largest_square == nullptr || r.m > largest_square->m)) {
      largest_square = &r;
    }
  }
  for (const TrsmResult& r : trsm) {
    std::printf("%-18s %4s %6zu %6zu %6s | %12.3f %12.3f %7.2fx %12.3g\n",
                r.kernel.c_str(), r.precision, r.n, r.m, "-", r.gflops_naive,
                r.gflops_blocked, r.gflops_blocked / r.gflops_naive,
                r.max_abs_diff);
  }

  bench::Gates gates;
  bench::write_report(out_path, make_report(smoke, gemm, trsm), gates);
  gates.record("naive-blocked-agree", numerics_ok,
               "naive/blocked results diverged");
  if (check && largest_square != nullptr) {
    gates.record("blocked>=naive",
                 largest_square->gflops_blocked >=
                     largest_square->gflops_naive,
                 bench::describe("blocked dgemm ",
                                 largest_square->gflops_blocked,
                                 " GF/s vs naive ",
                                 largest_square->gflops_naive, " GF/s at ",
                                 largest_square->m, "^3"));
  }
  return gates.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args =
      bench::parse_flags(argc, argv, {"smoke", "check", "out"});
  return run_harness(args.get_bool("smoke", false),
                     args.get_bool("check", false),
                     args.get("out", "BENCH_kernels.json"));
}
