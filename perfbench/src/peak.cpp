#include "peak.hpp"

#include <chrono>
#include <vector>

#include "metrics.hpp"

namespace perfbench {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Eight lanes: one zmm register under AVX-512, two ymm under AVX2. The
// file is compiled with FMA contraction on, so a * b + c is one FMA.
typedef double Lanes __attribute__((vector_size(64)));

constexpr int kChains = 12;  // enough independent chains to hide latency

__attribute__((noinline)) Lanes fma_burst(long iterations, Lanes mul,
                                          Lanes add) {
  Lanes acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = add * static_cast<double>(c);
  for (long i = 0; i < iterations; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  }
  Lanes sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum += acc[c];
  return sum;
}

}  // namespace

double fma_peak_gflops(int repeats) {
  constexpr long kIterations = 4'000'000;
  // Runtime operands, so the burst cannot be folded at compile time; the
  // multiplier keeps every chain bounded.
  volatile double seed = 0.999999;
  const double m = seed;
  Lanes mul = {m, m, m, m, m, m, m, m};
  Lanes add = mul * 1e-3;
  std::vector<double> rates;
  double sink = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_s();
    const Lanes out = fma_burst(kIterations, mul, add);
    const double dt = now_s() - t0;
    sink += out[0];
    rates.push_back(2.0 * 8.0 * kChains * static_cast<double>(kIterations) /
                    dt * 1e-9);
  }
  volatile double keep = sink;
  (void)keep;
  return median(rates);
}

double triad_gbps(std::size_t elements, int repeats) {
  std::vector<double> a(elements, 0.0), b(elements, 1.0), c(elements, 2.0);
  volatile double scale_in = 0.5;
  const double s = scale_in;
  std::vector<double> rates;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_s();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < elements; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = now_s() - t0;
    rates.push_back(24.0 * static_cast<double>(elements) / dt * 1e-9);
    b[r % elements] = a[(r + 1) % elements];  // a dependence across sweeps
  }
  return median(rates);
}

}  // namespace perfbench
