#include "sparse/spmv_kernel.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"

// The SIMD paths use per-function target attributes plus a runtime CPU
// check instead of global -march flags: the translation unit stays
// baseline-ISA, only row_dot_avx* carry vector instructions, and the
// dispatcher never selects them on hardware without the feature.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PLIN_SPMV_X86 1
#include <immintrin.h>
#else
#define PLIN_SPMV_X86 0
#endif

namespace plin::sparse {
namespace {

SpmvConfig& mutable_active() {
  static SpmvConfig config = SpmvConfig::from_env();
  return config;
}

/// The PR 9 reference row sum: two independent accumulators over even/odd
/// entry pairs. Kept templated on the scalar type so an fp32 CG can reuse
/// the engine unchanged.
template <typename T>
T row_dot_scalar(const std::uint32_t* cols, const T* vals, std::size_t lo,
                 std::size_t hi, const T* x) {
  T acc0 = T(0);
  T acc1 = T(0);
  std::size_t k = lo;
  for (; k + 1 < hi; k += 2) {
    acc0 += vals[k] * x[cols[k]];
    acc1 += vals[k + 1] * x[cols[k + 1]];
  }
  if (k < hi) acc0 += vals[k] * x[cols[k]];
  return acc0 + acc1;
}

/// The portable 8-lane kernel — the semantic reference for the SIMD paths
/// below (see the header comment for the fixed bracketing).
template <typename T>
T row_dot_lanes(const std::uint32_t* cols, const T* vals, std::size_t lo,
                std::size_t hi, const T* x) {
  T acc[8] = {T(0), T(0), T(0), T(0), T(0), T(0), T(0), T(0)};
  std::size_t k = lo;
  for (; k + 8 <= hi; k += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += vals[k + l] * x[cols[k + l]];
  }
  for (int l = 0; k < hi; ++k, ++l) acc[l] += vals[k] * x[cols[k]];
  T t1[4];
  for (int l = 0; l < 4; ++l) t1[l] = acc[l] + acc[l + 4];
  T t2[2] = {t1[0] + t1[2], t1[1] + t1[3]};
  return t2[0] + t2[1];
}

double row_dot_generic(const std::uint32_t* cols, const double* vals,
                       std::size_t lo, std::size_t hi, const double* x) {
  return row_dot_lanes<double>(cols, vals, lo, hi, x);
}

#if PLIN_SPMV_X86
__attribute__((target("avx512f"))) double row_dot_avx512(
    const std::uint32_t* cols, const double* vals, std::size_t lo,
    std::size_t hi, const double* x) {
  __m512d acc_v = _mm512_setzero_pd();
  std::size_t k = lo;
  const __m256i step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; k + 8 <= hi; k += 8) {
    // A block whose eight columns run c, c+1, ..., c+7 reads x with a
    // plain load instead of the gather — the same eight values without
    // its latency (dense-row families like blockdiag take this path on
    // every block). Every column is compared, not just the endpoints: the
    // distributed CG's remapped rows put ghost slots after the owned
    // columns, so a row's columns need not increase.
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + k));
    const __m256i run = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(cols[k])), step);
    __m512d xv;
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(idx, run)) == -1) {
      xv = _mm512_loadu_pd(x + cols[k]);
    } else {
      xv = _mm512_i32gather_pd(idx, x, 8);
    }
    const __m512d vv = _mm512_loadu_pd(vals + k);
    // Separate mul/add (not FMA): per-lane rounding matches the portable
    // reference, so the kernel's bits do not depend on the compiled ISA.
    acc_v = _mm512_add_pd(acc_v, _mm512_mul_pd(vv, xv));
  }
  alignas(64) double acc[8];
  _mm512_store_pd(acc, acc_v);
  for (int l = 0; k < hi; ++k, ++l) acc[l] += vals[k] * x[cols[k]];
  double t1[4];
  for (int l = 0; l < 4; ++l) t1[l] = acc[l] + acc[l + 4];
  const double t2[2] = {t1[0] + t1[2], t1[1] + t1[3]};
  return t2[0] + t2[1];
}

__attribute__((target("avx2"))) double row_dot_avx2(
    const std::uint32_t* cols, const double* vals, std::size_t lo,
    std::size_t hi, const double* x) {
  __m256d acc_lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes 4..7
  std::size_t k = lo;
  const __m256i step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; k + 8 <= hi; k += 8) {
    // Same contiguous-block fast path as the AVX-512 kernel, with the same
    // check of every column.
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + k));
    const __m256i run = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(cols[k])), step);
    __m256d x_lo;
    __m256d x_hi;
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(idx, run)) == -1) {
      x_lo = _mm256_loadu_pd(x + cols[k]);
      x_hi = _mm256_loadu_pd(x + cols[k] + 4);
    } else {
      x_lo = _mm256_i32gather_pd(x, _mm256_castsi256_si128(idx), 8);
      x_hi = _mm256_i32gather_pd(x, _mm256_extracti128_si256(idx, 1), 8);
    }
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(_mm256_loadu_pd(vals + k),
                                                 x_lo));
    acc_hi = _mm256_add_pd(
        acc_hi, _mm256_mul_pd(_mm256_loadu_pd(vals + k + 4), x_hi));
  }
  alignas(32) double acc[8];
  _mm256_store_pd(acc, acc_lo);
  _mm256_store_pd(acc + 4, acc_hi);
  for (int l = 0; k < hi; ++k, ++l) acc[l] += vals[k] * x[cols[k]];
  double t1[4];
  for (int l = 0; l < 4; ++l) t1[l] = acc[l] + acc[l + 4];
  const double t2[2] = {t1[0] + t1[2], t1[1] + t1[3]};
  return t2[0] + t2[1];
}
#endif  // PLIN_SPMV_X86

using RowDot = double (*)(const std::uint32_t*, const double*, std::size_t,
                          std::size_t, const double*);

/// Picks the widest row_dot the host actually supports, once. Every
/// variant follows the identical 8-lane bracketing, so the choice never
/// moves a bit — only the instruction stream.
RowDot detect_simd_row_dot() {
#if PLIN_SPMV_X86
  if (__builtin_cpu_supports("avx512f")) return row_dot_avx512;
  if (__builtin_cpu_supports("avx2")) return row_dot_avx2;
#endif
  return row_dot_generic;
}

double row_dot_simd(const std::uint32_t* cols, const double* vals,
                    std::size_t lo, std::size_t hi, const double* x) {
  static const RowDot impl = detect_simd_row_dot();
  return impl(cols, vals, lo, hi, x);
}

}  // namespace

const char* kernel_token(SpmvKernel kernel) {
  return kernel == SpmvKernel::kSimd ? "simd" : "scalar";
}

SpmvKernel parse_kernel_token(const std::string& token) {
  if (token == "scalar") return SpmvKernel::kScalar;
  if (token == "simd") return SpmvKernel::kSimd;
  throw InvalidArgument("unknown sparse kernel (use scalar | simd): " +
                        token);
}

const char* simd_isa() {
#if PLIN_SPMV_X86
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "generic";
}

SpmvConfig SpmvConfig::defaults() { return SpmvConfig{}; }

SpmvConfig SpmvConfig::from_env() {
  SpmvConfig config = defaults();
  if (const char* raw = std::getenv("PLIN_SPARSE_KERNEL")) {
    if (*raw != '\0') config.kernel = parse_kernel_token(raw);
  }
  return config;
}

const SpmvConfig& active_spmv_config() { return mutable_active(); }

void set_spmv_config(const SpmvConfig& config) { mutable_active() = config; }

void reset_spmv_config() { mutable_active() = SpmvConfig::from_env(); }

void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv: vector shape mismatch");
  const std::uint32_t* cols = a.col_idx.data();
  const double* vals = a.values.data();
  if (active_spmv_config().kernel == SpmvKernel::kSimd) {
    for (std::size_t r = 0; r < a.rows; ++r) {
      y[r] = row_dot_simd(cols, vals, a.row_ptr[r], a.row_ptr[r + 1],
                          x.data());
    }
  } else {
    for (std::size_t r = 0; r < a.rows; ++r) {
      y[r] = row_dot_scalar<double>(cols, vals, a.row_ptr[r],
                                    a.row_ptr[r + 1], x.data());
    }
  }
}

void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv_rows: vector shape mismatch");
  const std::uint32_t* cols = a.col_idx.data();
  const double* vals = a.values.data();
  if (active_spmv_config().kernel == SpmvKernel::kSimd) {
    for (const std::uint32_t r : rows) {
      y[r] = row_dot_simd(cols, vals, a.row_ptr[r], a.row_ptr[r + 1],
                          x.data());
    }
  } else {
    for (const std::uint32_t r : rows) {
      y[r] = row_dot_scalar<double>(cols, vals, a.row_ptr[r],
                                    a.row_ptr[r + 1], x.data());
    }
  }
}

}  // namespace plin::sparse
