#include "sparse/generate.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace plin::sparse {
namespace {

/// SplitMix64 finalizer (the same stateless hash linalg/generate.cpp
/// uses), so entry (i, j) is independent of evaluation order and rank
/// count.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

/// Symmetric hashed value in [-1, 1]: a function of the *unordered* index
/// pair, so v(i, j) == v(j, i) by construction.
double pair_value(std::uint64_t seed, std::size_t n, std::size_t i,
                  std::size_t j) {
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  const std::uint64_t h =
      mix(mix(seed ^ (0xC5C5ULL + lo)) ^ (hi * 0x9E37ULL + n));
  return 2.0 * unit_uniform(h) - 1.0;
}

/// Seed-independent presence test for the random family (~1/4 of the
/// window), symmetric in (i, j).
bool random_present(std::size_t n, std::size_t i, std::size_t j) {
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  const std::uint64_t h = mix(mix(0xD6D6ULL + lo) ^ (hi * 0x85EBULL + n));
  return (h & 3) == 0;
}

std::size_t grid_side_2d(std::size_t n) {
  std::size_t g = 1;
  while (g * g < n) ++g;
  return g;
}

std::size_t grid_side_3d(std::size_t n) {
  std::size_t g = 1;
  while (g * g * g < n) ++g;
  return g;
}

/// What a row walk needs beyond the row index: the family, n and the grid
/// side of the stencil families. Finding the side is O(sqrt(n)), so it is
/// done once per call and shared by every row.
struct Pattern {
  SparseKind kind;
  std::size_t n;
  std::size_t side;  // grid edge of the stencils (unused otherwise)
};

Pattern make_pattern(SparseKind kind, std::size_t n) {
  switch (kind) {
    case SparseKind::kStencil5:
    case SparseKind::kStencil9:
      return {kind, n, grid_side_2d(n)};
    case SparseKind::kStencil27:
      return {kind, n, grid_side_3d(n)};
    case SparseKind::kBanded:
    case SparseKind::kRandom:
    case SparseKind::kBlockDiag:
      break;
  }
  return {kind, n, 0};
}

/// Most entries any row of the family holds, diagonal included.
std::size_t max_row_nnz(const Pattern& p) {
  std::size_t width = 1;
  switch (p.kind) {
    case SparseKind::kStencil5: width = 5; break;
    case SparseKind::kStencil9: width = 9; break;
    case SparseKind::kStencil27: width = 27; break;
    case SparseKind::kBanded: width = 2 * kBandedHalfWidth + 1; break;
    case SparseKind::kRandom: width = 2 * kRandomHalfWidth + 1; break;
    case SparseKind::kBlockDiag: width = kDiagBlock; break;
  }
  return std::min(width, p.n);
}

/// Invokes f(j) for every off-diagonal column j of row i, in ascending
/// column order — the single source of truth for the pattern, shared by
/// generation and the nnz count. The stencils walk dz, dy, dx outermost
/// to innermost, which is ascending because |dx| < side; the windows and
/// blocks walk lo..hi.
template <typename F>
void for_row_cols(const Pattern& p, std::size_t i, F&& f) {
  const std::size_t n = p.n;
  switch (p.kind) {
    case SparseKind::kStencil5:
    case SparseKind::kStencil9: {
      const long side = static_cast<long>(p.side);
      const long gx = static_cast<long>(i % p.side);
      const long gy = static_cast<long>(i / p.side);
      for (long dy = -1; dy <= 1; ++dy) {
        for (long dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          if (p.kind == SparseKind::kStencil5 && dx != 0 && dy != 0) continue;
          const long x = gx + dx;
          const long y = gy + dy;
          if (x < 0 || x >= side || y < 0 || y >= side) continue;
          const std::size_t j = static_cast<std::size_t>(y * side + x);
          if (j < n) f(j);
        }
      }
      break;
    }
    case SparseKind::kStencil27: {
      const long side = static_cast<long>(p.side);
      const long gx = static_cast<long>(i % p.side);
      const long gy = static_cast<long>((i / p.side) % p.side);
      const long gz = static_cast<long>(i / (p.side * p.side));
      for (long dz = -1; dz <= 1; ++dz) {
        for (long dy = -1; dy <= 1; ++dy) {
          for (long dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            const long x = gx + dx;
            const long y = gy + dy;
            const long z = gz + dz;
            if (x < 0 || x >= side || y < 0 || y >= side || z < 0 ||
                z >= side) {
              continue;
            }
            const std::size_t j =
                static_cast<std::size_t>((z * side + y) * side + x);
            if (j < n) f(j);
          }
        }
      }
      break;
    }
    case SparseKind::kBanded:
    case SparseKind::kRandom: {
      const std::size_t w = p.kind == SparseKind::kBanded ? kBandedHalfWidth
                                                          : kRandomHalfWidth;
      const std::size_t lo = i > w ? i - w : 0;
      const std::size_t hi = std::min(n - 1, i + w);
      for (std::size_t j = lo; j <= hi; ++j) {
        if (j == i) continue;
        if (p.kind == SparseKind::kRandom && !random_present(n, i, j)) {
          continue;
        }
        f(j);
      }
      break;
    }
    case SparseKind::kBlockDiag: {
      const std::size_t base = (i / kDiagBlock) * kDiagBlock;
      const std::size_t hi = std::min(n, base + kDiagBlock);
      for (std::size_t j = base; j < hi; ++j) {
        if (j != i) f(j);
      }
      break;
    }
  }
}

double offdiag_value(SparseKind kind, std::uint64_t seed, std::size_t n,
                     std::size_t i, std::size_t j) {
  switch (kind) {
    case SparseKind::kStencil5:
    case SparseKind::kStencil9:
    case SparseKind::kStencil27:
      return -1.0;
    case SparseKind::kBanded:
    case SparseKind::kRandom:
    case SparseKind::kBlockDiag:
      return pair_value(seed, n, i, j);
  }
  return 0.0;
}

}  // namespace

const char* kind_token(SparseKind kind) {
  switch (kind) {
    case SparseKind::kStencil5: return "stencil5";
    case SparseKind::kStencil9: return "stencil9";
    case SparseKind::kStencil27: return "stencil27";
    case SparseKind::kBanded: return "banded";
    case SparseKind::kRandom: return "random";
    case SparseKind::kBlockDiag: return "blockdiag";
  }
  return "stencil5";
}

SparseKind parse_kind_token(const std::string& token) {
  if (token == "stencil5") return SparseKind::kStencil5;
  if (token == "stencil9") return SparseKind::kStencil9;
  if (token == "stencil27") return SparseKind::kStencil27;
  if (token == "banded") return SparseKind::kBanded;
  if (token == "random") return SparseKind::kRandom;
  if (token == "blockdiag") return SparseKind::kBlockDiag;
  throw InvalidArgument(
      "unknown matrix kind (use stencil5 | stencil9 | stencil27 | banded | "
      "random | blockdiag): " +
      token);
}

CsrMatrix generate_rows(SparseKind kind, std::uint64_t seed, std::size_t n,
                        std::size_t row_lo, std::size_t row_hi) {
  PLIN_CHECK_MSG(n > 0, "sparse generate: empty system");
  PLIN_CHECK_MSG(row_lo <= row_hi && row_hi <= n,
                 "sparse generate: bad row range");
  const Pattern pattern = make_pattern(kind, n);
  CsrMatrix a;
  a.rows = row_hi - row_lo;
  a.cols = n;
  a.row_ptr.resize(a.rows + 1, 0);
  // Reserve the widest-row bound so the arrays never reallocate; the pages
  // past the real nnz are never touched, so they are never resident.
  const std::size_t bound = a.rows * max_row_nnz(pattern);
  a.col_idx.reserve(bound);
  a.values.reserve(bound);
  constexpr std::size_t kNoDiag = static_cast<std::size_t>(-1);
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    // Columns arrive in ascending order, so the diagonal goes in front of
    // the first column past i. Its value — the absolute off-diagonal sum
    // plus one, summed in column order — is known only at the row's end.
    std::size_t diag_at = kNoDiag;
    double abs_sum = 0.0;
    const auto place_diag = [&] {
      diag_at = a.values.size();
      a.col_idx.push_back(static_cast<std::uint32_t>(i));
      a.values.push_back(0.0);
    };
    for_row_cols(pattern, i, [&](std::size_t j) {
      if (diag_at == kNoDiag && j > i) place_diag();
      const double v = offdiag_value(kind, seed, n, i, j);
      abs_sum += std::fabs(v);
      a.col_idx.push_back(static_cast<std::uint32_t>(j));
      a.values.push_back(v);
    });
    if (diag_at == kNoDiag) place_diag();
    // Strict diagonal dominance with a uniform margin of 1: symmetric +
    // dominant + positive diagonal => SPD, truncation-safe.
    a.values[diag_at] = abs_sum + 1.0;
    a.row_ptr[i - row_lo + 1] = a.values.size();
  }
  return a;
}

CsrMatrix generate_matrix(SparseKind kind, std::uint64_t seed,
                          std::size_t n) {
  return generate_rows(kind, seed, n, 0, n);
}

std::size_t pattern_nnz(SparseKind kind, std::size_t n) {
  PLIN_CHECK_MSG(n > 0, "sparse generate: empty system");
  const Pattern pattern = make_pattern(kind, n);
  std::size_t count = n;  // one diagonal entry per row
  for (std::size_t i = 0; i < n; ++i) {
    for_row_cols(pattern, i, [&](std::size_t) { ++count; });
  }
  return count;
}

std::size_t pattern_reach(SparseKind kind, std::size_t n) {
  switch (kind) {
    case SparseKind::kStencil5:
      return grid_side_2d(n);
    case SparseKind::kStencil9:
      return grid_side_2d(n) + 1;
    case SparseKind::kStencil27: {
      const std::size_t g = grid_side_3d(n);
      return g * g + g + 1;
    }
    case SparseKind::kBanded:
      return kBandedHalfWidth;
    case SparseKind::kRandom:
      return kRandomHalfWidth;
    case SparseKind::kBlockDiag:
      return std::min(kDiagBlock - 1, n - 1);
  }
  return 0;
}

double pattern_offdiag_sum(SparseKind kind) {
  switch (kind) {
    case SparseKind::kStencil5: return 4.0;
    case SparseKind::kStencil9: return 8.0;
    case SparseKind::kStencil27: return 26.0;
    // Hashed families: window slots * fill probability * E|v| = 0.5.
    case SparseKind::kBanded:
      return static_cast<double>(2 * kBandedHalfWidth) * 0.5;
    case SparseKind::kRandom:
      return static_cast<double>(2 * kRandomHalfWidth) * 0.25 * 0.5;
    case SparseKind::kBlockDiag:
      return static_cast<double>(kDiagBlock - 1) * 0.5;
  }
  return 1.0;
}

}  // namespace plin::sparse
