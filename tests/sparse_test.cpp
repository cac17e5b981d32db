// Tests for the CSR sparse layer: structural validation and repair,
// SpMV against a dense reference, the deterministic SPD generators behind
// the CG workload family, and the Matrix Market round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <sstream>

#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/mm.hpp"
#include "sparse/spmv_kernel.hpp"
#include "support/error.hpp"

namespace plin::sparse {
namespace {

/// Dense lookup into a CSR matrix (0.0 where no entry exists).
double entry(const CsrMatrix& a, std::size_t i, std::size_t j) {
  for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
    if (a.col_idx[k] == j) return a.values[k];
  }
  return 0.0;
}

TEST(CsrTest, EmptyMatrixAndEmptyRowsValidate) {
  const CsrMatrix empty = make_empty(4, 7);
  EXPECT_EQ(empty.nnz(), 0u);
  empty.validate();

  // Interior empty rows are fine too.
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.row_ptr = {0, 1, 1, 2};  // row 1 is empty
  a.col_idx = {0, 2};
  a.values = {2.0, 3.0};
  a.validate();

  std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y(3, -1.0);
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(CsrTest, SingleRowAndSingleColumn) {
  CsrMatrix row;
  row.rows = 1;
  row.cols = 4;
  row.row_ptr = {0, 3};
  row.col_idx = {0, 2, 3};
  row.values = {1.0, 2.0, 3.0};
  row.validate();
  std::vector<double> y(1);
  spmv(row, std::vector<double>{1.0, 10.0, 100.0, 1000.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 200.0 + 3000.0);

  CsrMatrix col;
  col.rows = 3;
  col.cols = 1;
  col.row_ptr = {0, 1, 1, 2};
  col.col_idx = {0, 0};
  col.values = {5.0, -2.0};
  col.validate();
  std::vector<double> z(3);
  spmv(col, std::vector<double>{2.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 10.0);
  EXPECT_DOUBLE_EQ(z[1], 0.0);
  EXPECT_DOUBLE_EQ(z[2], -4.0);
  EXPECT_DOUBLE_EQ(inf_norm(col), 5.0);
}

TEST(CsrTest, ValidateRejectsMalformedStructure) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.values = {1.0, 1.0};
  a.validate();  // baseline is fine

  CsrMatrix bad = a;
  bad.row_ptr = {0, 2, 1};  // non-monotone offsets
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.col_idx[1] = 9;  // column out of range
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.row_ptr = {0, 1};  // wrong offset count
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.values.pop_back();  // streams disagree
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.rows = 1;
  bad.cols = 2;
  bad.row_ptr = {0, 2};
  bad.col_idx = {1, 0};  // unsorted row
  bad.values = {1.0, 2.0};
  EXPECT_THROW(bad.validate(), Error);
}

TEST(CsrTest, NormalizeSortsAndMergesDuplicates) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 3;
  a.row_ptr = {0, 4, 5};
  a.col_idx = {2, 0, 2, 1, 0};  // row 0 unsorted with a duplicate column 2
  a.values = {1.0, 5.0, 2.5, -1.0, 7.0};
  EXPECT_THROW(a.validate(), Error);
  a.normalize();
  a.validate();
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_DOUBLE_EQ(entry(a, 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 1), -1.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 2), 3.5);  // 1.0 + 2.5 merged
  EXPECT_DOUBLE_EQ(entry(a, 1, 0), 7.0);
}

TEST(CsrTest, SpmvMatchesDenseMatvec) {
  const std::size_t n = 64;
  const CsrMatrix a = generate_matrix(SparseKind::kBanded, 11, n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) + 0.5);
  }
  std::vector<double> y(n);
  spmv(a, x, y);
  // Dense reference via the entry() probe.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += entry(a, i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-12) << "row " << i;
  }
}

TEST(CsrTest, SpmvAndResidualRejectBadShapes) {
  const CsrMatrix a = generate_matrix(SparseKind::kStencil5, 1, 16);
  std::vector<double> short_x(8);
  std::vector<double> y(16);
  EXPECT_THROW(spmv(a, short_x, y), Error);

  // scaled_residual requires a square system.
  CsrMatrix rect = make_empty(2, 3);
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> b = {0.0, 0.0};
  EXPECT_THROW((void)scaled_residual(rect, x, b), Error);
}

class GeneratorParam : public ::testing::TestWithParam<SparseKind> {};

TEST_P(GeneratorParam, SymmetricDiagonallyDominantAndCountable) {
  const SparseKind kind = GetParam();
  const std::size_t n = 90;  // not a perfect square or cube: clipped edges
  const CsrMatrix a = generate_matrix(kind, 7, n);
  a.validate();
  EXPECT_EQ(a.rows, n);
  EXPECT_EQ(a.cols, n);
  EXPECT_EQ(a.nnz(), pattern_nnz(kind, n));

  for (std::size_t i = 0; i < n; ++i) {
    double offdiag = 0.0;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const std::size_t j = a.col_idx[k];
      // Symmetry: every entry has its mirror with the identical value.
      EXPECT_DOUBLE_EQ(a.values[k], entry(a, j, i))
          << "asymmetric at (" << i << ", " << j << ")";
      if (j != i) offdiag += std::fabs(a.values[k]);
    }
    // Diagonal = |off-diagonal| sum + 1 (strict dominance, margin 1).
    EXPECT_NEAR(entry(a, i, i), offdiag + 1.0, 1e-12) << "row " << i;
  }
}

TEST_P(GeneratorParam, RowBlocksTileTheFullMatrix) {
  const SparseKind kind = GetParam();
  const std::size_t n = 75;
  const CsrMatrix full = generate_matrix(kind, 3, n);
  // Concatenating uneven row blocks must reproduce the full matrix exactly
  // (the property the distributed CG generation relies on).
  std::size_t row = 0;
  for (const std::size_t hi : {20ul, 21ul, 75ul}) {
    const CsrMatrix block = generate_rows(kind, 3, n, row, hi);
    EXPECT_EQ(block.rows, hi - row);
    for (std::size_t i = 0; i < block.rows; ++i) {
      const std::size_t g = row + i;
      ASSERT_EQ(block.row_ptr[i + 1] - block.row_ptr[i],
                full.row_ptr[g + 1] - full.row_ptr[g]);
      for (std::size_t k = 0; k < block.row_ptr[i + 1] - block.row_ptr[i];
           ++k) {
        EXPECT_EQ(block.col_idx[block.row_ptr[i] + k],
                  full.col_idx[full.row_ptr[g] + k]);
        EXPECT_EQ(block.values[block.row_ptr[i] + k],
                  full.values[full.row_ptr[g] + k]);
      }
    }
    row = hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorParam,
                         ::testing::Values(SparseKind::kStencil5,
                                           SparseKind::kStencil9,
                                           SparseKind::kStencil27,
                                           SparseKind::kBanded,
                                           SparseKind::kRandom,
                                           SparseKind::kBlockDiag));

TEST(GeneratorTest, BlockDiagCouplesOnlyInsideAlignedBlocks) {
  // n = 150: two full 64-row blocks plus a clipped 22-row tail. Every
  // entry must stay inside its row's 64-aligned block — the property that
  // makes 64-aligned partitions halo-free in the distributed CG.
  const std::size_t n = 150;
  const CsrMatrix a = generate_matrix(SparseKind::kBlockDiag, 3, n);
  a.validate();
  EXPECT_EQ(a.nnz(), pattern_nnz(SparseKind::kBlockDiag, n));
  EXPECT_EQ(pattern_reach(SparseKind::kBlockDiag, n), kDiagBlock - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = (i / kDiagBlock) * kDiagBlock;
    const std::size_t hi = std::min(n, base + kDiagBlock);
    EXPECT_EQ(a.row_ptr[i + 1] - a.row_ptr[i], hi - base) << "row " << i;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      EXPECT_GE(a.col_idx[k], base) << "row " << i;
      EXPECT_LT(a.col_idx[k], hi) << "row " << i;
    }
  }
  // Tiny matrices degenerate to a single dense block.
  EXPECT_EQ(pattern_reach(SparseKind::kBlockDiag, 5), 4u);
  EXPECT_EQ(pattern_nnz(SparseKind::kBlockDiag, 5), 25u);
}

TEST(GeneratorTest, RandomPatternIsSeedIndependent) {
  const std::size_t n = 120;
  const CsrMatrix a = generate_matrix(SparseKind::kRandom, 1, n);
  const CsrMatrix b = generate_matrix(SparseKind::kRandom, 999, n);
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.col_idx, b.col_idx);  // same pattern...
  EXPECT_NE(a.values, b.values);    // ...different values
}

/// FNV-1a over 64-bit words: row lengths, columns and value bits, row by
/// row — independent of how the rows were split into blocks.
struct RowDigest {
  std::uint64_t hash = 14695981039346656037ull;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void add_rows(const CsrMatrix& a) {
    for (std::size_t r = 0; r < a.rows; ++r) {
      add(a.row_ptr[r + 1] - a.row_ptr[r]);
      for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &a.values[k], sizeof(bits));
        add(a.col_idx[k]);
        add(bits);
      }
    }
  }
};

TEST(GeneratorTest, OutputMatchesPinnedDigests) {
  // Digests of generate_matrix(kind, 0x5EED, n), recorded from the
  // reference (sort-per-row) generator; any change to a row length, a
  // column or a value bit changes them.
  struct Pinned {
    SparseKind kind;
    std::size_t n;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {SparseKind::kStencil5, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kStencil5, 2, 0x43c8a14024c43009ull},
      {SparseKind::kStencil5, 3, 0xe4806f0eaff461f6ull},
      {SparseKind::kStencil5, 17, 0xedabdd7d9f438c35ull},
      {SparseKind::kStencil5, 1000, 0x8ab3d1daba630087ull},
      {SparseKind::kStencil5, 4097, 0x49f6182761f84935ull},
      {SparseKind::kStencil5, 16384, 0xa352a1be40032189ull},
      {SparseKind::kStencil9, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kStencil9, 2, 0x43c8a14024c43009ull},
      {SparseKind::kStencil9, 3, 0x24e25dbc94a0bc65ull},
      {SparseKind::kStencil9, 17, 0xab605791cdaea197ull},
      {SparseKind::kStencil9, 1000, 0xa259ad29010a149eull},
      {SparseKind::kStencil9, 4097, 0x850e51a89bfd46d3ull},
      {SparseKind::kStencil9, 16384, 0x2dab6d9fb2ac9fe9ull},
      {SparseKind::kStencil27, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kStencil27, 2, 0x43c8a14024c43009ull},
      {SparseKind::kStencil27, 3, 0x24e25dbc94a0bc65ull},
      {SparseKind::kStencil27, 17, 0xad256501b1861313ull},
      {SparseKind::kStencil27, 1000, 0xeda96a85a56fa378ull},
      {SparseKind::kStencil27, 4097, 0x90358f07102a544eull},
      {SparseKind::kStencil27, 16384, 0x92f8db67e8df6b71ull},
      {SparseKind::kBanded, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kBanded, 2, 0x070996e0ca8f1b29ull},
      {SparseKind::kBanded, 3, 0xe35b1a3179ee38beull},
      {SparseKind::kBanded, 17, 0xbf354e0ceff0559bull},
      {SparseKind::kBanded, 1000, 0x2ae5e5487b142f81ull},
      {SparseKind::kBanded, 4097, 0xd77976d93e03b27full},
      {SparseKind::kBanded, 16384, 0x2ea604556131c353ull},
      {SparseKind::kRandom, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kRandom, 2, 0x05c0fe534e66b304ull},
      {SparseKind::kRandom, 3, 0xbac3ab1862340821ull},
      {SparseKind::kRandom, 17, 0x086b907e8f05b29eull},
      {SparseKind::kRandom, 1000, 0x8578a9cb7fee2609ull},
      {SparseKind::kRandom, 4097, 0x7481b09c9f775a16ull},
      {SparseKind::kRandom, 16384, 0x8d49d12447019f85ull},
      {SparseKind::kBlockDiag, 1, 0x5e5a3d9b45873af9ull},
      {SparseKind::kBlockDiag, 2, 0x070996e0ca8f1b29ull},
      {SparseKind::kBlockDiag, 3, 0xe35b1a3179ee38beull},
      {SparseKind::kBlockDiag, 17, 0x67e26540c7d481ccull},
      {SparseKind::kBlockDiag, 1000, 0x2bc6a8189fba7c8bull},
      {SparseKind::kBlockDiag, 4097, 0xff380f4430afabc3ull},
      {SparseKind::kBlockDiag, 16384, 0x690f2a5545eb02b4ull},
  };
  // Blocks that straddle grid rows, grid planes and the 64-row blockdiag
  // blocks, in no fixed relation to any rank chunk.
  const std::size_t block_sizes[] = {5, 63, 1, 129, 1023};
  for (const Pinned& p : pinned) {
    const CsrMatrix full = generate_matrix(p.kind, 0x5EED, p.n);
    full.validate();
    RowDigest whole;
    whole.add_rows(full);
    EXPECT_EQ(whole.hash, p.digest)
        << kind_token(p.kind) << " n=" << p.n << " digest 0x" << std::hex
        << whole.hash;
    EXPECT_EQ(full.nnz(), pattern_nnz(p.kind, p.n))
        << kind_token(p.kind) << " n=" << p.n;

    RowDigest blocks;
    std::size_t next = 0;
    for (std::size_t lo = 0; lo < p.n; ++next) {
      const std::size_t hi =
          std::min(p.n, lo + block_sizes[next % std::size(block_sizes)]);
      const CsrMatrix block = generate_rows(p.kind, 0x5EED, p.n, lo, hi);
      ASSERT_EQ(block.rows, hi - lo);
      ASSERT_EQ(block.row_ptr.front(), 0u);
      blocks.add_rows(block);
      lo = hi;
    }
    EXPECT_EQ(blocks.hash, whole.hash)
        << kind_token(p.kind) << " n=" << p.n;
  }
}

TEST(GeneratorTest, TokensRoundTripAndRejectUnknown) {
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom, SparseKind::kBlockDiag}) {
    EXPECT_EQ(parse_kind_token(kind_token(kind)), kind);
  }
  EXPECT_THROW(parse_kind_token("dense"), InvalidArgument);
}

TEST(GeneratorTest, PatternReachBoundsColumnDistance) {
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom,
        SparseKind::kBlockDiag}) {
    const std::size_t n = 100;
    const std::size_t reach = pattern_reach(kind, n);
    const CsrMatrix a = generate_matrix(kind, 5, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const std::size_t j = a.col_idx[k];
        const std::size_t dist = j > i ? j - i : i - j;
        EXPECT_LE(dist, reach) << kind_token(kind);
      }
    }
  }
}

TEST(SpmvKernelTest, TokensRoundTripAndIsaIsKnown) {
  // One kernel: the names the benchmark's context line records.
  EXPECT_STREQ(kernel_token(SpmvKernel::kScalar), "scalar");
  EXPECT_STREQ(kernel_token(active_spmv_config().kernel), "scalar");
  EXPECT_STREQ(simd_isa(), "none");
}

TEST(SpmvKernelTest, SpmvRowsPartitionReproducesFullSpmvBitwise) {
  // The fused CG path computes interior rows, then boundary rows, as two
  // spmv_rows calls — the union must be bitwise the full spmv (per-row
  // accumulation does not depend on which call ran it).
  const std::size_t n = 180;
  const CsrMatrix a = generate_matrix(SparseKind::kStencil5, 21, n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 1.7) + 0.25;
  }
  std::vector<double> full(n);
  spmv(a, x, full);

  // An interleaved split (evens as "interior", odds as "boundary") is
  // harsher than any contiguous boundary split.
  std::vector<std::uint32_t> evens;
  std::vector<std::uint32_t> odds;
  for (std::uint32_t r = 0; r < n; ++r) {
    (r % 2 == 0 ? evens : odds).push_back(r);
  }
  std::vector<double> split(n, -7.0);
  spmv_rows(a, x, split, evens);
  spmv_rows(a, x, split, odds);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(split[i], full[i]) << "row " << i;
  }
}

TEST(SpmvKernelTest, SplitRowsSeparatesGhostReadersInEveryBlock) {
  // The CG's row blocks (chunk = ceil(n / P)) as solve_pcg generates and
  // splits them: interior rows read only owned columns, boundary rows read
  // at least one ghost, and the two ascending lists partition the block.
  // With SpmvRowsPartitionReproducesFullSpmvBitwise this makes the fused
  // path's split SpMV bitwise the full one. n = 301 splits unevenly.
  const std::size_t n = 301;
  const auto is_ghost = [](std::uint32_t col, std::size_t lo,
                           std::size_t hi) { return col < lo || col >= hi; };
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom, SparseKind::kBlockDiag}) {
    for (const std::size_t ranks : {3, 6, 16}) {
      const std::size_t chunk = (n + ranks - 1) / ranks;
      std::size_t boundary_total = 0;
      for (std::size_t rank = 0; rank < ranks; ++rank) {
        SCOPED_TRACE(std::string(kind_token(kind)) + " P=" +
                     std::to_string(ranks) + " rank " +
                     std::to_string(rank));
        const std::size_t lo = std::min(n, chunk * rank);
        const std::size_t hi = std::min(n, lo + chunk);
        const CsrMatrix a = generate_rows(kind, 5, n, lo, hi);
        const RowSplit split = split_rows(a, lo, hi);

        std::size_t boundary_nnz = 0;
        for (const std::uint32_t r : split.interior) {
          ASSERT_LT(r, a.rows);
          for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            EXPECT_FALSE(is_ghost(a.col_idx[k], lo, hi)) << "row " << r;
          }
        }
        for (const std::uint32_t r : split.boundary) {
          ASSERT_LT(r, a.rows);
          bool reads_ghost = false;
          for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            reads_ghost = reads_ghost || is_ghost(a.col_idx[k], lo, hi);
          }
          EXPECT_TRUE(reads_ghost) << "row " << r;
          boundary_nnz += a.row_ptr[r + 1] - a.row_ptr[r];
        }
        EXPECT_EQ(split.boundary_nnz, boundary_nnz);
        boundary_total += split.boundary.size();

        EXPECT_TRUE(std::is_sorted(split.interior.begin(),
                                   split.interior.end()));
        EXPECT_TRUE(std::is_sorted(split.boundary.begin(),
                                   split.boundary.end()));
        std::vector<std::uint32_t> all;
        std::merge(split.interior.begin(), split.interior.end(),
                   split.boundary.begin(), split.boundary.end(),
                   std::back_inserter(all));
        // Disjoint and covering: the merged lists are exactly 0..rows-1.
        ASSERT_EQ(all.size(), a.rows);
        for (std::size_t r = 0; r < a.rows; ++r) EXPECT_EQ(all[r], r);
      }
      // Every family couples rows across some block edge at n = 301.
      EXPECT_GT(boundary_total, 0u) << kind_token(kind) << " P=" << ranks;
    }
  }
}

TEST(MatrixMarketTest, RoundTripIsExact) {
  const CsrMatrix a = generate_matrix(SparseKind::kRandom, 13, 60);
  std::ostringstream os;
  save_matrix_market(a, os);
  std::istringstream is(os.str());
  const CsrMatrix back = load_matrix_market(is);
  EXPECT_EQ(back.rows, a.rows);
  EXPECT_EQ(back.cols, a.cols);
  EXPECT_EQ(back.row_ptr, a.row_ptr);
  EXPECT_EQ(back.col_idx, a.col_idx);
  EXPECT_EQ(back.values, a.values);  // %.17g round-trips doubles exactly
}

TEST(MatrixMarketTest, WriterIsByteStable) {
  const CsrMatrix a = generate_matrix(SparseKind::kBanded, 2, 24);
  std::ostringstream first;
  std::ostringstream second;
  save_matrix_market(a, first);
  save_matrix_market(a, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(MatrixMarketTest, ReaderNormalizesUnsortedInputAndSumsDuplicates) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "\n"
      "2 2 4\n"
      "1 2 3.0\n"
      "1 1 1.0\n"
      "2 2 5.0\n"
      "1 2 0.5\n");
  const CsrMatrix a = load_matrix_market(is);
  a.validate();
  EXPECT_EQ(a.nnz(), 3u);  // duplicate (1,2) summed
  EXPECT_DOUBLE_EQ(entry(a, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 1), 3.5);
  EXPECT_DOUBLE_EQ(entry(a, 1, 1), 5.0);
}

TEST(MatrixMarketTest, ReaderRejectsGarbage) {
  std::istringstream no_banner("1 1 1\n1 1 2.0\n");
  EXPECT_THROW((void)load_matrix_market(no_banner), IoError);

  std::istringstream bad_coord(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW((void)load_matrix_market(bad_coord), IoError);

  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)load_matrix_market(truncated), IoError);
}

}  // namespace
}  // namespace plin::sparse
