// Tests for the blocked batch-distance engine (distance/batch.h): the
// blocked kernels agree with the scalar NearestCenterSearch reference on
// random and adversarial (duplicate / collinear) inputs, tie-breaking is
// identical to a sequential ascending scan, the residue path at every
// width and the full-panel kernel at every row grouping reproduce the
// single-pair chains byte for byte, and every consumer is
// bitwise-deterministic across thread counts (pool = null, 1, 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      m.At(i, j) = scale * rng.NextGaussian();
    }
  }
  return m;
}

// Shapes straddling every blocking boundary: point tile (64), panel
// width (16, with and without residue), micro-pair (2), and the
// plain/expanded kAuto crossover (kExpandedKernelMinDim).
struct Shape {
  int64_t n, k, d;
};
const Shape kShapes[] = {
    {1, 1, 1},    {3, 2, 3},    {65, 5, 7},    {130, 16, 9},
    {64, 17, 16}, {100, 33, 32}, {129, 64, 40}, {67, 31, 64},
};

TEST(BatchEngineTest, MatchesScalarReferenceOnRandomInputs) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 101 + s.n, 5.0);
    Matrix centers = RandomMatrix(s.k, s.d, 202 + s.k, 5.0);
    NearestCenterSearch reference(centers,
                                  NearestCenterSearch::Kernel::kPlain);
    NearestCenterSearch blocked(centers);
    std::vector<int32_t> idx(static_cast<size_t>(s.n));
    std::vector<double> d2(static_cast<size_t>(s.n));
    blocked.FindRange(points, IndexRange{0, s.n}, nullptr, idx.data(),
                      d2.data());
    for (int64_t i = 0; i < s.n; ++i) {
      NearestResult expected = reference.Find(points.Row(i));
      EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index)
          << "n=" << s.n << " k=" << s.k << " d=" << s.d << " point " << i;
      EXPECT_NEAR(d2[static_cast<size_t>(i)], expected.distance2,
                  1e-9 * (1.0 + expected.distance2));
    }
  }
}

TEST(BatchEngineTest, FindAllMatchesFind) {
  Matrix points = RandomMatrix(150, 24, 303, 3.0);
  Matrix centers = RandomMatrix(40, 24, 404, 3.0);
  NearestCenterSearch search(centers);
  std::vector<int32_t> idx;
  std::vector<double> d2;
  search.FindAll(points, &idx, &d2);
  ASSERT_EQ(idx.size(), 150u);
  for (int64_t i = 0; i < points.rows(); ++i) {
    NearestResult expected = search.Find(points.Row(i));
    EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index) << "point " << i;
    EXPECT_NEAR(d2[static_cast<size_t>(i)], expected.distance2,
                1e-9 * (1.0 + expected.distance2));
  }
}

// Adversarial: integer-coordinate points (all kernel arithmetic exact, so
// plain, expanded, FMA, and non-FMA paths produce identical values) with
// duplicated rows. A point equal to a center must report distance
// exactly 0 with the lowest matching center index.
TEST(BatchEngineTest, DuplicatePointsExactOnIntegerGrid) {
  const int64_t d = 40;  // forces the expanded kernel under kAuto
  Matrix centers(0, d);
  centers = Matrix(6, d);
  for (int64_t c = 0; c < 6; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      centers.At(c, j) = static_cast<double>((c / 2) * 3 + (j % 5));
    }
  }
  // Centers 0/1, 2/3, 4/5 are pairwise bitwise-identical duplicates.
  Matrix points(12, d);
  for (int64_t i = 0; i < 12; ++i) {
    std::memcpy(points.Row(i), centers.Row(i % 6),
                static_cast<size_t>(d) * sizeof(double));
  }
  NearestCenterSearch blocked(centers);
  ASSERT_TRUE(blocked.uses_expanded_kernel());
  std::vector<int32_t> idx(12);
  std::vector<double> d2(12);
  blocked.FindRange(points, IndexRange{0, 12}, nullptr, idx.data(),
                    d2.data());
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(d2[static_cast<size_t>(i)], 0.0) << "point " << i;
    // The duplicate pair {2c, 2c+1} ties; the lowest index must win.
    EXPECT_EQ(idx[static_cast<size_t>(i)], ((i % 6) / 2) * 2)
        << "point " << i;
  }
}

// Adversarial: collinear points with centers equidistant from a query —
// exact arithmetic, so the tie must break to the lowest center index in
// every kernel, exactly like the scalar ascending scan.
TEST(BatchEngineTest, CollinearTieBreaksToLowestIndex) {
  for (int64_t d : {4, 40}) {  // plain and expanded kAuto regimes
    Matrix centers(3, d);
    for (int64_t j = 0; j < d; ++j) {
      centers.At(0, j) = -1.0;
      centers.At(1, j) = 1.0;
      centers.At(2, j) = 1.0;  // duplicate of center 1
    }
    Matrix query(1, d);  // origin: equidistant from all three centers
    NearestCenterSearch blocked(centers);
    std::vector<int32_t> idx(1);
    std::vector<double> d2(1);
    blocked.FindRange(query, IndexRange{0, 1}, nullptr, idx.data(),
                      d2.data());
    EXPECT_EQ(idx[0], 0) << "d=" << d;
    EXPECT_EQ(d2[0], static_cast<double>(d)) << "d=" << d;
  }
}

// Merge semantics: an equal-distance center added later must NOT replace
// the incumbent (strict-< update), mirroring the sequential scan.
TEST(BatchEngineTest, MergeKeepsExistingOnTie) {
  const int64_t d = 8;
  Matrix center(1, d);  // all zeros
  Matrix point(1, d);
  for (int64_t j = 0; j < d; ++j) point.At(0, j) = 2.0;
  double best_d2 = 4.0 * d;  // exactly the distance the scan will find
  int32_t best_idx = 7;      // sentinel incumbent
  BatchNearestMerge(point, IndexRange{0, 1}, nullptr, center, 0, nullptr,
                    BatchKernel::kPlain, &best_d2, &best_idx);
  EXPECT_EQ(best_idx, 7);
  EXPECT_EQ(best_d2, 4.0 * d);
}

// --- Scalar / batched chain consistency ---------------------------------

// The scalar Find path and the blocked batch path must agree BITWISE
// (values, not just argmin): both run the engine's per-pair accumulation
// chains (PairSquaredL2 / PairDotProduct mirror the panel kernels,
// including FMA contraction on AVX2 machines).
TEST(BatchEngineTest, ScalarAndBatchedValuesBitwiseEqual) {
  for (auto kernel : {NearestCenterSearch::Kernel::kPlain,
                      NearestCenterSearch::Kernel::kExpanded}) {
    const int64_t n = 97, k = 23, d = 33;
    Matrix points = RandomMatrix(n, d, 555, 3.0);
    Matrix centers = RandomMatrix(k, d, 666, 3.0);
    NearestCenterSearch search(centers, kernel);
    std::vector<int32_t> idx(static_cast<size_t>(n));
    std::vector<double> d2(static_cast<size_t>(n));
    search.FindRange(points, IndexRange{0, n}, nullptr, idx.data(),
                     d2.data());
    for (int64_t i = 0; i < n; ++i) {
      NearestResult expected = search.Find(points.Row(i));
      EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index);
      EXPECT_EQ(d2[static_cast<size_t>(i)], expected.distance2)  // bitwise
          << "point " << i << " expanded="
          << (kernel == NearestCenterSearch::Kernel::kExpanded);
    }
  }
}

// --- Panel cache (Freeze) ------------------------------------------------

TEST(PanelCacheTest, FrozenQueriesBitwiseEqualUnfrozen) {
  const int64_t n = 130, k = 37, d = 40;
  Matrix points = RandomMatrix(n, d, 777, 2.0);
  Matrix centers = RandomMatrix(k, d, 888, 2.0);

  NearestCenterSearch unfrozen(centers);
  NearestCenterSearch frozen(centers);
  frozen.Freeze();
  EXPECT_TRUE(frozen.frozen());
  EXPECT_FALSE(unfrozen.frozen());

  std::vector<int32_t> idx_a(static_cast<size_t>(n)), idx_b(idx_a);
  std::vector<double> d2_a(static_cast<size_t>(n)), d2_b(d2_a);
  unfrozen.FindRange(points, IndexRange{0, n}, nullptr, idx_a.data(),
                     d2_a.data());
  frozen.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                   d2_b.data());
  EXPECT_EQ(idx_a, idx_b);
  EXPECT_EQ(d2_a, d2_b);  // bitwise

  std::vector<int32_t> all_a, all_b;
  std::vector<double> alld_a, alld_b;
  unfrozen.FindAll(points, &all_a, &alld_a);
  frozen.FindAll(points, &all_b, &alld_b);
  EXPECT_EQ(all_a, all_b);
  EXPECT_EQ(alld_a, alld_b);  // bitwise

  frozen.Unfreeze();
  EXPECT_FALSE(frozen.frozen());
  frozen.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                   d2_b.data());
  EXPECT_EQ(d2_a, d2_b);
}

// The invalidation contract: a frozen search is a snapshot; mutating the
// bound centers leaves it stale until the caller re-freezes, after which
// queries see the new centers exactly.
TEST(PanelCacheTest, RefreezeRevalidatesAfterCenterUpdate) {
  const int64_t n = 64, k = 19, d = 40;
  Matrix points = RandomMatrix(n, d, 1111, 2.0);
  Matrix centers = RandomMatrix(k, d, 2222, 2.0);

  NearestCenterSearch search(centers);
  search.Freeze();
  std::vector<double> before(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, nullptr,
                   before.data());

  // Mutate every center in place (a minibatch-style gradient step).
  rng::Rng rng(3333);
  for (int64_t c = 0; c < k; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      centers.At(c, j) += 0.5 * rng.NextGaussian();
    }
  }

  // Stale snapshot: still bitwise the pre-mutation results.
  std::vector<double> stale(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, nullptr,
                   stale.data());
  EXPECT_EQ(stale, before);

  // Re-freeze: matches a fresh search over the mutated centers bitwise,
  // in both the batched and the scalar path.
  search.Freeze();
  NearestCenterSearch fresh(centers);
  std::vector<int32_t> idx_a(static_cast<size_t>(n)), idx_b(idx_a);
  std::vector<double> after(static_cast<size_t>(n)),
      expected(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, idx_a.data(),
                   after.data());
  fresh.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                  expected.data());
  EXPECT_EQ(after, expected);  // bitwise
  EXPECT_EQ(idx_a, idx_b);
  EXPECT_NE(after, before);  // the update actually changed the answers
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(search.Find(points.Row(i)).distance2,
              fresh.Find(points.Row(i)).distance2);
  }
}

// --- Two-nearest and dense-distance scans --------------------------------

TEST(BatchEngineTest, TwoNearestMatchesSequentialReference) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 1200 + s.n, 4.0);
    Matrix centers = RandomMatrix(s.k, s.d, 1300 + s.k, 4.0);
    NearestCenterSearch search(centers);
    search.Freeze();
    std::vector<int32_t> idx(static_cast<size_t>(s.n));
    std::vector<double> d1(static_cast<size_t>(s.n));
    std::vector<double> d2(static_cast<size_t>(s.n));
    search.FindTwoNearestRange(points, IndexRange{0, s.n}, nullptr,
                               idx.data(), d1.data(), d2.data());
    // Reference: dense distances reduced sequentially with the same tie
    // semantics.
    std::vector<double> dense(static_cast<size_t>(s.n * s.k));
    search.DistancesRange(points, IndexRange{0, s.n}, nullptr,
                          dense.data());
    for (int64_t i = 0; i < s.n; ++i) {
      int64_t best = -1;
      double b1 = std::numeric_limits<double>::infinity();
      double b2 = std::numeric_limits<double>::infinity();
      for (int64_t c = 0; c < s.k; ++c) {
        double v = dense[static_cast<size_t>(i * s.k + c)];
        if (v < b1) {
          b2 = b1;
          b1 = v;
          best = c;
        } else if (v < b2) {
          b2 = v;
        }
      }
      EXPECT_EQ(idx[static_cast<size_t>(i)], best) << "point " << i;
      EXPECT_EQ(d1[static_cast<size_t>(i)], b1) << "point " << i;
      EXPECT_EQ(d2[static_cast<size_t>(i)], b2) << "point " << i;
    }
  }
}

TEST(BatchEngineTest, DistancesMatchScalarPairChains) {
  const int64_t n = 70, k = 21;
  for (int64_t d : {8, 40}) {  // plain and expanded kAuto regimes
    Matrix points = RandomMatrix(n, d, 1400 + d, 3.0);
    Matrix centers = RandomMatrix(k, d, 1500 + d, 3.0);
    NearestCenterSearch search(centers);
    std::vector<double> dense(static_cast<size_t>(n * k));
    search.DistancesRange(points, IndexRange{0, n}, nullptr, dense.data());
    std::vector<double> center_norms = RowSquaredNorms(centers);
    for (int64_t i = 0; i < n; ++i) {
      double pn = SquaredNorm(points.Row(i), d);
      for (int64_t c = 0; c < k; ++c) {
        double expected =
            search.uses_expanded_kernel()
                ? SquaredL2Expanded(
                      pn, center_norms[static_cast<size_t>(c)],
                      PairDotProduct(points.Row(i), centers.Row(c), d))
                : PairSquaredL2(points.Row(i), centers.Row(c), d);
        EXPECT_EQ(dense[static_cast<size_t>(i * k + c)], expected)
            << "i=" << i << " c=" << c << " d=" << d;  // bitwise
      }
    }
  }
}

TEST(BatchEngineTest, TwoNearestSingleCenterLeavesSecondInfinite) {
  Matrix centers = RandomMatrix(1, 12, 1600);
  Matrix points = RandomMatrix(5, 12, 1700);
  NearestCenterSearch search(centers);
  std::vector<int32_t> idx(5);
  std::vector<double> d1(5), d2(5);
  search.FindTwoNearestRange(points, IndexRange{0, 5}, nullptr, idx.data(),
                             d1.data(), d2.data());
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(idx[static_cast<size_t>(i)], 0);
    EXPECT_TRUE(std::isinf(d2[static_cast<size_t>(i)]));
  }
}

// --- Residue path: the point-grouped narrow-panel kernel ------------------

// Same bytes, not merely equal values: the engine's contract is bitwise.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}
bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

// Every residue width (k mod kCenterTile = 1..15), alone and behind one
// full panel, at row counts around the residue kernel's point groups
// (2, 4 or 8 rows per call) and the 64-row point tile, in both kernel
// regimes. Every pair must hold the single-pair chain's bytes and every
// argmin the ascending strict-< scan's: how the residue kernel groups
// point rows may change neither.
TEST(BatchResidueTest, EveryWidthBitwiseEqualsPairChains) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int64_t d : {1, 31, 32, 64}) {
    for (BatchKernel kernel : {BatchKernel::kPlain, BatchKernel::kExpanded}) {
      const bool expanded = kernel == BatchKernel::kExpanded;
      for (int64_t width = 1; width < kCenterTile; ++width) {
        for (int64_t k : {width, kCenterTile + width}) {
          Matrix centers = RandomMatrix(k, d, 3000 + 7 * k + d, 3.0);
          std::vector<double> center_norms = RowSquaredNorms(centers);
          CenterPanels panels;
          panels.Pack(centers);
          for (int64_t n : {1, 7, 8, 9, 63, 64, 65, 130}) {
            SCOPED_TRACE("d=" + std::to_string(d) +
                         " expanded=" + std::to_string(expanded) +
                         " k=" + std::to_string(k) +
                         " n=" + std::to_string(n));
            Matrix points = RandomMatrix(n, d, 4000 + 13 * n + d, 3.0);
            const auto un = static_cast<size_t>(n);
            // pair[c][i]: center c's column, the shape a one-center
            // subset scan returns.
            std::vector<std::vector<double>> pair(static_cast<size_t>(k));
            std::vector<double> ref_best(un, inf);
            std::vector<int32_t> ref_index(un, -1);
            for (int64_t c = 0; c < k; ++c) {
              auto& column = pair[static_cast<size_t>(c)];
              column.resize(un);
              for (int64_t i = 0; i < n; ++i) {
                const double v =
                    expanded
                        ? SquaredL2Expanded(
                              SquaredNorm(points.Row(i), d),
                              center_norms[static_cast<size_t>(c)],
                              PairDotProduct(points.Row(i), centers.Row(c),
                                             d))
                        : PairSquaredL2(points.Row(i), centers.Row(c), d);
                column[static_cast<size_t>(i)] = v;
                if (v < ref_best[static_cast<size_t>(i)]) {
                  ref_best[static_cast<size_t>(i)] = v;
                  ref_index[static_cast<size_t>(i)] =
                      static_cast<int32_t>(c);
                }
              }
            }

            std::vector<double> best(un, inf);
            std::vector<int32_t> index(un, -1);
            BatchNearestMerge(points, IndexRange{0, n}, nullptr, panels,
                              center_norms.data(), kernel, best.data(),
                              index.data());
            EXPECT_TRUE(SameBytes(best, ref_best));
            EXPECT_EQ(index, ref_index);

            for (int64_t c = 0; c < k; ++c) {
              std::vector<double> one(un, inf);
              std::vector<int32_t> one_index(un, -1);
              BatchNearestMergeSubset(points.view(), IndexRange{0, n},
                                      nullptr, panels, center_norms.data(),
                                      kernel, IndexRange{c, c + 1},
                                      one.data(), one_index.data());
              EXPECT_TRUE(SameBytes(one, pair[static_cast<size_t>(c)]))
                  << "center " << c;
              EXPECT_EQ(one_index,
                        std::vector<int32_t>(un, static_cast<int32_t>(c)));
            }
          }
        }
      }
    }
  }
}

// --- Full panels: the dispatched multi-row micro-kernel ------------------

// Full panels alone (k = 16, 32) and ahead of a residue (k = 21), at
// every row count up to 17 (8-row groups plus 2- and 1-row leftovers)
// and around the 64-row point tile, in both kernel regimes. Every entry
// point must reduce exactly the single-pair chains' bytes with the
// sequential strict-< scan's argmins, including incremental merges whose
// incumbents let whole rows skip the merge. The dispatched kernel is
// recorded as a test property, so a CI log shows which one ran.
TEST(BatchFullPanelTest, EveryEntryPointBitwiseEqualsPairChains) {
  RecordProperty("batch_kernel_isa", BatchKernelIsa());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<int64_t> row_counts;
  for (int64_t n = 1; n <= 17; ++n) row_counts.push_back(n);
  for (int64_t n : {63, 64, 65, 130}) row_counts.push_back(n);
  for (int64_t d : {1, 31, 32, 64}) {
    for (BatchKernel kernel : {BatchKernel::kPlain, BatchKernel::kExpanded}) {
      const bool expanded = kernel == BatchKernel::kExpanded;
      for (int64_t k : {kCenterTile, 2 * kCenterTile, kCenterTile + 5}) {
        Matrix centers = RandomMatrix(k, d, 5000 + 7 * k + d, 3.0);
        std::vector<double> center_norms = RowSquaredNorms(centers);
        CenterPanels panels;
        panels.Pack(centers);
        // Straddles a panel boundary at both ends for k > kCenterTile.
        const IndexRange subset{3, k - 2};
        for (int64_t n : row_counts) {
          SCOPED_TRACE("d=" + std::to_string(d) +
                       " expanded=" + std::to_string(expanded) +
                       " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          Matrix points = RandomMatrix(n, d, 6000 + 13 * n + d, 3.0);
          // A NaN coordinate: every plain distance of row 5 is NaN (never
          // merged), every expanded one clamps to +0.0.
          if (n > 5) {
            points.At(5, d / 2) = std::numeric_limits<double>::quiet_NaN();
          }
          const auto un = static_cast<size_t>(n);
          std::vector<double> pair(static_cast<size_t>(n * k));
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t c = 0; c < k; ++c) {
              pair[static_cast<size_t>(i * k + c)] =
                  expanded
                      ? SquaredL2Expanded(
                            SquaredNorm(points.Row(i), d),
                            center_norms[static_cast<size_t>(c)],
                            PairDotProduct(points.Row(i), centers.Row(c), d))
                      : PairSquaredL2(points.Row(i), centers.Row(c), d);
            }
          }
          // The sequential reference: merge centers [lo, hi) of row i
          // into (best, index) in ascending order with strict <.
          auto scan = [&](int64_t i, int64_t lo, int64_t hi, double* best,
                          int32_t* index) {
            for (int64_t c = lo; c < hi; ++c) {
              const double v = pair[static_cast<size_t>(i * k + c)];
              if (v < *best) {
                *best = v;
                *index = static_cast<int32_t>(c);
              }
            }
          };

          // Nearest: fresh (with and without an index), then incremental
          // from three incumbents: just below every lane (every row
          // skips), tied with the nearest lane, and tied with a middle
          // lane. Ties must keep the incumbent.
          for (int prefill = 0; prefill < 4; ++prefill) {
            std::vector<double> best(un, inf), ref_best(un, inf);
            std::vector<int32_t> index(un, -1), ref_index(un, -1);
            for (int64_t i = 0; i < n; ++i) {
              const auto ui = static_cast<size_t>(i);
              double nearest = inf;
              int32_t ignored = -1;
              scan(i, 0, k, &nearest, &ignored);
              if (prefill == 1) {
                best[ui] = std::nextafter(nearest, -inf);
              } else if (prefill == 2) {
                best[ui] = nearest;
              } else if (prefill == 3) {
                best[ui] = pair[static_cast<size_t>(i * k + (i * 7) % k)];
              }
              if (prefill != 0) index[ui] = -7;
              ref_best[ui] = best[ui];
              ref_index[ui] = index[ui];
              scan(i, 0, k, &ref_best[ui], &ref_index[ui]);
            }
            std::vector<double> no_index_best = best;
            BatchNearestMerge(points, IndexRange{0, n}, nullptr, panels,
                              center_norms.data(), kernel, best.data(),
                              index.data());
            EXPECT_TRUE(SameBytes(best, ref_best)) << "prefill " << prefill;
            EXPECT_EQ(index, ref_index) << "prefill " << prefill;
            BatchNearestMerge(points, IndexRange{0, n}, nullptr, panels,
                              center_norms.data(), kernel,
                              no_index_best.data(), nullptr);
            EXPECT_TRUE(SameBytes(no_index_best, ref_best))
                << "prefill " << prefill;
          }

          {
            std::vector<double> best(un, inf), ref_best(un, inf);
            std::vector<int32_t> index(un, -1), ref_index(un, -1);
            for (int64_t i = 0; i < n; ++i) {
              const auto ui = static_cast<size_t>(i);
              scan(i, subset.begin, subset.end, &ref_best[ui],
                   &ref_index[ui]);
            }
            BatchNearestMergeSubset(points.view(), IndexRange{0, n}, nullptr,
                                    panels, center_norms.data(), kernel,
                                    subset, best.data(), index.data());
            EXPECT_TRUE(SameBytes(best, ref_best));
            EXPECT_EQ(index, ref_index);
          }

          // Two-nearest, top-3 and dense rows against the same pairs.
          std::vector<int32_t> two_index(un);
          std::vector<double> d1(un), d2(un);
          BatchTwoNearest(points, IndexRange{0, n}, nullptr, panels,
                          center_norms.data(), kernel, two_index.data(),
                          d1.data(), d2.data());
          const int64_t m = 3;
          std::vector<int32_t> top_index(static_cast<size_t>(n * m));
          std::vector<double> top_d2(static_cast<size_t>(n * m));
          BatchTopM(points, IndexRange{0, n}, nullptr, panels,
                    center_norms.data(), kernel, m, top_index.data(),
                    top_d2.data());
          std::vector<double> dense(static_cast<size_t>(n * k));
          BatchDistances(points, IndexRange{0, n}, nullptr, panels,
                         center_norms.data(), kernel, dense.data());
          EXPECT_TRUE(SameBytes(dense, pair));
          std::vector<int32_t> ref_two_index(un, -1);
          std::vector<double> ref_d1(un, inf), ref_d2(un, inf);
          std::vector<int32_t> ref_top_index(static_cast<size_t>(n * m), -1);
          std::vector<double> ref_top_d2(static_cast<size_t>(n * m), inf);
          for (int64_t i = 0; i < n; ++i) {
            const auto ui = static_cast<size_t>(i);
            double* pd = ref_top_d2.data() + i * m;
            int32_t* pi = ref_top_index.data() + i * m;
            for (int64_t c = 0; c < k; ++c) {
              const double v = pair[static_cast<size_t>(i * k + c)];
              if (v < ref_d1[ui]) {
                ref_d2[ui] = ref_d1[ui];
                ref_d1[ui] = v;
                ref_two_index[ui] = static_cast<int32_t>(c);
              } else if (v < ref_d2[ui]) {
                ref_d2[ui] = v;
              }
              int64_t slot = m;
              while (slot > 0 && v < pd[slot - 1]) --slot;
              if (slot == m) continue;
              for (int64_t s = m - 1; s > slot; --s) {
                pd[s] = pd[s - 1];
                pi[s] = pi[s - 1];
              }
              pd[slot] = v;
              pi[slot] = static_cast<int32_t>(c);
            }
          }
          EXPECT_EQ(two_index, ref_two_index);
          EXPECT_TRUE(SameBytes(d1, ref_d1));
          EXPECT_TRUE(SameBytes(d2, ref_d2));
          EXPECT_EQ(top_index, ref_top_index);
          EXPECT_TRUE(SameBytes(top_d2, ref_top_d2));
        }
      }
    }
  }
}

// --- Bitwise determinism across thread counts ---------------------------

std::vector<std::unique_ptr<ThreadPool>> MakePools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // sequential
  pools.push_back(std::make_unique<ThreadPool>(1));
  pools.push_back(std::make_unique<ThreadPool>(4));
  return pools;
}

TEST(BatchDeterminismTest, TrackerBitwiseIdenticalAcrossThreadCounts) {
  Matrix pts = RandomMatrix(500, 33, 505, 4.0);
  std::vector<double> w(500);
  rng::Rng wrng(606);
  for (auto& x : w) x = 0.25 + wrng.NextDouble();
  auto data = Dataset::WithWeights(pts, w);
  ASSERT_TRUE(data.ok());
  Matrix centers = RandomMatrix(37, 33, 707, 4.0);

  auto pools = MakePools();
  std::vector<std::vector<double>> potentials(pools.size());
  std::vector<std::vector<int64_t>> closest(pools.size());
  std::vector<std::vector<double>> distances(pools.size());
  for (size_t p = 0; p < pools.size(); ++p) {
    MinDistanceTracker tracker(*data, pools[p].get());
    // Grow the center set in uneven increments (1, then 16, then the
    // rest) to cross panel boundaries mid-stream.
    Matrix grown(33);
    int64_t added = 0;
    for (int64_t step : {int64_t{1}, int64_t{16},
                         centers.rows() - 17}) {
      for (int64_t c = 0; c < step; ++c) {
        grown.AppendRow(centers.Row(added + c));
      }
      potentials[p].push_back(tracker.AddCenters(grown, added));
      added += step;
    }
    for (int64_t i = 0; i < data->n(); ++i) {
      closest[p].push_back(tracker.ClosestCenter(i));
      distances[p].push_back(tracker.Distance2(i));
    }
  }
  for (size_t p = 1; p < pools.size(); ++p) {
    EXPECT_EQ(potentials[p], potentials[0]) << "pool " << p;  // bitwise
    EXPECT_EQ(closest[p], closest[0]) << "pool " << p;
    EXPECT_EQ(distances[p], distances[0]) << "pool " << p;  // bitwise
  }
}

TEST(BatchDeterminismTest, AssignmentBitwiseIdenticalAcrossThreadCounts) {
  Dataset data(RandomMatrix(400, 19, 808, 2.0));
  Matrix centers = RandomMatrix(21, 19, 909, 2.0);
  auto pools = MakePools();
  Assignment reference = ComputeAssignment(data, centers, nullptr);
  double reference_cost = ComputeCost(data, centers, nullptr);
  EXPECT_EQ(reference.cost, reference_cost);  // same chunked reduction
  for (auto& pool : pools) {
    Assignment a = ComputeAssignment(data, centers, pool.get());
    EXPECT_EQ(a.cluster, reference.cluster);
    EXPECT_EQ(a.cost, reference.cost);  // bitwise
    EXPECT_EQ(ComputeCost(data, centers, pool.get()), reference_cost);
  }
}

TEST(BatchDeterminismTest, KMeansLLInitBitwiseIdenticalAcrossThreadCounts) {
  Dataset data(RandomMatrix(300, 12, 111, 3.0));
  KMeansLLOptions options;
  options.rounds = 3;
  options.oversampling = 8.0;
  auto pools = MakePools();
  auto reference = KMeansLLInit(data, 6, rng::MakeRootRng(42), options,
                                nullptr);
  ASSERT_TRUE(reference.ok());
  for (auto& pool : pools) {
    auto result = KMeansLLInit(data, 6, rng::MakeRootRng(42), options,
                               pool.get());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->centers == reference->centers);  // bitwise
    EXPECT_EQ(result->telemetry.round_potentials,
              reference->telemetry.round_potentials);  // bitwise
  }
}

// Step 8 runs the coreset Lloyd on the caller's pool and k-means++
// inline; the reclustered centers may not depend on the pool.
TEST(BatchDeterminismTest, ReclusterCandidatesBitwiseIdenticalAcrossPools) {
  const int64_t m = 400, k = 21;  // k mod kCenterTile = 5: residue path
  Matrix candidates = RandomMatrix(m, 40, 1212, 4.0);
  rng::Rng weight_rng(1313);
  std::vector<double> weights(static_cast<size_t>(m));
  for (double& w : weights) w = weight_rng.NextDouble(1.0, 10.0);
  const KMeansLLOptions options;  // k-means++, then coreset Lloyd
  ASSERT_EQ(options.recluster, ReclusterMethod::kWeightedKMeansPPPlusLloyd);
  std::vector<Matrix> results;
  for (auto& pool : MakePools()) {
    auto r = internal::ReclusterCandidates(candidates, weights, k,
                                           rng::MakeRootRng(77), options,
                                           pool.get(), nullptr);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows(), k);
    results.push_back(std::move(r).ValueOrDie());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(SameBytes(results[i], results[0])) << "pool #" << i;
  }
}

TEST(BatchDeterminismTest, FindAllIdenticalAcrossThreadCounts) {
  Matrix points = RandomMatrix(333, 48, 222, 2.0);
  Matrix centers = RandomMatrix(50, 48, 333, 2.0);
  NearestCenterSearch search(centers);
  std::vector<int32_t> ref_idx;
  std::vector<double> ref_d2;
  search.FindAll(points, &ref_idx, &ref_d2, nullptr);
  auto pools = MakePools();
  for (auto& pool : pools) {
    std::vector<int32_t> idx;
    std::vector<double> d2;
    search.FindAll(points, &idx, &d2, pool.get());
    EXPECT_EQ(idx, ref_idx);
    EXPECT_EQ(d2, ref_d2);  // bitwise
  }
}

TEST(BatchDeterminismTest, RowSquaredNormsIdenticalAcrossThreadCounts) {
  Matrix m = RandomMatrix(257, 31, 444, 7.0);
  std::vector<double> reference = RowSquaredNorms(m, nullptr);
  ThreadPool pool(3);
  EXPECT_EQ(RowSquaredNorms(m, &pool), reference);  // bitwise
}

// --- Top-m merge mode (the serving layer's AssignTopM primitive) --------

TEST(BatchTopMTest, MatchesSortedDenseDistances) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 505 + s.n, 4.0);
    Matrix centers = RandomMatrix(s.k, s.d, 606 + s.k, 4.0);
    NearestCenterSearch search(centers);
    search.Freeze();
    const int64_t m = std::min<int64_t>(s.k, 4);

    std::vector<double> dense(static_cast<size_t>(s.n * s.k));
    search.DistancesRange(points, IndexRange{0, s.n}, nullptr,
                          dense.data());
    std::vector<int32_t> idx(static_cast<size_t>(s.n * m));
    std::vector<double> d2(static_cast<size_t>(s.n * m));
    search.FindTopMRange(points, IndexRange{0, s.n}, nullptr, m,
                         idx.data(), d2.data());

    for (int64_t i = 0; i < s.n; ++i) {
      // Reference: stable sort of the engine's dense row by (d2, index).
      std::vector<int32_t> order(static_cast<size_t>(s.k));
      for (int64_t c = 0; c < s.k; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      const double* row = dense.data() + i * s.k;
      std::stable_sort(order.begin(), order.end(),
                       [&](int32_t a, int32_t b) { return row[a] < row[b]; });
      for (int64_t slot = 0; slot < m; ++slot) {
        const auto got = static_cast<size_t>(i * m + slot);
        EXPECT_EQ(idx[got], order[static_cast<size_t>(slot)])
            << "n=" << s.n << " k=" << s.k << " d=" << s.d << " point "
            << i << " slot " << slot;
        // Bitwise: top-m reports the engine's own values.
        EXPECT_EQ(d2[got], row[order[static_cast<size_t>(slot)]]);
      }
    }
  }
}

TEST(BatchTopMTest, SlotZeroBitwiseMatchesNearestMerge) {
  Matrix points = RandomMatrix(130, 48, 707, 3.0);
  Matrix centers = RandomMatrix(33, 48, 808, 3.0);
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t n = points.rows();
  std::vector<int32_t> near_idx(static_cast<size_t>(n));
  std::vector<double> near_d2(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, near_idx.data(),
                   near_d2.data());
  const int64_t m = 3;
  std::vector<int32_t> idx(static_cast<size_t>(n * m));
  std::vector<double> d2(static_cast<size_t>(n * m));
  search.FindTopMRange(points, IndexRange{0, n}, nullptr, m, idx.data(),
                       d2.data());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(idx[static_cast<size_t>(i * m)],
              near_idx[static_cast<size_t>(i)]);
    EXPECT_EQ(d2[static_cast<size_t>(i * m)],
              near_d2[static_cast<size_t>(i)]);  // bitwise
  }
}

TEST(BatchTopMTest, ExactTiesSortByAscendingCenterIndex) {
  // Integer grid with duplicated centers: distances are exactly equal, so
  // tied centers must appear in ascending index order (the sequential
  // ascending scan's strict-< insertion).
  Matrix points(1, 2);
  points.At(0, 0) = 0.0;
  points.At(0, 1) = 0.0;
  Matrix centers(4, 2);
  centers.At(0, 0) = 3.0;  // d2 = 9
  centers.At(1, 0) = 1.0;  // d2 = 1 (tied with 2)
  centers.At(2, 1) = 1.0;  // d2 = 1 (tied with 1)
  centers.At(3, 0) = 2.0;  // d2 = 4
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t m = 4;
  std::vector<int32_t> idx(static_cast<size_t>(m));
  std::vector<double> d2(static_cast<size_t>(m));
  search.FindTopMRange(points, IndexRange{0, 1}, nullptr, m, idx.data(),
                       d2.data());
  EXPECT_EQ(idx, (std::vector<int32_t>{1, 2, 3, 0}));
  EXPECT_EQ(d2, (std::vector<double>{1.0, 1.0, 4.0, 9.0}));
}

TEST(BatchTopMTest, PadsSlotsBeyondK) {
  Matrix points = RandomMatrix(5, 8, 909, 2.0);
  Matrix centers = RandomMatrix(2, 8, 1010, 2.0);
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t m = 4;
  std::vector<int32_t> idx(static_cast<size_t>(5 * m));
  std::vector<double> d2(static_cast<size_t>(5 * m));
  search.FindTopMRange(points, IndexRange{0, 5}, nullptr, m, idx.data(),
                       d2.data());
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t slot = 2; slot < m; ++slot) {
      EXPECT_EQ(idx[static_cast<size_t>(i * m + slot)], -1);
      EXPECT_TRUE(std::isinf(d2[static_cast<size_t>(i * m + slot)]));
    }
  }
}

}  // namespace
}  // namespace kmeansll
