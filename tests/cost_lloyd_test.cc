// Tests for clustering/cost and clustering/lloyd: cost/assignment
// correctness, Lloyd convergence and invariants (monotone cost, fixed
// points, empty-cluster repair, weighted == replicated equivalence, the
// number of data passes per run).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "clustering/cost.h"
#include "clustering/lloyd.h"
#include "data/synthetic.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

Dataset TwoClusterLine() {
  // Points at 0,1 and 10,11: optimal 2-means centers are 0.5 and 10.5.
  return Dataset(Matrix::FromValues(4, 1, {0, 1, 10, 11}));
}

TEST(ComputeCostTest, HandComputedExample) {
  Dataset data = TwoClusterLine();
  Matrix centers = Matrix::FromValues(2, 1, {0.5, 10.5});
  // Each point is 0.5 from its center: 4 * 0.25 = 1.
  EXPECT_DOUBLE_EQ(ComputeCost(data, centers), 1.0);
}

TEST(ComputeCostTest, SingleCenterIsTotalSpread) {
  Dataset data(Matrix::FromValues(3, 1, {0, 3, 6}));
  Matrix center = Matrix::FromValues(1, 1, {3});
  EXPECT_DOUBLE_EQ(ComputeCost(data, center), 9.0 + 0.0 + 9.0);
}

TEST(ComputeCostTest, WeightsMultiplyContributions) {
  Matrix points = Matrix::FromValues(2, 1, {0, 2});
  auto data = Dataset::WithWeights(points, {1.0, 5.0});
  ASSERT_TRUE(data.ok());
  Matrix center = Matrix::FromValues(1, 1, {0});
  EXPECT_DOUBLE_EQ(ComputeCost(*data, center), 5.0 * 4.0);
}

TEST(ComputeCostTest, PoolMatchesSequentialExactly) {
  auto generated = data::GenerateGaussMixture(
      {.n = 2000, .k = 10, .dim = 8, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(31));
  ASSERT_TRUE(generated.ok());
  Matrix centers = generated->true_centers;
  double sequential = ComputeCost(generated->data, centers);
  for (int threads : {1, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ComputeCost(generated->data, centers, &pool), sequential);
  }
}

TEST(ComputeAssignmentTest, AssignsToNearest) {
  Dataset data = TwoClusterLine();
  Matrix centers = Matrix::FromValues(2, 1, {0.0, 10.0});
  Assignment a = ComputeAssignment(data, centers);
  EXPECT_EQ(a.cluster, (std::vector<int32_t>{0, 0, 1, 1}));
  EXPECT_DOUBLE_EQ(a.cost, 0.0 + 1.0 + 0.0 + 1.0);
}

TEST(LloydStepTest, CentroidsAreClusterMeans) {
  Dataset data = TwoClusterLine();
  Matrix centers = Matrix::FromValues(2, 1, {0.0, 10.0});
  Matrix updated;
  Assignment assignment;
  int64_t repaired = LloydStep(data, centers, &updated, &assignment,
                               nullptr);
  EXPECT_EQ(repaired, 0);
  EXPECT_DOUBLE_EQ(updated.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(updated.At(1, 0), 10.5);
}

TEST(LloydStepTest, WeightedCentroids) {
  Matrix points = Matrix::FromValues(2, 1, {0, 3});
  auto data = Dataset::WithWeights(points, {1.0, 2.0});
  ASSERT_TRUE(data.ok());
  Matrix center = Matrix::FromValues(1, 1, {1});
  Matrix updated;
  Assignment assignment;
  LloydStep(*data, center, &updated, &assignment, nullptr);
  // Weighted mean: (1*0 + 2*3) / 3 = 2.
  EXPECT_DOUBLE_EQ(updated.At(0, 0), 2.0);
}

TEST(LloydStepTest, EmptyClusterGetsMaxContributor) {
  // Center 1 is so far away that it attracts nothing; repair must move it
  // onto the worst-served point (11, farthest from center 0 at 0).
  Dataset data = TwoClusterLine();
  Matrix centers = Matrix::FromValues(2, 1, {0.0, 1000.0});
  Matrix updated;
  Assignment assignment;
  int64_t repaired = LloydStep(data, centers, &updated, &assignment,
                               nullptr);
  EXPECT_EQ(repaired, 1);
  EXPECT_DOUBLE_EQ(updated.At(1, 0), 11.0);
}

TEST(RunLloydTest, ValidatesInputs) {
  Dataset data = TwoClusterLine();
  EXPECT_FALSE(RunLloyd(data, Matrix(1), LloydOptions()).ok());  // empty
  Matrix wrong_dim = Matrix::FromValues(1, 2, {0, 0});
  EXPECT_FALSE(RunLloyd(data, wrong_dim, LloydOptions()).ok());
  LloydOptions bad;
  bad.max_iterations = -1;
  Matrix centers = Matrix::FromValues(1, 1, {0});
  EXPECT_FALSE(RunLloyd(data, centers, bad).ok());
}

TEST(RunLloydTest, ConvergesToOptimumFromReasonableStart) {
  Dataset data = TwoClusterLine();
  Matrix start = Matrix::FromValues(2, 1, {1.0, 9.0});
  auto result = RunLloyd(data, start, LloydOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_DOUBLE_EQ(result->centers.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(result->centers.At(1, 0), 10.5);
  EXPECT_DOUBLE_EQ(result->assignment.cost, 1.0);
}

TEST(RunLloydTest, CostHistoryIsMonotoneNonIncreasing) {
  auto generated = data::GenerateGaussMixture(
      {.n = 1000, .k = 8, .dim = 6, .center_stddev = 3.0,
       .cluster_stddev = 1.0},
      rng::Rng(32));
  ASSERT_TRUE(generated.ok());
  // Deliberately poor start: first 8 points.
  std::vector<int64_t> first;
  for (int64_t i = 0; i < 8; ++i) first.push_back(i);
  Matrix start = generated->data.points().GatherRows(first);
  LloydOptions options;
  options.max_iterations = 50;
  options.track_history = true;
  auto result = RunLloyd(generated->data, start, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->cost_history.size(), 2u);
  for (size_t i = 1; i < result->cost_history.size(); ++i) {
    EXPECT_LE(result->cost_history[i],
              result->cost_history[i - 1] * (1 + 1e-12))
        << "iteration " << i;
  }
}

TEST(RunLloydTest, FixedPointWhenStartedAtOptimum) {
  Dataset data = TwoClusterLine();
  Matrix optimum = Matrix::FromValues(2, 1, {0.5, 10.5});
  auto result = RunLloyd(data, optimum, LloydOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LE(result->iterations, 2);
  EXPECT_DOUBLE_EQ(result->assignment.cost, 1.0);
}

TEST(RunLloydTest, MaxIterationsZeroReturnsInitialCenters) {
  Dataset data = TwoClusterLine();
  Matrix start = Matrix::FromValues(2, 1, {1.0, 9.0});
  LloydOptions options;
  options.max_iterations = 0;
  auto result = RunLloyd(data, start, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, 0);
  EXPECT_FALSE(result->converged);
  EXPECT_TRUE(result->centers == start);
}

TEST(RunLloydTest, RelativeToleranceStopsEarly) {
  auto generated = data::GenerateGaussMixture(
      {.n = 2000, .k = 10, .dim = 10, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(33));
  ASSERT_TRUE(generated.ok());
  std::vector<int64_t> first;
  for (int64_t i = 0; i < 10; ++i) first.push_back(i);
  Matrix start = generated->data.points().GatherRows(first);

  LloydOptions strict;
  strict.max_iterations = 200;
  auto full = RunLloyd(generated->data, start, strict);
  ASSERT_TRUE(full.ok());

  LloydOptions loose = strict;
  loose.relative_tolerance = 0.05;
  auto early = RunLloyd(generated->data, start, loose);
  ASSERT_TRUE(early.ok());
  EXPECT_TRUE(early->converged);
  EXPECT_LE(early->iterations, full->iterations);
  // The tolerance check must not fire on the degenerate iteration-0
  // comparison (cost of the same assignment against itself).
  EXPECT_GT(early->iterations, 1);
}

TEST(RunLloydTest, WeightedEqualsReplicatedPoints) {
  // A dataset with integer weights must optimize exactly like the
  // unweighted dataset where each point is repeated weight times.
  Matrix unique_points =
      Matrix::FromValues(4, 1, {0.0, 1.0, 8.0, 12.0});
  std::vector<double> weights = {3.0, 1.0, 2.0, 2.0};
  auto weighted = Dataset::WithWeights(unique_points, weights);
  ASSERT_TRUE(weighted.ok());

  Matrix replicated(1);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t r = 0; r < static_cast<int64_t>(weights[i]); ++r) {
      replicated.AppendRow(unique_points.Row(i));
    }
  }
  Dataset replicated_data(std::move(replicated));

  Matrix start = Matrix::FromValues(2, 1, {0.0, 10.0});
  LloydOptions options;
  options.max_iterations = 50;
  auto a = RunLloyd(*weighted, start, options);
  auto b = RunLloyd(replicated_data, start, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->centers.At(0, 0), b->centers.At(0, 0), 1e-12);
  EXPECT_NEAR(a->centers.At(1, 0), b->centers.At(1, 0), 1e-12);
  EXPECT_NEAR(a->assignment.cost, b->assignment.cost, 1e-9);
}

TEST(RunLloydTest, PoolAndSequentialAgree) {
  auto generated = data::GenerateGaussMixture(
      {.n = 1500, .k = 6, .dim = 5, .center_stddev = 4.0,
       .cluster_stddev = 1.0},
      rng::Rng(34));
  ASSERT_TRUE(generated.ok());
  std::vector<int64_t> first = {0, 1, 2, 3, 4, 5};
  Matrix start = generated->data.points().GatherRows(first);
  LloydOptions options;
  options.max_iterations = 30;
  auto sequential = RunLloyd(generated->data, start, options);
  ASSERT_TRUE(sequential.ok());
  ThreadPool pool(4);
  auto parallel = RunLloyd(generated->data, start, options, &pool);
  ASSERT_TRUE(parallel.ok());
  // Deterministic chunked reduction: identical results.
  EXPECT_EQ(parallel->iterations, sequential->iterations);
  EXPECT_EQ(parallel->assignment.cost, sequential->assignment.cost);
  EXPECT_TRUE(parallel->centers == sequential->centers);
}

// Counts the rows every Pin hands out, so a test can tell how many data
// passes a Lloyd run makes.
class RowCountingSource final : public DatasetSource {
 public:
  explicit RowCountingSource(const Dataset& data)
      : inner_(data.AsSource()) {}

  int64_t n() const override { return inner_.n(); }
  int64_t dim() const override { return inner_.dim(); }
  bool has_weights() const override { return inner_.has_weights(); }
  bool has_labels() const override { return inner_.has_labels(); }
  double TotalWeight() const override { return inner_.TotalWeight(); }
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    PinnedBlock block = inner_.Pin(begin, end);
    rows_pinned_.fetch_add(block.view().rows(), std::memory_order_relaxed);
    return block;
  }

  int64_t rows_pinned() const { return rows_pinned_.load(); }

 private:
  InMemorySource inner_;
  mutable std::atomic<int64_t> rows_pinned_{0};
};

// A fresh run makes exactly two passes per iteration (assign, then
// accumulate) plus the final assignment: iteration 0 never reads a
// "previous" assignment, so none is computed before the loop.
TEST(RunLloydTest, FreshRunMakesNoPassBeforeTheFirstIteration) {
  auto generated = data::GenerateGaussMixture(
      {.n = 2000, .k = 10, .dim = 10, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(36));
  ASSERT_TRUE(generated.ok());
  const Dataset& data = generated->data;
  std::vector<int64_t> seeds;
  for (int64_t i = 0; i < 10; ++i) seeds.push_back(i * 200);
  Matrix start = data.points().GatherRows(seeds);
  LloydOptions options;
  options.max_iterations = 3;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    RowCountingSource counted(data);
    auto result = RunLloyd(counted, start, options, p);
    ASSERT_TRUE(result.ok());
    // Neither convergence nor an empty-cluster repair (whose scan would
    // add a pass) may cut the run short or lengthen it.
    ASSERT_EQ(result->iterations, 3);
    ASSERT_EQ(result->empty_cluster_repairs, 0);
    // dim < kExpandedKernelMinDim: the plain kernel needs no norm pass.
    EXPECT_EQ(counted.rows_pinned(), (2 * 3 + 1) * data.n());
    auto direct = RunLloyd(data, start, options, p);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(result->centers == direct->centers);  // bitwise
    EXPECT_EQ(result->assignment.cost, direct->assignment.cost);
  }
}

// Property sweep: Lloyd never increases cost from any seeding, across a
// grid of (k, n) configurations.
class LloydPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(LloydPropertyTest, FinalCostNotWorseThanSeedCost) {
  auto [k, n] = GetParam();
  auto generated = data::GenerateGaussMixture(
      {.n = n, .k = k, .dim = 4, .center_stddev = 3.0,
       .cluster_stddev = 1.0},
      rng::Rng(35 + static_cast<uint64_t>(k * 1000 + n)));
  ASSERT_TRUE(generated.ok());
  std::vector<int64_t> seeds;
  for (int64_t i = 0; i < k; ++i) seeds.push_back(i * (n / k));
  Matrix start = generated->data.points().GatherRows(seeds);
  double seed_cost = ComputeCost(generated->data, start);
  LloydOptions options;
  options.max_iterations = 100;
  auto result = RunLloyd(generated->data, start, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->assignment.cost, seed_cost * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LloydPropertyTest,
    ::testing::Combine(::testing::Values<int64_t>(2, 5, 16),
                       ::testing::Values<int64_t>(200, 1000)));

}  // namespace
}  // namespace kmeansll
