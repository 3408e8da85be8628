// Tests for src/matrix: AlignedBuffer, Matrix, Dataset.

#include <gtest/gtest.h>
#include <cmath>

#include <cstdint>
#include <utility>
#include <vector>

#include "matrix/aligned_buffer.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"

namespace kmeansll {
namespace {

// ---------------------------------------------------------- AlignedBuffer

TEST(AlignedBufferTest, StartsEmpty) {
  AlignedBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBufferTest, SizedConstructionZeroInitializes) {
  AlignedBuffer b(100);
  ASSERT_EQ(b.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(b[i], 0.0);
}

TEST(AlignedBufferTest, DataIs64ByteAligned) {
  for (size_t size : {1, 7, 64, 1000}) {
    AlignedBuffer b(size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u)
        << "size " << size;
  }
}

TEST(AlignedBufferTest, ResizePreservesPrefixAndZeroesSuffix) {
  AlignedBuffer b(4);
  for (size_t i = 0; i < 4; ++i) b[i] = static_cast<double>(i + 1);
  b.Resize(8);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(b[i], static_cast<double>(i + 1));
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(b[i], 0.0);
  b.Resize(2);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], 2.0);
  // Growing again re-zeroes the previously truncated region.
  b.Resize(4);
  EXPECT_EQ(b[2], 0.0);
}

TEST(AlignedBufferTest, AppendGrowsAmortized) {
  AlignedBuffer b;
  std::vector<double> chunk = {1.0, 2.0, 3.0};
  for (int rep = 0; rep < 100; ++rep) b.Append(chunk.data(), chunk.size());
  ASSERT_EQ(b.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(b[i], static_cast<double>(i % 3 + 1));
  }
}

TEST(AlignedBufferTest, ReserveDoesNotChangeSize) {
  AlignedBuffer b(3);
  b.Reserve(1000);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_GE(b.capacity(), 1000u);
}

TEST(AlignedBufferTest, CopySemantics) {
  AlignedBuffer a(5);
  for (size_t i = 0; i < 5; ++i) a[i] = static_cast<double>(i);
  AlignedBuffer copy(a);
  EXPECT_EQ(copy.size(), 5u);
  copy[0] = 99.0;
  EXPECT_EQ(a[0], 0.0);  // deep copy
  AlignedBuffer assigned;
  assigned = a;
  EXPECT_EQ(assigned.size(), 5u);
  EXPECT_EQ(assigned[4], 4.0);
}

TEST(AlignedBufferTest, MoveSemantics) {
  AlignedBuffer a(5);
  a[2] = 7.0;
  const double* ptr = a.data();
  AlignedBuffer moved(std::move(a));
  EXPECT_EQ(moved.data(), ptr);  // no reallocation
  EXPECT_EQ(moved[2], 7.0);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

// ----------------------------------------------------------------- Matrix

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(m.At(i, j), 0.0);
  }
}

TEST(MatrixTest, FromValuesLaysOutRowMajor) {
  Matrix m = Matrix::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(0, 2), 3.0);
  EXPECT_EQ(m.At(1, 0), 4.0);
  EXPECT_EQ(m.At(1, 2), 6.0);
  EXPECT_EQ(m.Row(1)[1], 5.0);
}

TEST(MatrixTest, AppendRowGrows) {
  Matrix m(3);
  EXPECT_TRUE(m.empty());
  std::vector<double> r1 = {1, 2, 3}, r2 = {4, 5, 6};
  m.AppendRow(r1.data());
  m.AppendRow(r2.data());
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.At(1, 2), 6.0);
}

TEST(MatrixTest, AppendRowsConcatenates) {
  Matrix a = Matrix::FromValues(1, 2, {1, 2});
  Matrix b = Matrix::FromValues(2, 2, {3, 4, 5, 6});
  a.AppendRows(b);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.At(2, 1), 6.0);
  Matrix empty(2);
  a.AppendRows(empty);
  EXPECT_EQ(a.rows(), 3);
}

TEST(MatrixTest, GatherRowsCopiesSelection) {
  Matrix m = Matrix::FromValues(4, 2, {0, 0, 1, 1, 2, 2, 3, 3});
  Matrix g = m.GatherRows({3, 1, 1});
  ASSERT_EQ(g.rows(), 3);
  EXPECT_EQ(g.At(0, 0), 3.0);
  EXPECT_EQ(g.At(1, 0), 1.0);
  EXPECT_EQ(g.At(2, 1), 1.0);
}

TEST(MatrixTest, EqualityIsElementwise) {
  Matrix a = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  Matrix c = Matrix::FromValues(2, 2, {1, 2, 3, 5});
  Matrix d = Matrix::FromValues(1, 4, {1, 2, 3, 4});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(MatrixTest, ZeroClearsValues) {
  Matrix m = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  m.Zero();
  EXPECT_TRUE(m == Matrix(2, 2));
}

TEST(MatrixTest, RowSpanViewsAreLive) {
  Matrix m(2, 3);
  auto span = m.RowSpan(1);
  span[2] = 9.0;
  EXPECT_EQ(m.At(1, 2), 9.0);
}

// ---------------------------------------------------------------- Dataset

TEST(DatasetTest, UnweightedDefaults) {
  Dataset d(Matrix::FromValues(3, 2, {1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(d.n(), 3);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_FALSE(d.has_weights());
  EXPECT_EQ(d.Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(d.TotalWeight(), 3.0);
  EXPECT_FALSE(d.has_labels());
}

TEST(DatasetTest, WithWeightsValidates) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  EXPECT_FALSE(Dataset::WithWeights(points, {1.0}).ok());
  EXPECT_FALSE(Dataset::WithWeights(points, {1.0, -2.0}).ok());
  EXPECT_FALSE(
      Dataset::WithWeights(points, {1.0, std::nan("")}).ok());
  auto d = Dataset::WithWeights(points, {2.0, 3.0});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->has_weights());
  EXPECT_DOUBLE_EQ(d->Weight(1), 3.0);
  EXPECT_DOUBLE_EQ(d->TotalWeight(), 5.0);
}

TEST(DatasetTest, WithLabelsValidates) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  EXPECT_FALSE(Dataset::WithLabels(points, {0}).ok());
  auto d = Dataset::WithLabels(points, {4, -1});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->has_labels());
  EXPECT_EQ(d->labels()[1], -1);
}

TEST(DatasetTest, GatherCarriesWeightsAndLabels) {
  Matrix points = Matrix::FromValues(3, 1, {10, 20, 30});
  auto weighted = Dataset::WithWeights(points, {1.0, 2.0, 3.0});
  ASSERT_TRUE(weighted.ok());
  Dataset g = weighted->Gather({2, 0});
  EXPECT_EQ(g.n(), 2);
  EXPECT_EQ(g.Point(0)[0], 30.0);
  EXPECT_DOUBLE_EQ(g.Weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.Weight(1), 1.0);
}

TEST(DatasetTest, SplitRangesCoverExactly) {
  Dataset d(Matrix(10, 1));
  auto ranges = d.SplitRanges(3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 4}));
  EXPECT_EQ(ranges[1], (std::pair<int64_t, int64_t>{4, 7}));
  EXPECT_EQ(ranges[2], (std::pair<int64_t, int64_t>{7, 10}));
}

TEST(DatasetTest, IsAnInMemoryDatasetSource) {
  // Weights whose plain sum (1.0) differs from the compensated one, so
  // the TotalWeight check pins the Kahan chain.
  auto made = Dataset::WithWeightsAndLabels(
      Matrix::FromValues(5, 2, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
      {1.0, 1e-16, 1e-16, 1e-16, 1e-16}, {3, 1, 4, 1, 5});
  ASSERT_TRUE(made.ok());
  const Dataset& data = *made;
  const DatasetSource& source = data;
  const InMemorySource borrowed = data.AsSource();

  EXPECT_EQ(source.n(), 5);
  EXPECT_EQ(source.dim(), 2);
  EXPECT_TRUE(source.has_weights());
  EXPECT_TRUE(source.has_labels());
  EXPECT_EQ(source.TotalWeight(), borrowed.TotalWeight());  // bitwise
  EXPECT_TRUE(source.ResidencyRanges().empty());
  EXPECT_EQ(source.ResidentUnitCapacity(), 0);
  EXPECT_TRUE(source.status().ok());

  for (auto [b, e] : {std::pair<int64_t, int64_t>{0, 5}, {1, 4}, {4, 5}}) {
    PinnedBlock pin = source.Pin(b, e);
    const DatasetView got = pin.view();
    const DatasetView want = data.View().Slice(b, e);
    EXPECT_EQ(got.points().data(), want.points().data());
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.dim(), want.dim());
    EXPECT_EQ(got.first_row(), b);
    EXPECT_EQ(got.weights(), want.weights());
    EXPECT_EQ(got.labels(), want.labels());
  }
}

TEST(DatasetTest, SplitMorePartsThanRowsYieldsEmptyTails) {
  Dataset d(Matrix(2, 1));
  auto ranges = d.SplitRanges(5);
  ASSERT_EQ(ranges.size(), 5u);
  int64_t total = 0;
  for (auto [b, e] : ranges) total += e - b;
  EXPECT_EQ(total, 2);
}

}  // namespace
}  // namespace kmeansll
