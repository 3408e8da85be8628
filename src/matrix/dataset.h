// Dataset: points plus optional per-point weights and ground-truth labels.
// Weighted datasets arise in the reclustering step of k-means|| (Algorithm
// 2, Steps 7–8) and in the Partition baseline's intermediate coresets.

#ifndef KMEANSLL_MATRIX_DATASET_H_
#define KMEANSLL_MATRIX_DATASET_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"

namespace kmeansll {

/// Immutable-by-convention collection of n points in R^d with optional
/// weights (default 1.0) and optional integer labels (for synthetic data
/// with known ground truth). A Dataset is itself a DatasetSource, so every
/// streaming driver takes it directly; `final` keeps the calls on a
/// concrete Dataset devirtualized.
class Dataset final : public DatasetSource {
 public:
  Dataset() = default;
  explicit Dataset(Matrix points) : points_(std::move(points)) {}

  /// Builds a weighted dataset; weight count must match the row count and
  /// weights must be finite and non-negative.
  static Result<Dataset> WithWeights(Matrix points,
                                     std::vector<double> weights);

  /// Attaches ground-truth labels (size must match row count).
  static Result<Dataset> WithLabels(Matrix points,
                                    std::vector<int32_t> labels);

  /// Attaches both weights and labels (each validated as above).
  static Result<Dataset> WithWeightsAndLabels(Matrix points,
                                              std::vector<double> weights,
                                              std::vector<int32_t> labels);

  int64_t n() const override { return points_.rows(); }
  int64_t dim() const override { return points_.cols(); }

  const Matrix& points() const { return points_; }
  const double* Point(int64_t i) const { return points_.Row(i); }

  bool has_weights() const override { return !weights_.empty(); }
  /// Weight of point i (1.0 when unweighted).
  double Weight(int64_t i) const {
    return weights_.empty() ? 1.0 : weights_[static_cast<size_t>(i)];
  }
  const std::vector<double>& weights() const { return weights_; }
  /// Sum of all weights (n for unweighted datasets).
  double TotalWeight() const override;

  bool has_labels() const override { return !labels_.empty(); }
  const std::vector<int32_t>& labels() const { return labels_; }

  /// Non-owning view of all rows (valid until the dataset is mutated or
  /// destroyed).
  DatasetView View() const {
    return DatasetView(points_.view(), /*first_row=*/0,
                       weights_.empty() ? nullptr : weights_.data(),
                       labels_.empty() ? nullptr : labels_.data());
  }

  /// The whole range is always resident: rows [begin, end) in one view.
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    KMEANSLL_CHECK(begin >= 0 && begin < end && end <= n());
    return PinnedBlock(View().Slice(begin, end));
  }

  /// InMemorySource over this dataset (borrowing; the dataset must
  /// outlive the source and every pin taken from it).
  InMemorySource AsSource() const {
    return InMemorySource(points_.view(),
                          weights_.empty() ? nullptr : weights_.data(),
                          labels_.empty() ? nullptr : labels_.data());
  }

  /// Copies the selected rows (weights/labels follow) into a new Dataset.
  Dataset Gather(const std::vector<int64_t>& indices) const;

  /// Splits into `parts` contiguous chunks of near-equal size (the last
  /// chunks are one smaller when n % parts != 0); returns [begin,end) pairs.
  std::vector<std::pair<int64_t, int64_t>> SplitRanges(int64_t parts) const;

  /// Verifies every coordinate is finite (weights are validated at
  /// construction). Distance arithmetic on NaN/Inf corrupts every
  /// downstream result silently, so entry points check this up front.
  Status ValidateFinite() const;

 private:
  Matrix points_;
  std::vector<double> weights_;  // empty => all 1.0
  std::vector<int32_t> labels_;  // empty => unknown
};

}  // namespace kmeansll

#endif  // KMEANSLL_MATRIX_DATASET_H_
