#include "clustering/streaming.h"

#include <cmath>
#include <utility>

#include "clustering/init_kmeansll.h"
#include "clustering/init_partition.h"
#include "distance/nearest.h"

namespace kmeansll {

StreamingKMeans::StreamingKMeans(const StreamingOptions& options)
    : options_(options),
      block_points_(options.dim),
      coreset_points_(options.dim),
      rng_(rng::MakeRootRng(options.seed)) {
  resolved_batch_ =
      options.batch_size > 0
          ? options.batch_size
          : static_cast<int64_t>(std::ceil(3.0 * std::log(std::max<double>(
                2.0, static_cast<double>(options.k)))));
  resolved_iterations_ =
      options.iterations > 0 ? options.iterations : options.k;
}

Result<StreamingKMeans> StreamingKMeans::Create(
    const StreamingOptions& options) {
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");
  if (options.dim <= 0) {
    return Status::InvalidArgument("dim must be positive");
  }
  if (options.block_size < options.k) {
    return Status::InvalidArgument(
        "block_size must be at least k (got " +
        std::to_string(options.block_size) + " < " +
        std::to_string(options.k) + ")");
  }
  return StreamingKMeans(options);
}

Status StreamingKMeans::Add(std::span<const double> point, double weight) {
  if (finalized_) {
    return Status::FailedPrecondition("stream already finalized");
  }
  if (static_cast<int64_t>(point.size()) != options_.dim) {
    return Status::InvalidArgument(
        "point has " + std::to_string(point.size()) +
        " coordinates, expected " + std::to_string(options_.dim));
  }
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument("weight must be positive and finite");
  }
  block_points_.AppendRow(point.data());
  block_weights_.push_back(weight);
  ++points_seen_;
  if (block_points_.rows() >= options_.block_size) CompressBlock();
  return Status::OK();
}

Status StreamingKMeans::AddBlock(const DatasetView& block) {
  if (block.dim() != options_.dim) {
    return Status::InvalidArgument(
        "block has dimension " + std::to_string(block.dim()) +
        ", expected " + std::to_string(options_.dim));
  }
  for (int64_t i = 0; i < block.rows(); ++i) {
    KMEANSLL_RETURN_NOT_OK(
        Add(std::span<const double>(block.Point(i),
                                    static_cast<size_t>(block.dim())),
            block.Weight(i)));
  }
  return Status::OK();
}

Status StreamingKMeans::AddSource(const DatasetSource& source) {
  if (finalized_) {
    return Status::FailedPrecondition("stream already finalized");
  }
  // Fail a dimension mismatch before touching any shard: ForEachBlock
  // cannot break early, and pinning every remaining shard only to skip
  // it would be wasted I/O.
  if (source.dim() != options_.dim) {
    return Status::InvalidArgument(
        "source has dimension " + std::to_string(source.dim()) +
        ", expected " + std::to_string(options_.dim));
  }
  Status status = Status::OK();
  ForEachBlock(source, 0, source.n(), [&](const DatasetView& v) {
    if (status.ok()) status = AddBlock(v);
  });
  // A degraded source substituted fallback blocks mid-stream; surface
  // that as the scan's outcome rather than silently absorbing zeros.
  KMEANSLL_RETURN_NOT_OK(status);
  return source.status();
}

void StreamingKMeans::CompressBlock() {
  if (block_points_.rows() == 0) return;
  auto block = Dataset::WithWeights(std::move(block_points_),
                                    std::move(block_weights_));
  KMEANSLL_CHECK(block.ok());
  block_points_ = Matrix(options_.dim);
  block_weights_.clear();

  // Tiny blocks (the tail of the stream) are kept verbatim: k-means#
  // would select nearly all of them anyway.
  if (block->n() <= resolved_batch_) {
    for (int64_t i = 0; i < block->n(); ++i) {
      coreset_points_.AppendRow(block->Point(i));
      coreset_weights_.push_back(block->Weight(i));
    }
    ++blocks_compressed_;
    return;
  }

  rng::Rng block_rng = rng_.Fork(rng::StreamPurpose::kPartitionGroup,
                                 static_cast<uint64_t>(blocks_compressed_));
  std::vector<int64_t> selected =
      internal::KMeansSharp(*block, 0, block->n(), resolved_batch_,
                            resolved_iterations_, block_rng);
  KMEANSLL_CHECK(!selected.empty());

  Matrix picks = block->points().GatherRows(selected);
  // FindAll packs the center panels once for the whole block scan (no
  // Freeze needed for a single batched call).
  NearestCenterSearch search(picks);
  std::vector<int32_t> nearest;
  std::vector<double> nearest_d2;
  search.FindAll(block->points(), &nearest, &nearest_d2);
  std::vector<double> weights(selected.size(), 0.0);
  for (int64_t i = 0; i < block->n(); ++i) {
    weights[static_cast<size_t>(nearest[static_cast<size_t>(i)])] +=
        block->Weight(i);
  }
  for (size_t s = 0; s < selected.size(); ++s) {
    coreset_points_.AppendRow(picks.Row(static_cast<int64_t>(s)));
    coreset_weights_.push_back(weights[s]);
  }
  ++blocks_compressed_;
}

Result<Matrix> StreamingKMeans::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("stream already finalized");
  }
  if (points_seen_ < options_.k) {
    return Status::InvalidArgument(
        "saw " + std::to_string(points_seen_) + " points, need at least " +
        std::to_string(options_.k));
  }
  CompressBlock();
  finalized_ = true;

  if (coreset_points_.rows() <= options_.k) {
    return std::move(coreset_points_);
  }
  KMeansLLOptions recluster_options;
  InitTelemetry telemetry;
  return internal::ReclusterCandidates(
      coreset_points_, coreset_weights_, options_.k,
      rng_.Fork(rng::StreamPurpose::kRecluster), recluster_options,
      /*pool=*/nullptr, &telemetry);
}

}  // namespace kmeansll
