#include "clustering/lloyd_hamerly.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "clustering/cost.h"
#include "clustering/lloyd_internal.h"
#include "common/trace.h"
#include "common/math_util.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

Result<LloydResult> RunLloydHamerly(const DatasetSource& data,
                                    const Matrix& initial_centers,
                                    const LloydOptions& options,
                                    HamerlyStats* stats,
                                    const double* point_norms) {
  if (initial_centers.rows() == 0) {
    return Status::InvalidArgument("initial center set is empty");
  }
  if (initial_centers.cols() != data.dim()) {
    return Status::InvalidArgument(
        "center dimension " + std::to_string(initial_centers.cols()) +
        " does not match data dimension " + std::to_string(data.dim()));
  }
  if (data.n() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }

  const int64_t n = data.n();
  const int64_t k = initial_centers.rows();
  const int64_t d = data.dim();

  // Every distance below — bound probes, full scans, center separations,
  // cost tracking — runs on the batch engine's accumulation chains with
  // the standard kAuto kernel choice, so the values are bitwise the ones
  // RunLloyd's assignment scan produces and the two variants stay
  // structurally (not just statistically) equivalent.
  std::vector<double> norm_storage;
  bool expanded = false;
  const double* pn = internal::EnsurePointNorms(
      data, point_norms, &norm_storage, /*pool=*/nullptr, &expanded);

  LloydResult result;
  result.centers = initial_centers;

  // Per-point bounds. Distances are kept *unsquared* here because the
  // triangle-inequality updates are linear in distance, not in squared
  // distance.
  std::vector<int32_t> assignment(static_cast<size_t>(n), -1);
  std::vector<int32_t> previous_assignment;
  std::vector<double> upper(static_cast<size_t>(n),
                            std::numeric_limits<double>::infinity());
  std::vector<double> lower(static_cast<size_t>(n), 0.0);

  // Half distance to the closest other center, per center.
  std::vector<double> half_nearest(static_cast<size_t>(k));
  std::vector<double> center_d2(static_cast<size_t>(k * k));

  // Scratch for the batched full scans of each iteration.
  std::vector<int64_t> scan_list;
  std::vector<double> scan_norms;
  std::vector<int32_t> scan_idx;
  std::vector<double> scan_d1;
  std::vector<double> scan_d2;

  double previous_cost = std::numeric_limits<double>::quiet_NaN();
  bool have_previous_cost = false;  // first comparison at iteration 1

  // Checkpoint/resume (shared protocol, see lloyd_internal.h). Bounds
  // are *not* persisted: the resumed iteration starts with assignment
  // -1 / upper ∞ / lower 0, so every point takes the batched full-scan
  // path — exactness-preserving, hence the assignments (and therefore
  // the centers) stay bitwise the uninterrupted run's. Only the previous
  // assignment and cost need reconstructing, from the stored entering
  // centers.
  const internal::LloydCheckpointPlan plan =
      internal::MakeLloydCheckpointPlan(data, initial_centers, options);
  int64_t start_iter = 0;
  {
    Matrix resume_prev;
    LloydResult resumed;
    if (internal::TryResumeLloyd(plan, &resumed, &resume_prev)) {
      result = std::move(resumed);
      start_iter = result.iterations;
      Assignment prev =
          ComputeAssignment(data, resume_prev, /*pool=*/nullptr, pn);
      previous_assignment = std::move(prev.cluster);
      if (options.track_history || options.relative_tolerance > 0.0) {
        previous_cost = prev.cost;
        have_previous_cost = true;
      }
    }
  }

  for (int64_t iter = start_iter; iter < options.max_iterations; ++iter) {
    KMEANSLL_TRACE_SPAN("lloyd_hamerly.iteration");
    const bool will_checkpoint =
        internal::ShouldCheckpoint(plan, iter, options.max_iterations);
    Matrix entering_centers;
    if (will_checkpoint) entering_centers = result.centers;
    // Frozen panel snapshot of this iteration's centers: the
    // center-center scan, the batched full scans, and (via the norms
    // below) the scalar bound probes all read one packing.
    NearestCenterSearch search(result.centers);
    search.Freeze();
    // Scalar probes share the search's cached norms (same
    // RowSquaredNorms chain) rather than recomputing them.
    const double* cn =
        expanded ? search.center_norms().data() : nullptr;

    // --- Inter-center separations (one blocked k × k scan) -----------
    search.DistancesRange(result.centers, IndexRange{0, k}, cn,
                          center_d2.data());
    for (int64_t c = 0; c < k; ++c) {
      double best = std::numeric_limits<double>::infinity();
      const double* row = center_d2.data() + c * k;
      for (int64_t o = 0; o < k; ++o) {
        if (o == c) continue;
        best = std::min(best, row[o]);
      }
      half_nearest[static_cast<size_t>(c)] =
          k > 1 ? 0.5 * std::sqrt(best) : 0.0;
    }

    // --- Bound certification pass ------------------------------------
    // Per point, independent of every other point: certify from the
    // bounds, else tighten the upper bound with one exact probe, else
    // queue the point for the batched full scan below.
    scan_list.clear();
    ForEachBlock(data, 0, n, [&](const DatasetView& v) {
      for (int64_t b = 0; b < v.rows(); ++b) {
        const int64_t i = v.first_row() + b;
        auto idx = static_cast<size_t>(i);
        const int64_t a = assignment[idx];
        if (a >= 0) {
          double threshold =
              std::max(half_nearest[static_cast<size_t>(a)], lower[idx]);
          if (upper[idx] <= threshold) {
            if (stats != nullptr) ++stats->bound_skips;
            continue;  // bound certifies the assignment
          }
          // Tighten the upper bound with one exact distance.
          upper[idx] = std::sqrt(internal::PairDistance2(
              v.Point(b), expanded ? pn[i] : 0.0, result.centers.Row(a),
              expanded ? cn[a] : 0.0, d, expanded));
          if (upper[idx] <= threshold) {
            if (stats != nullptr) ++stats->inner_updates;
            continue;
          }
        }
        scan_list.push_back(i);
      }
    });

    // --- Batched full scans ------------------------------------------
    if (!scan_list.empty()) {
      const auto m = static_cast<int64_t>(scan_list.size());
      scan_idx.resize(static_cast<size_t>(m));
      scan_d1.resize(static_cast<size_t>(m));
      scan_d2.resize(static_cast<size_t>(m));
      if (m == n) {
        // Everyone rescans (iteration 0, or the round after a repair
        // reset): scan the blocks in place — no gather copy.
        search.FindTwoNearestRange(data, IndexRange{0, n}, pn,
                                   scan_idx.data(), scan_d1.data(),
                                   scan_d2.data());
      } else {
        Matrix gathered = GatherPoints(data, scan_list);
        const double* gathered_norms = nullptr;
        if (expanded) {
          scan_norms.resize(static_cast<size_t>(m));
          for (int64_t b = 0; b < m; ++b) {
            scan_norms[static_cast<size_t>(b)] =
                pn[scan_list[static_cast<size_t>(b)]];
          }
          gathered_norms = scan_norms.data();
        }
        search.FindTwoNearestRange(gathered, IndexRange{0, m},
                                   gathered_norms, scan_idx.data(),
                                   scan_d1.data(), scan_d2.data());
      }
      if (stats != nullptr) stats->full_scans += m;
      for (int64_t b = 0; b < m; ++b) {
        auto idx = static_cast<size_t>(scan_list[static_cast<size_t>(b)]);
        assignment[idx] = scan_idx[static_cast<size_t>(b)];
        upper[idx] = std::sqrt(scan_d1[static_cast<size_t>(b)]);
        lower[idx] = std::sqrt(scan_d2[static_cast<size_t>(b)]);
      }
    }

    // --- Centroid update (bitwise identical to LloydStep) ------------
    internal::CentroidSums totals =
        internal::AccumulateCentroids(data, assignment, k, nullptr);
    Matrix new_centers;
    std::vector<int64_t> empty =
        internal::CentroidsFromSums(totals, k, d, &new_centers);
    bool repaired = !empty.empty();
    if (repaired) {
      result.empty_cluster_repairs += static_cast<int64_t>(empty.size());
      internal::RepairEmptyClusters(data, result.centers, empty,
                                    &new_centers, /*pool=*/nullptr, pn);
    }
    ++result.iterations;

    // --- Bound maintenance from center movement ----------------------
    std::vector<double> movement(static_cast<size_t>(k));
    double max_movement = 0.0;
    for (int64_t c = 0; c < k; ++c) {
      // Plain chain on purpose: the expanded form can cancel to zero for
      // a barely-moved center and understate movement, which is the
      // unsound direction for the bound updates below.
      movement[static_cast<size_t>(c)] = std::sqrt(
          PairSquaredL2(result.centers.Row(c), new_centers.Row(c), d));
      max_movement =
          std::max(max_movement, movement[static_cast<size_t>(c)]);
    }
    if (repaired) {
      // A repaired center teleported; the triangle-inequality updates no
      // longer bound anything. Reset so every point rescans next round.
      std::fill(upper.begin(), upper.end(),
                std::numeric_limits<double>::infinity());
      std::fill(lower.begin(), lower.end(), 0.0);
    } else {
      for (int64_t i = 0; i < n; ++i) {
        auto idx = static_cast<size_t>(i);
        upper[idx] += movement[static_cast<size_t>(assignment[idx])];
        lower[idx] = std::max(0.0, lower[idx] - max_movement);
      }
    }

    bool assignments_unchanged =
        iter > 0 && assignment == previous_assignment;

    if (options.track_history || options.relative_tolerance > 0.0) {
      // The standard iteration records the cost of the assignment that
      // produced the centroids (w.r.t. the replaced centers). The shared
      // helper replicates ComputeAssignment's chunked Kahan reduction, so
      // this history is bitwise the one RunLloyd records.
      double current_cost = internal::AssignmentCost(
          data, result.centers, assignment, pn, cn, expanded);
      if (options.track_history) {
        result.cost_history.push_back(current_cost);
      }
      if (options.relative_tolerance > 0.0 && have_previous_cost &&
          previous_cost > 0.0) {
        double improvement = (previous_cost - current_cost) / previous_cost;
        if (improvement >= 0.0 &&
            improvement < options.relative_tolerance) {
          result.centers = std::move(new_centers);
          previous_assignment = assignment;
          result.converged = true;
          break;
        }
      }
      previous_cost = current_cost;
      have_previous_cost = true;
    }

    result.centers = std::move(new_centers);
    previous_assignment = assignment;

    if (assignments_unchanged) {
      result.converged = true;
      break;
    }

    if (will_checkpoint) {
      KMEANSLL_RETURN_NOT_OK(
          internal::CheckpointLloydIteration(
              plan, entering_centers, result,
              &result.checkpoint_write_retries));
    }
  }

  result.assignment = ComputeAssignment(data, result.centers, nullptr, pn);
  KMEANSLL_RETURN_NOT_OK(data.status());
  internal::RemoveLloydCheckpoint(plan);
  return result;
}

}  // namespace kmeansll
