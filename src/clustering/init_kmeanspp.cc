#include "clustering/init_kmeanspp.h"

#include <cstring>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/timer.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"
#include "rng/discrete.h"

namespace kmeansll {

namespace {

/// Draws one index with probability proportional to `weights`; when every
/// weight is zero (all points coincide with chosen centers) falls back to
/// a uniform draw, which adds a duplicate center — the only consistent
/// choice left.
int64_t SampleProportional(const std::vector<double>& weights,
                           rng::Rng& rng) {
  auto sampler = rng::PrefixSumSampler::Build(weights);
  if (sampler.ok()) return sampler->Sample(rng);
  return static_cast<int64_t>(rng.NextBounded(weights.size()));
}

/// Potential after hypothetically adding `candidate` (a 1 × d matrix) to
/// the center set whose per-point distances are in `tracker`. One blocked
/// scan; per-chunk Kahan partials combined in chunk order keep the result
/// bitwise identical at any thread count.
double PotentialWithCandidate(const DatasetSource& data,
                              const MinDistanceTracker& tracker,
                              const Matrix& candidate, ThreadPool* pool) {
  auto map = [&](IndexRange r) {
    const auto len = static_cast<size_t>(r.size());
    std::vector<double> d2(len);
    std::memcpy(d2.data(), tracker.distances2().data() + r.begin,
                len * sizeof(double));
    KahanSum partial;
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      const int64_t off = v.first_row() - r.begin;
      // Plain kernel: against a single center the expanded form saves
      // nothing and would recompute every point norm per candidate. The
      // argmin index is irrelevant here (null).
      BatchNearestMerge(v.points(), IndexRange{0, v.rows()},
                        /*point_norms=*/nullptr, candidate,
                        /*first_center=*/0, /*center_norms=*/nullptr,
                        BatchKernel::kPlain, d2.data() + off,
                        /*best_index=*/nullptr);
      for (int64_t i = 0; i < v.rows(); ++i) {
        partial.Add(v.Weight(i) * d2[static_cast<size_t>(off + i)]);
      }
    });
    return partial;
  };
  auto combine = [](KahanSum a, KahanSum b) {
    a.Merge(b);
    return a;
  };
  const ScanSchedule schedule = MakeScanSchedule(data, data.n(), pool);
  return ParallelReduce<KahanSum>(pool, data.n(), KahanSum(), map, combine,
                                  &schedule)
      .Total();
}

}  // namespace

Result<InitResult> KMeansPPInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng,
                                const KMeansPPOptions& options,
                                ThreadPool* pool) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  if (options.candidates_per_step < 1) {
    return Status::InvalidArgument("candidates_per_step must be >= 1");
  }
  if (!(data.TotalWeight() > 0.0)) {
    return Status::InvalidArgument("total weight must be positive");
  }

  WallTimer timer;
  rng::Rng pick_rng = rng.Fork(rng::StreamPurpose::kInitialCenter);
  rng::Rng step_rng = rng.Fork(rng::StreamPurpose::kRoundSampling);

  InitResult result;
  result.centers = Matrix(data.dim());
  result.centers.ReserveRows(k);

  // Appends global row `row` of the source to the growing center set.
  auto append_point = [&](int64_t row) {
    PinnedBlock pin = data.Pin(row, row + 1);
    result.centers.AppendRow(pin.view().Point(0));
  };

  // Step 1: first center, weight-proportional (uniform when unweighted).
  {
    std::vector<double> w(static_cast<size_t>(data.n()));
    ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
      for (int64_t i = 0; i < v.rows(); ++i) {
        w[static_cast<size_t>(v.first_row() + i)] = v.Weight(i);
      }
    });
    int64_t first = SampleProportional(w, pick_rng);
    append_point(first);
  }

  MinDistanceTracker tracker(data, pool);
  tracker.AddCenters(result.centers, 0);
  result.telemetry.data_passes = 1;

  // Steps 2..k: D²-weighted draws.
  Matrix candidate(1, data.dim());
  for (int64_t t = 1; t < k; ++t) {
    std::vector<double> weights = tracker.WeightedContributions();
    int64_t chosen;
    if (options.candidates_per_step == 1) {
      chosen = SampleProportional(weights, step_rng);
    } else {
      chosen = -1;
      double best_potential = std::numeric_limits<double>::infinity();
      for (int64_t c = 0; c < options.candidates_per_step; ++c) {
        int64_t drawn = SampleProportional(weights, step_rng);
        {
          PinnedBlock pin = data.Pin(drawn, drawn + 1);
          std::memcpy(candidate.Row(0), pin.view().Point(0),
                      static_cast<size_t>(data.dim()) * sizeof(double));
        }
        double potential =
            PotentialWithCandidate(data, tracker, candidate, pool);
        if (potential < best_potential) {
          best_potential = potential;
          chosen = drawn;
        }
      }
      result.telemetry.data_passes += options.candidates_per_step;
    }
    append_point(chosen);
    tracker.AddCenters(result.centers, t);
    result.telemetry.data_passes += 1;
    result.telemetry.round_potentials.push_back(tracker.Potential());
  }

  result.telemetry.rounds = k;
  result.telemetry.intermediate_centers = 0;
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace kmeansll
