#include "clustering/cost.h"

#include <limits>
#include <vector>

#include "common/math_util.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

/// Rows within a chunk are visited block by block in ascending order, so
/// the accumulation chain — and hence the result — is bitwise independent
/// of how the source splits rows into blocks.
double ReduceNearestWithSearch(const DatasetSource& data,
                               const NearestCenterSearch& search,
                               ThreadPool* pool, const double* point_norms,
                               int32_t* out_cluster) {
  KMEANSLL_CHECK_GT(search.num_centers(), 0);
  KMEANSLL_CHECK(search.frozen());
  // Shard-aware execution over an out-of-core source: workers take
  // chunks from disjoint shard spans and hint each span's next shard
  // ahead of its cursor. Timing only — the fold below stays in chunk
  // order, so the result is bitwise the unscheduled one.
  const ScanSchedule schedule = MakeScanSchedule(data, data.n(), pool);
  auto map = [&](IndexRange r) {
    KahanSum partial;
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      const int64_t first = v.first_row();
      std::vector<double> d2(static_cast<size_t>(v.rows()));
      search.FindRange(
          v.points(), IndexRange{0, v.rows()},
          point_norms == nullptr ? nullptr : point_norms + first,
          out_cluster == nullptr ? nullptr : out_cluster + first,
          d2.data());
      for (int64_t i = 0; i < v.rows(); ++i) {
        partial.Add(v.Weight(i) * d2[static_cast<size_t>(i)]);
      }
    });
    return partial;
  };
  auto combine = [](KahanSum a, KahanSum b) {
    a.Merge(b);
    return a;
  };
  KahanSum total = ParallelReduce<KahanSum>(pool, data.n(), KahanSum(), map,
                                            combine, &schedule);
  return total.Total();
}

namespace {

/// ComputeCost / ComputeAssignment build and freeze a search of their own
/// — one packing per call, shared by every chunk below.
double NearestReduce(const DatasetSource& data, const Matrix& centers,
                     ThreadPool* pool, const double* point_norms,
                     int32_t* out_cluster) {
  KMEANSLL_CHECK_GT(centers.rows(), 0);
  KMEANSLL_CHECK_EQ(centers.cols(), data.dim());
  NearestCenterSearch search(centers);
  search.Freeze();
  return ReduceNearestWithSearch(data, search, pool, point_norms,
                                 out_cluster);
}

}  // namespace

double ComputeCost(const DatasetSource& data, const Matrix& centers,
                   ThreadPool* pool, const double* point_norms) {
  return NearestReduce(data, centers, pool, point_norms,
                       /*out_cluster=*/nullptr);
}

Assignment ComputeAssignment(const DatasetSource& data,
                             const Matrix& centers, ThreadPool* pool,
                             const double* point_norms) {
  Assignment out;
  out.cluster.assign(static_cast<size_t>(data.n()), -1);
  out.cost = NearestReduce(data, centers, pool, point_norms,
                           out.cluster.data());
  return out;
}

}  // namespace kmeansll
