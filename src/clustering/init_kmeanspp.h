// k-means++ initialization (Arthur & Vassilvitskii 2007) — Algorithm 1 of
// the paper, generalized to weighted datasets.
//
// The weighted form is what Step 8 of k-means|| requires: "recluster the
// weighted points in C into k clusters" using "any provable approximation
// algorithm (such as k-means++)". With unit weights it is exactly
// Algorithm 1.

#ifndef KMEANSLL_CLUSTERING_INIT_KMEANSPP_H_
#define KMEANSLL_CLUSTERING_INIT_KMEANSPP_H_

#include <cstdint>

#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {

/// Options for k-means++.
struct KMeansPPOptions {
  /// Number of candidate draws per step; the best (largest potential
  /// reduction) candidate is kept. 1 reproduces Algorithm 1 exactly;
  /// greedy variants (scikit-learn uses 2 + log k) are an extension
  /// ablated in bench/bm_init.
  int64_t candidates_per_step = 1;
};

/// Runs k-means++ on `data` (weights respected: the first center is drawn
/// w-proportionally and subsequent draws use w·d² probabilities). Fails if
/// k <= 0, k > n, or the total weight is zero. `pool` (may be null)
/// parallelizes the per-step distance scans; results are bitwise
/// identical at any thread count. The D² sampling passes stream pinned
/// row blocks, so the seeder runs unchanged — and bitwise identically —
/// over disk-resident shard stores.
Result<InitResult> KMeansPPInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng,
                                const KMeansPPOptions& options = {},
                                ThreadPool* pool = nullptr);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_INIT_KMEANSPP_H_
