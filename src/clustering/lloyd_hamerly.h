// Hamerly's accelerated Lloyd iteration (Hamerly, SDM 2010).
//
// Standard Lloyd spends O(n·k·d) per iteration re-scanning all centers
// for every point. Hamerly's algorithm maintains, per point, an upper
// bound on the distance to its assigned center and a single lower bound
// on the distance to the second-closest center; both are updated from
// center movement via the triangle inequality, and the full k-scan runs
// only when the bounds cannot certify the assignment. On stable
// clusterings (the common case after the first few iterations —
// especially from a k-means|| seed) most points skip the scan entirely.
//
// Produces the same sequence of assignments and centers as RunLloyd
// (standard Lloyd): every exact distance is evaluated with the batch
// engine's accumulation chains (distance/batch.h), so the two
// iterations compare identical values and the tests assert bitwise
// equivalence. The caveat is conditioning: the bound certifications
// assume the computed distances respect the triangle inequality, which
// the expanded kernel (d >= kExpandedKernelMinDim) only guarantees up
// to an absolute error ~eps·(‖x‖² + ‖c‖²). On well-scaled data that
// error is far below any certification margin; on data with a large
// common coordinate offset (‖x‖² enormous relative to cluster
// separations) a bound may certify a stale assignment that a full scan
// would flip — center such data first (see README "Choosing a Lloyd
// variant"). This is the "modification to the basic k-means algorithm"
// extension the paper's conclusion anticipates, and bench/bm_lloyd
// ablates it against the standard iteration. It runs on one thread:
// with a pool, standard Lloyd is faster at every measured shape (same
// README section), so Hamerly is the single-threaded choice.

#ifndef KMEANSLL_CLUSTERING_LLOYD_HAMERLY_H_
#define KMEANSLL_CLUSTERING_LLOYD_HAMERLY_H_

#include "clustering/lloyd.h"
#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"

namespace kmeansll {

/// Statistics about how much work the bounds saved.
struct HamerlyStats {
  int64_t full_scans = 0;     ///< points that needed the k-center scan
  int64_t bound_skips = 0;    ///< points certified by their bounds
  int64_t inner_updates = 0;  ///< tightenings of the upper bound only
};

/// Runs Lloyd's iteration with Hamerly bounds. Same contract and same
/// results as RunLloyd; `stats` (optional) receives pruning counters and
/// `point_norms` (optional, RowSquaredNorms of data.points()) skips the
/// internal norm pass exactly as in RunLloyd.
/// The points stream as pinned row blocks (the per-point bound state
/// stays in memory — O(n) — while the points themselves may live in
/// memory-mapped shards), bitwise identical to an in-memory Dataset
/// holding the same rows.
Result<LloydResult> RunLloydHamerly(const DatasetSource& data,
                                    const Matrix& initial_centers,
                                    const LloydOptions& options,
                                    HamerlyStats* stats = nullptr,
                                    const double* point_norms = nullptr);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_LLOYD_HAMERLY_H_
