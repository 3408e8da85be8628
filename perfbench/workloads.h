// The four benchmark workloads. Each fills `report` with every
// end-to-end metric (untraced run) or its per-layer metrics (traced run),
// counts its operations, and records its correctness gates.

#ifndef KMEANSLL_PERFBENCH_WORKLOADS_H_
#define KMEANSLL_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "matrix/matrix.h"
#include "serving/center_index.h"
#include "serving/server_registry.h"

namespace perfbench {

// --- Serving pieces every workload uses: each one serves its model
// through a ServerRegistry -------------------------------------------------

/// One registered tenant: its name, the snapshot registered under it,
/// and its query pool.
struct ServedTenant {
  std::string name;
  std::shared_ptr<const kmeansll::serving::CenterIndex> snapshot;
  const kmeansll::Matrix* queries = nullptr;
};

/// Outcome of one load phase against a registry.
struct ServeRun {
  LoadResult load;
  int64_t checked = 0;     ///< answers compared against AssignOne
  int64_t mismatches = 0;  ///< answers that differed bitwise
  /// Σ d² of the answered Assigns, and Σ of each one's squared distance
  /// to its tenant's query-pool mean: their ratio is the served model's
  /// cost relative to a one-center model.
  double d2_sum = 0;
  double mean_d2_sum = 0;
};

/// Index options every served tenant uses: the two-level pruned index
/// (k below min_prune_k serves flat and counts as a fallback).
kmeansll::serving::CenterIndexOptions ServingIndexOptions();

/// Registry options every tenant uses: adaptive batching, no admission
/// limits (a refused request would count as a failure).
kmeansll::serving::TenantOptions ServingTenantOptions();

/// Fills the serving/* and loadgen.* per-layer metrics of a traced run
/// from the registry's counters, a direct AssignOne timing, and `run`.
void ReportServingLayers(const kmeansll::serving::ServerRegistry& registry,
                         const std::vector<ServedTenant>& tenants,
                         const ServeRun& run, double build_ms,
                         Report* report);

/// KMeans::Fit in memory at k = 512, where Step 8 recluster dominates.
void RunTrainWideK(const RunOptions& options, Report* report);
/// KMeans::Fit over a sharded dataset larger than the resident window.
void RunTrainShardedTall(const RunOptions& options, Report* report);
/// Read-only multi-tenant serving through ServerRegistry, open loop.
void RunServeZipf(const RunOptions& options, Report* report);
/// Lockstep append/seal/refine on a LiveDataset beside open-loop reads.
void RunIngestLive(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // KMEANSLL_PERFBENCH_WORKLOADS_H_
