#include "serving/center_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "common/metrics.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "rng/rng.h"

namespace kmeansll::serving {

namespace {

// Process-wide prune-effectiveness totals, mirrored from the per-index
// atomic cells (PruneStats stays the per-snapshot source of truth).
struct PruneMetrics {
  Counter* queries;
  Counter* groups_scanned;
  Counter* groups_pruned;
  Counter* exact_fallbacks;
};
const PruneMetrics& GetPruneMetrics() {
  static const PruneMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new PruneMetrics{
        r.GetCounter("kmll_prune_queries_total",
                     "Queries answered via the two-level pruned path."),
        r.GetCounter("kmll_prune_groups_scanned_total",
                     "Coarse groups that reached the distance engine."),
        r.GetCounter("kmll_prune_groups_pruned_total",
                     "Coarse groups skipped by bounds or probe caps."),
        r.GetCounter("kmll_prune_exact_fallbacks_total",
                     "Queries served by the flat scan instead of the "
                     "pruned path."),
    };
  }();
  return *m;
}

// Query rows per coarse-distance tile: bounds the per-call scratch
// (tile × g doubles) while amortizing the coarse scan's panel traffic.
constexpr int64_t kQueryTile = 64;

// Relative slack subtracted from every group lower bound before the
// strict skip comparison, scaled by (2 + max center length + query
// length) — an upper bound on every magnitude entering the triangle
// inequality. The engine's worst per-distance rounding is the expanded
// kernel's cancellation, ~d·eps ≈ 3e-14 relative to those magnitudes
// squared (≈ 2e-7 after the sqrt); 1e-6 dominates it with an order of
// magnitude to spare while costing effectively no prune power (real
// inter-group margins are O(scale), not O(1e-6 · scale)). With the
// slack, a skipped group's members are provably STRICTLY farther than
// the running best in exact arithmetic and in the engine's floats, so
// skipping perturbs neither values nor tie resolution.
constexpr double kPruneSlackRel = 1e-6;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

CenterIndex::CenterIndex(Matrix centers, data::ModelMetadata metadata,
                         CenterIndexOptions options,
                         std::vector<double> validated_norms,
                         uint64_t version, ThreadPool* pool)
    : centers_(std::move(centers)),
      metadata_(std::move(metadata)),
      options_(options),
      version_(version),
      search_(centers_) {
  KMEANSLL_CHECK_GT(centers_.rows(), 0);
  KMEANSLL_CHECK_GT(centers_.cols(), 0);
  if (!validated_norms.empty()) {
    // FromModel path: the artifact's norms passed LoadModel's bitwise
    // check against the stored centers, so the Freeze-time
    // recomputation is pure waste — adopt them (re-asserted bitwise
    // inside FreezeWithNorms).
    search_.FreezeWithNorms(std::move(validated_norms));
  } else {
    search_.Freeze();
  }
  if (options_.enable_pruning && centers_.rows() >= options_.min_prune_k) {
    BuildPruned(pool);
  }
}

std::shared_ptr<const CenterIndex> CenterIndex::Build(Matrix centers,
                                                      uint64_t version) {
  return Build(std::move(centers), CenterIndexOptions{}, version,
               /*pool=*/nullptr);
}

std::shared_ptr<const CenterIndex> CenterIndex::Build(
    Matrix centers, const CenterIndexOptions& options, uint64_t version,
    ThreadPool* pool) {
  // Plain new rather than make_shared: the constructor is private.
  return std::shared_ptr<const CenterIndex>(
      new CenterIndex(std::move(centers), data::ModelMetadata{}, options,
                      /*validated_norms=*/{}, version, pool));
}

Result<std::shared_ptr<const CenterIndex>> CenterIndex::FromModel(
    const data::ModelArtifact& artifact, uint64_t version) {
  return FromModel(artifact, CenterIndexOptions{}, version,
                   /*pool=*/nullptr);
}

Result<std::shared_ptr<const CenterIndex>> CenterIndex::FromModel(
    const data::ModelArtifact& artifact, const CenterIndexOptions& options,
    uint64_t version, ThreadPool* pool) {
  if (artifact.centers.rows() <= 0 || artifact.centers.cols() <= 0) {
    return Status::InvalidArgument("model artifact has no centers");
  }
  return std::shared_ptr<const CenterIndex>(
      new CenterIndex(artifact.centers, artifact.metadata, options,
                      artifact.center_norms, version, pool));
}

void CenterIndex::BuildPruned(ThreadPool* pool) {
  const int64_t k = centers_.rows();
  const int64_t d = centers_.cols();
  int64_t g = options_.num_groups > 0
                  ? options_.num_groups
                  : static_cast<int64_t>(
                        std::ceil(std::sqrt(static_cast<double>(k))));
  g = std::clamp<int64_t>(g, 1, k);

  // Coarse k-means over the centers themselves, with the repo's own
  // seeding. Reduced rounds and oversampling keep the build cheap:
  // grouping quality only moves scan counts, never exact-mode results,
  // so a slightly worse coarse clustering costs QPS, not correctness.
  Dataset center_data{Matrix(centers_)};
  KMeansLLOptions seed_opts;
  seed_opts.oversampling = static_cast<double>(g);
  seed_opts.rounds = std::max<int64_t>(1, options_.coarse_rounds);
  Result<InitResult> init = KMeansLLInit(
      center_data, g, rng::Rng(options_.coarse_seed), seed_opts, pool);
  if (!init.ok()) return;  // flat serving; counted as exact_fallbacks
  Matrix coarse = std::move(init.ValueOrDie().centers);
  if (options_.coarse_iterations > 0 && coarse.rows() > 0) {
    LloydOptions lloyd_opts;
    lloyd_opts.max_iterations = options_.coarse_iterations;
    Result<LloydResult> refined =
        RunLloyd(center_data, coarse, lloyd_opts, pool);
    if (refined.ok()) coarse = std::move(refined.ValueOrDie().centers);
  }
  if (coarse.rows() <= 0) return;

  auto p = std::make_unique<PrunedIndex>();
  p->coarse_centers = std::move(coarse);
  p->coarse = std::make_unique<NearestCenterSearch>(p->coarse_centers);
  p->coarse->Freeze();
  const int64_t gg = p->coarse_centers.rows();

  // Member assignment and member→coarse distances from the engine's own
  // chains (any deterministic chain works — these only feed bounds).
  const double* center_row_norms = search_.uses_expanded_kernel()
                                       ? search_.center_norms().data()
                                       : nullptr;
  std::vector<int32_t> member_group(static_cast<size_t>(k));
  std::vector<double> member_d2(static_cast<size_t>(k));
  p->coarse->FindRange(centers_.view(), IndexRange{0, k}, center_row_norms,
                       member_group.data(), member_d2.data());

  // Permute group-major with ascending ORIGINAL index inside each group:
  // the in-group strict-< merges then resolve exact ties exactly like
  // the flat ascending scan, and cross-group winners merge
  // lexicographically on (d², original index) at query time.
  p->group_begin.assign(static_cast<size_t>(gg + 1), 0);
  for (int64_t i = 0; i < k; ++i) {
    ++p->group_begin[static_cast<size_t>(member_group[i]) + 1];
  }
  for (int64_t j = 0; j < gg; ++j) {
    p->group_begin[static_cast<size_t>(j + 1)] +=
        p->group_begin[static_cast<size_t>(j)];
  }
  std::vector<int64_t> order(static_cast<size_t>(k));
  std::vector<int64_t> cursor(p->group_begin.begin(),
                              p->group_begin.end() - 1);
  for (int64_t i = 0; i < k; ++i) {
    order[static_cast<size_t>(
        cursor[static_cast<size_t>(member_group[i])]++)] = i;
  }

  Matrix permuted = centers_.GatherRows(order);
  p->panels.Pack(permuted);
  p->perm_to_orig.resize(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    p->perm_to_orig[static_cast<size_t>(i)] =
        static_cast<int32_t>(order[static_cast<size_t>(i)]);
  }
  if (search_.uses_expanded_kernel()) {
    // Reorder the already-computed norms: per-row pure function, so the
    // gathered values are bitwise the permuted rows' RowSquaredNorms.
    p->norms.resize(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      p->norms[static_cast<size_t>(i)] =
          search_.center_norms()[static_cast<size_t>(
              order[static_cast<size_t>(i)])];
    }
    p->kernel = BatchKernel::kExpanded;
  } else {
    p->kernel = BatchKernel::kPlain;
  }

  // Member radii in sqrt space (the triangle inequality is linear in
  // unsquared distances) and the slack's magnitude scale.
  p->group_radius.assign(static_cast<size_t>(gg), 0.0);
  for (int64_t i = 0; i < k; ++i) {
    const double r = std::sqrt(member_d2[static_cast<size_t>(i)]);
    double& slot = p->group_radius[static_cast<size_t>(member_group[i])];
    if (r > slot) slot = r;
  }
  for (int64_t j = 0; j < gg; ++j) {
    if (p->group_begin[static_cast<size_t>(j)] <
        p->group_begin[static_cast<size_t>(j + 1)]) {
      p->active_groups.push_back(static_cast<int32_t>(j));
    }
  }
  double max_len = 0.0;
  for (int64_t c = 0; c < k; ++c) {
    max_len = std::max(max_len, std::sqrt(SquaredNorm(centers_.Row(c), d)));
  }
  for (int64_t j = 0; j < gg; ++j) {
    max_len = std::max(
        max_len, std::sqrt(SquaredNorm(p->coarse_centers.Row(j), d)));
  }
  p->max_center_len = max_len;

  pruned_ = std::move(p);
}


int64_t CenterIndex::num_groups() const {
  return pruned_ != nullptr ? pruned_->coarse_centers.rows() : 0;
}

PruneStats CenterIndex::prune_stats() const {
  PruneStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.groups_scanned = stat_groups_scanned_.load(std::memory_order_relaxed);
  s.groups_pruned = stat_groups_pruned_.load(std::memory_order_relaxed);
  s.exact_fallbacks = stat_exact_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

void CenterIndex::CountFallbacks(int64_t rows) const {
  if (!options_.enable_pruning) return;
  stat_exact_fallbacks_.fetch_add(rows, std::memory_order_relaxed);
  GetPruneMetrics().exact_fallbacks->Increment(rows);
}

template <typename Visitor>
void CenterIndex::PrunedScan(ConstMatrixView points, IndexRange rows,
                             Visitor& visit) const {
  const PrunedIndex& p = *pruned_;
  const int64_t d = dim();
  const int64_t n = rows.size();
  if (n <= 0) return;
  const int64_t g = p.coarse_centers.rows();
  const size_t probe_limit =
      options_.approx_probes > 0
          ? static_cast<size_t>(options_.approx_probes)
          : std::numeric_limits<size_t>::max();

  int64_t scanned_total = 0;
  int64_t pruned_total = 0;
  const int64_t tile = std::min<int64_t>(n, kQueryTile);
  std::vector<double> pn(static_cast<size_t>(tile));
  std::vector<double> coarse_d2(static_cast<size_t>(tile * g));
  std::vector<std::pair<double, int32_t>> order;
  order.reserve(p.active_groups.size());

  for (int64_t tb = 0; tb < n; tb += kQueryTile) {
    const int64_t te = std::min(tb + kQueryTile, n);
    // Tile point norms with the shared SquaredNorm chain. The slack term
    // needs ||x|| even under the plain kernel, so they are always
    // materialized.
    for (int64_t i = 0; i < te - tb; ++i) {
      pn[static_cast<size_t>(i)] =
          SquaredNorm(points.Row(rows.begin + tb + i), d);
    }
    p.coarse->DistancesRange(points,
                             IndexRange{rows.begin + tb, rows.begin + te},
                             pn.data(), coarse_d2.data());
    for (int64_t i = 0; i < te - tb; ++i) {
      const double* cd = coarse_d2.data() + i * g;
      const double slack =
          kPruneSlackRel * (2.0 + p.max_center_len +
                            std::sqrt(pn[static_cast<size_t>(i)]));
      // Visit groups in ascending lower-bound order; once one group's
      // bound clears the visitor's bound, every later group's does too,
      // so the scan stops there and the rest count as pruned.
      order.clear();
      for (const int32_t j : p.active_groups) {
        order.emplace_back(std::sqrt(cd[j]) -
                               p.group_radius[static_cast<size_t>(j)],
                           j);
      }
      std::sort(order.begin(), order.end());

      visit.Begin(tb + i);
      ConstMatrixView row_view(points.Row(rows.begin + tb + i), 1, d);
      size_t oi = 0;
      for (; oi < order.size(); ++oi) {
        if (oi >= probe_limit ||
            order[oi].first - slack > std::sqrt(visit.Bound())) {
          break;
        }
        const size_t j = static_cast<size_t>(order[oi].second);
        visit.Scan(row_view, &pn[static_cast<size_t>(i)],
                   IndexRange{p.group_begin[j], p.group_begin[j + 1]});
      }
      visit.End();
      scanned_total += static_cast<int64_t>(oi);
      pruned_total += static_cast<int64_t>(order.size() - oi);
    }
  }
  stat_queries_.fetch_add(n, std::memory_order_relaxed);
  GetPruneMetrics().queries->Increment(n);
  stat_groups_scanned_.fetch_add(scanned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_scanned->Increment(scanned_total);
  stat_groups_pruned_.fetch_add(pruned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_pruned->Increment(pruned_total);
}

void CenterIndex::PrunedFindRange(ConstMatrixView points, IndexRange rows,
                                  int32_t* out_index,
                                  double* out_d2) const {
  // Bound() is the running best d²: it stays +inf until some group has
  // merged a center, so no group is skipped before that.
  struct Nearest {
    const PrunedIndex& p;
    int32_t* out_index;
    double* out_d2;
    int64_t row = 0;
    double best_d2 = kInf;
    int32_t best_orig = -1;

    void Begin(int64_t i) {
      row = i;
      best_d2 = kInf;
      best_orig = -1;
    }
    double Bound() const { return best_d2; }
    void Scan(ConstMatrixView x, const double* x_norm, IndexRange group) {
      double gd2 = kInf;
      int32_t gidx = -1;
      BatchNearestMergeSubset(x, IndexRange{0, 1}, x_norm, p.panels,
                              p.norms.empty() ? nullptr : p.norms.data(),
                              p.kernel, group, &gd2, &gidx);
      // A group merges nothing when every distance fails strict-< against
      // +inf (a NaN or ±inf coordinate under the plain kernel); the flat
      // scan then answers (-1, +inf), and so does this one.
      if (gidx < 0) return;
      // The group winner is already the in-group lexicographic min
      // (strict-< over ascending original order); merge group winners
      // lexicographically on (d², original index) since groups arrive
      // in bound order, not index order.
      const int32_t orig = p.perm_to_orig[static_cast<size_t>(gidx)];
      if (gd2 < best_d2 || (gd2 == best_d2 && orig < best_orig)) {
        best_d2 = gd2;
        best_orig = orig;
      }
    }
    void End() {
      if (out_index != nullptr) out_index[row] = best_orig;
      out_d2[row] = best_d2;
    }
  };
  Nearest visit{*pruned_, out_index, out_d2};
  PrunedScan(points, rows, visit);
}

NearestResult CenterIndex::AssignOne(const double* point) const {
  if (pruned_ != nullptr) {
    int32_t idx = -1;
    NearestResult r;
    PrunedFindRange(ConstMatrixView(point, 1, dim()), IndexRange{0, 1}, &idx,
                    &r.distance2);
    r.index = idx;
    return r;
  }
  CountFallbacks(1);
  return search_.Find(point);
}

void CenterIndex::AssignRange(ConstMatrixView points, IndexRange rows,
                              int32_t* out_index, double* out_d2) const {
  KMEANSLL_CHECK_EQ(points.cols(), dim());
  std::vector<double> d2;
  if (out_d2 == nullptr) {
    d2.resize(static_cast<size_t>(rows.size()));
    out_d2 = d2.data();
  }
  if (pruned_ != nullptr) {
    PrunedFindRange(points, rows, out_index, out_d2);
    return;
  }
  CountFallbacks(rows.size());
  search_.FindRange(points, rows, /*point_norms=*/nullptr, out_index, out_d2);
}

Assignment CenterIndex::AssignBatch(const DatasetSource& data,
                                    ThreadPool* pool,
                                    const double* point_norms) const {
  KMEANSLL_CHECK_EQ(data.dim(), dim());
  Assignment out;
  out.cluster.assign(static_cast<size_t>(data.n()), -1);
  out.cost = ReduceNearestWithSearch(data, search_, pool, point_norms,
                                     out.cluster.data());
  return out;
}

int64_t CenterIndex::AssignTopM(const double* point, int64_t m,
                                std::vector<int32_t>* out_index,
                                std::vector<double>* out_d2) const {
  KMEANSLL_CHECK_GT(m, 0);
  out_index->resize(static_cast<size_t>(m));
  out_d2->resize(static_cast<size_t>(m));
  AssignTopMRange(ConstMatrixView(point, 1, dim()), IndexRange{0, 1}, m,
                  out_index->data(), out_d2->data());
  const int64_t filled = std::min<int64_t>(m, k());
  out_index->resize(static_cast<size_t>(filled));
  out_d2->resize(static_cast<size_t>(filled));
  return filled;
}

void CenterIndex::AssignTopMRange(ConstMatrixView points, IndexRange rows,
                                  int64_t m, int32_t* out_index,
                                  double* out_d2) const {
  KMEANSLL_CHECK_EQ(points.cols(), dim());
  if (pruned_ == nullptr) {
    CountFallbacks(rows.size());
    search_.FindTopMRange(points, rows, /*point_norms=*/nullptr, m,
                          out_index, out_d2);
    return;
  }
  // Slot-displacement order: lexicographic on (d², original index), with
  // empty slots at (+inf, -1). This is exactly the flat BatchTopM
  // outcome — ascending visit + strict-< keeps the m lexicographically
  // smallest pairs — restated so it holds under out-of-order group
  // visits. Bound() is the worst slot, +inf until all m slots are real.
  struct TopM {
    const PrunedIndex& p;
    int64_t m;
    int32_t* out_index;
    double* out_d2;
    std::vector<int32_t> gi;
    std::vector<double> gd;
    int32_t* pi = nullptr;
    double* pd = nullptr;

    static bool Less(double vd, int32_t vi, double sd, int32_t si) {
      return vd < sd || (vd == sd && si >= 0 && vi < si);
    }
    void Begin(int64_t i) {
      pi = out_index + i * m;
      pd = out_d2 + i * m;
      std::fill(pi, pi + m, -1);
      std::fill(pd, pd + m, kInf);
    }
    double Bound() const { return pd[m - 1]; }
    void Scan(ConstMatrixView x, const double* x_norm, IndexRange group) {
      BatchTopMSubset(x, IndexRange{0, 1}, x_norm, p.panels,
                      p.norms.empty() ? nullptr : p.norms.data(), p.kernel,
                      group, m, gi.data(), gd.data());
      for (int64_t s = 0; s < m; ++s) {
        const int32_t g = gi[static_cast<size_t>(s)];
        if (g < 0) break;
        const double v = gd[static_cast<size_t>(s)];
        const int32_t orig = p.perm_to_orig[static_cast<size_t>(g)];
        // Group entries ascend lexicographically; once one fails to
        // displace the worst slot, the rest cannot either.
        if (!Less(v, orig, pd[m - 1], pi[m - 1])) break;
        int64_t s2 = m - 1;
        while (s2 > 0 && Less(v, orig, pd[s2 - 1], pi[s2 - 1])) {
          pd[s2] = pd[s2 - 1];
          pi[s2] = pi[s2 - 1];
          --s2;
        }
        pd[s2] = v;
        pi[s2] = orig;
      }
    }
    void End() {}
  };
  TopM visit{*pruned_, m, out_index, out_d2,
             std::vector<int32_t>(static_cast<size_t>(m)),
             std::vector<double>(static_cast<size_t>(m))};
  PrunedScan(points, rows, visit);
}

double CenterIndex::MeasureApproxRecall(ConstMatrixView queries) const {
  KMEANSLL_CHECK_EQ(queries.cols(), dim());
  const int64_t n = queries.rows();
  if (n <= 0 || pruned_ == nullptr) return 1.0;
  std::vector<int32_t> exact_idx(static_cast<size_t>(n));
  std::vector<int32_t> served_idx(static_cast<size_t>(n));
  std::vector<double> d2(static_cast<size_t>(n));
  search_.FindRange(queries, IndexRange{0, n}, /*point_norms=*/nullptr,
                    exact_idx.data(), d2.data());
  PrunedFindRange(queries, IndexRange{0, n}, served_idx.data(), d2.data());
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (exact_idx[static_cast<size_t>(i)] ==
        served_idx[static_cast<size_t>(i)]) {
      ++matched;
    }
  }
  return static_cast<double>(matched) / static_cast<double>(n);
}

Assignment Predict(const CenterIndex& index, const DatasetSource& data) {
  return index.AssignBatch(data);
}

}  // namespace kmeansll::serving
