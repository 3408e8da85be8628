#include "serving/center_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "parallel/parallel_for.h"
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

void CenterIndex::PrunedFindRange(ConstMatrixView points, IndexRange rows,
                                  const double* point_norms,
                                  int32_t* out_index,
                                  double* out_d2) const {
  const PrunedIndex& p = *pruned_;
  const int64_t d = dim();
  const int64_t n = rows.size();
  if (n <= 0) return;
  const int64_t g = p.coarse_centers.rows();
  const double* group_norms = p.norms.empty() ? nullptr : p.norms.data();
  const int64_t probe_limit = options_.approx_probes > 0
                                  ? options_.approx_probes
                                  : std::numeric_limits<int64_t>::max();

  int64_t scanned_total = 0;
  int64_t pruned_total = 0;
  std::vector<double> pn_storage;
  std::vector<double> coarse_d2(
      static_cast<size_t>(std::min<int64_t>(n, kQueryTile) * g));
  std::vector<std::pair<double, int32_t>> order;
  order.reserve(p.active_groups.size());

  for (int64_t tb = 0; tb < n; tb += kQueryTile) {
    const int64_t te = std::min(tb + kQueryTile, n);
    const int64_t tn = te - tb;
    // Tile point norms with the shared SquaredNorm chain. The slack term
    // needs ||x|| even under the plain kernel, so they are always
    // materialized (bitwise interchangeable with caller-provided norms
    // per the engine contract).
    const double* pn;
    if (point_norms != nullptr) {
      pn = point_norms + tb;
    } else {
      pn_storage.resize(static_cast<size_t>(tn));
      for (int64_t i = 0; i < tn; ++i) {
        pn_storage[static_cast<size_t>(i)] =
            SquaredNorm(points.Row(rows.begin + tb + i), d);
      }
      pn = pn_storage.data();
    }
    p.coarse->DistancesRange(points,
                             IndexRange{rows.begin + tb, rows.begin + te},
                             pn, coarse_d2.data());
    for (int64_t i = 0; i < tn; ++i) {
      const double* cd = coarse_d2.data() + i * g;
      const double row_norm = pn[i];
      const double slack =
          kPruneSlackRel * (2.0 + p.max_center_len + std::sqrt(row_norm));
      // Visit groups in ascending lower-bound order; once one group's
      // bound clears the running best, every later group's does too, so
      // the scan stops (break, not continue).
      order.clear();
      for (const int32_t j : p.active_groups) {
        order.emplace_back(std::sqrt(cd[j]) -
                               p.group_radius[static_cast<size_t>(j)],
                           j);
      }
      std::sort(order.begin(), order.end());

      double best_d2 = kInf;
      int32_t best_orig = -1;
      int64_t scanned = 0;
      ConstMatrixView row_view(points.Row(rows.begin + tb + i), 1, d);
      for (size_t oi = 0; oi < order.size(); ++oi) {
        if (scanned >= probe_limit ||
            (best_orig >= 0 &&
             order[oi].first - slack > std::sqrt(best_d2))) {
          pruned_total += static_cast<int64_t>(order.size() - oi);
          break;
        }
        const int32_t j = order[oi].second;
        double gd2 = kInf;
        int32_t gidx = -1;
        BatchNearestMergeSubset(
            row_view, IndexRange{0, 1}, &row_norm, p.panels, group_norms,
            p.kernel,
            IndexRange{p.group_begin[static_cast<size_t>(j)],
                       p.group_begin[static_cast<size_t>(j) + 1]},
            &gd2, &gidx);
        ++scanned;
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
      scanned_total += scanned;
      if (out_index != nullptr) out_index[tb + i] = best_orig;
      out_d2[tb + i] = best_d2;
    }
  }
  stat_queries_.fetch_add(n, std::memory_order_relaxed);
  GetPruneMetrics().queries->Increment(static_cast<int64_t>(n));
  stat_groups_scanned_.fetch_add(scanned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_scanned->Increment(static_cast<int64_t>(scanned_total));
  stat_groups_pruned_.fetch_add(pruned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_pruned->Increment(static_cast<int64_t>(pruned_total));
}

void CenterIndex::PrunedFindTopMRange(ConstMatrixView points,
                                      IndexRange rows,
                                      const double* point_norms, int64_t m,
                                      int32_t* out_index,
                                      double* out_d2) const {
  const PrunedIndex& p = *pruned_;
  const int64_t d = dim();
  const int64_t n = rows.size();
  if (n <= 0) return;
  const int64_t g = p.coarse_centers.rows();
  const double* group_norms = p.norms.empty() ? nullptr : p.norms.data();
  const int64_t probe_limit = options_.approx_probes > 0
                                  ? options_.approx_probes
                                  : std::numeric_limits<int64_t>::max();
  // Slot-displacement order: lexicographic on (d², original index), with
  // empty slots at (+inf, -1). This is exactly the flat BatchTopM
  // outcome — ascending visit + strict-< keeps the m lexicographically
  // smallest pairs — restated so it holds under out-of-order group
  // visits.
  const auto entry_less = [](double vd, int32_t vi, double sd, int32_t si) {
    return vd < sd || (vd == sd && si >= 0 && vi < si);
  };

  int64_t scanned_total = 0;
  int64_t pruned_total = 0;
  std::vector<double> pn_storage;
  std::vector<double> coarse_d2(
      static_cast<size_t>(std::min<int64_t>(n, kQueryTile) * g));
  std::vector<std::pair<double, int32_t>> order;
  order.reserve(p.active_groups.size());
  std::vector<int32_t> gi(static_cast<size_t>(m));
  std::vector<double> gd(static_cast<size_t>(m));

  for (int64_t tb = 0; tb < n; tb += kQueryTile) {
    const int64_t te = std::min(tb + kQueryTile, n);
    const int64_t tn = te - tb;
    const double* pn;
    if (point_norms != nullptr) {
      pn = point_norms + tb;
    } else {
      pn_storage.resize(static_cast<size_t>(tn));
      for (int64_t i = 0; i < tn; ++i) {
        pn_storage[static_cast<size_t>(i)] =
            SquaredNorm(points.Row(rows.begin + tb + i), d);
      }
      pn = pn_storage.data();
    }
    p.coarse->DistancesRange(points,
                             IndexRange{rows.begin + tb, rows.begin + te},
                             pn, coarse_d2.data());
    for (int64_t i = 0; i < tn; ++i) {
      const double* cd = coarse_d2.data() + i * g;
      const double row_norm = pn[i];
      const double slack =
          kPruneSlackRel * (2.0 + p.max_center_len + std::sqrt(row_norm));
      order.clear();
      for (const int32_t j : p.active_groups) {
        order.emplace_back(std::sqrt(cd[j]) -
                               p.group_radius[static_cast<size_t>(j)],
                           j);
      }
      std::sort(order.begin(), order.end());

      double* pd = out_d2 + (tb + i) * m;
      int32_t* pi = out_index + (tb + i) * m;
      for (int64_t s = 0; s < m; ++s) {
        pd[s] = kInf;
        pi[s] = -1;
      }
      int64_t scanned = 0;
      ConstMatrixView row_view(points.Row(rows.begin + tb + i), 1, d);
      for (size_t oi = 0; oi < order.size(); ++oi) {
        // Skip only once all m slots are real (pd[m-1] < inf guarantees
        // it) AND the bound proves no member can displace the worst
        // slot; comparisons stay strict with the slack margin.
        if (scanned >= probe_limit ||
            (pd[m - 1] < kInf &&
             order[oi].first - slack > std::sqrt(pd[m - 1]))) {
          pruned_total += static_cast<int64_t>(order.size() - oi);
          break;
        }
        const int32_t j = order[oi].second;
        BatchTopMSubset(
            row_view, IndexRange{0, 1}, &row_norm, p.panels, group_norms,
            p.kernel,
            IndexRange{p.group_begin[static_cast<size_t>(j)],
                       p.group_begin[static_cast<size_t>(j) + 1]},
            m, gi.data(), gd.data());
        ++scanned;
        for (int64_t s = 0; s < m; ++s) {
          if (gi[static_cast<size_t>(s)] < 0) break;
          const double v = gd[static_cast<size_t>(s)];
          const int32_t orig =
              p.perm_to_orig[static_cast<size_t>(gi[static_cast<size_t>(s)])];
          // Group entries ascend lexicographically; once one fails to
          // displace the worst slot, the rest cannot either.
          if (!entry_less(v, orig, pd[m - 1], pi[m - 1])) break;
          int64_t s2 = m - 1;
          while (s2 > 0 && entry_less(v, orig, pd[s2 - 1], pi[s2 - 1])) {
            pd[s2] = pd[s2 - 1];
            pi[s2] = pi[s2 - 1];
            --s2;
          }
          pd[s2] = v;
          pi[s2] = orig;
        }
      }
      scanned_total += scanned;
    }
  }
  stat_queries_.fetch_add(n, std::memory_order_relaxed);
  GetPruneMetrics().queries->Increment(static_cast<int64_t>(n));
  stat_groups_scanned_.fetch_add(scanned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_scanned->Increment(static_cast<int64_t>(scanned_total));
  stat_groups_pruned_.fetch_add(pruned_total, std::memory_order_relaxed);
  GetPruneMetrics().groups_pruned->Increment(static_cast<int64_t>(pruned_total));
}

NearestResult CenterIndex::AssignOne(const double* point) const {
  if (pruned_ != nullptr) {
    int32_t idx = -1;
    double d2 = kInf;
    PrunedFindRange(ConstMatrixView(point, 1, dim()), IndexRange{0, 1},
                    /*point_norms=*/nullptr, &idx, &d2);
    NearestResult r;
    r.index = idx;
    r.distance2 = d2;
    return r;
  }
  if (options_.enable_pruning) {
    stat_exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    GetPruneMetrics().exact_fallbacks->Increment(static_cast<int64_t>(1));
  }
  return search_.Find(point);
}

void CenterIndex::AssignRange(ConstMatrixView points, IndexRange rows,
                              int32_t* out_index, double* out_d2) const {
  KMEANSLL_CHECK_EQ(points.cols(), dim());
  if (pruned_ != nullptr) {
    if (out_d2 != nullptr) {
      PrunedFindRange(points, rows, /*point_norms=*/nullptr, out_index,
                      out_d2);
      return;
    }
    std::vector<double> d2(static_cast<size_t>(rows.size()));
    PrunedFindRange(points, rows, /*point_norms=*/nullptr, out_index,
                    d2.data());
    return;
  }
  if (options_.enable_pruning) {
    stat_exact_fallbacks_.fetch_add(rows.size(), std::memory_order_relaxed);
    GetPruneMetrics().exact_fallbacks->Increment(static_cast<int64_t>(rows.size()));
  }
  if (out_d2 != nullptr) {
    search_.FindRange(points, rows, /*point_norms=*/nullptr, out_index,
                      out_d2);
    return;
  }
  std::vector<double> d2(static_cast<size_t>(rows.size()));
  search_.FindRange(points, rows, /*point_norms=*/nullptr, out_index,
                    d2.data());
}

Assignment CenterIndex::AssignBatch(const DatasetSource& data,
                                    ThreadPool* pool,
                                    const double* point_norms) const {
  KMEANSLL_CHECK_EQ(data.dim(), dim());
  Assignment out;
  out.cluster.assign(static_cast<size_t>(data.n()), -1);
  if (pruned_ == nullptr) {
    if (options_.enable_pruning) {
      stat_exact_fallbacks_.fetch_add(data.n(), std::memory_order_relaxed);
      GetPruneMetrics().exact_fallbacks->Increment(static_cast<int64_t>(data.n()));
    }
    out.cost = ReduceNearestWithSearch(data, search_, pool, point_norms,
                                       out.cluster.data());
    return out;
  }
  // Pruned reduction mirroring ReduceNearestWithSearch's skeleton — same
  // chunk grid, same block walk, same per-chunk Kahan chains combined in
  // chunk order. The pruned per-row d² are bitwise the flat scan's (in
  // exact mode), so the whole fold — indices AND cost — is too.
  const ScanSchedule schedule = MakeScanSchedule(data, data.n(), pool);
  auto map = [&](IndexRange r) {
    KahanSum partial;
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      const int64_t first = v.first_row();
      std::vector<double> d2(static_cast<size_t>(v.rows()));
      PrunedFindRange(v.points(), IndexRange{0, v.rows()},
                      point_norms == nullptr ? nullptr
                                             : point_norms + first,
                      out.cluster.data() + first, d2.data());
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
  out.cost = ParallelReduce<KahanSum>(pool, data.n(), KahanSum(), map,
                                      combine, &schedule)
                 .Total();
  return out;
}

int64_t CenterIndex::AssignTopM(const double* point, int64_t m,
                                std::vector<int32_t>* out_index,
                                std::vector<double>* out_d2) const {
  KMEANSLL_CHECK_GT(m, 0);
  std::vector<int32_t> idx(static_cast<size_t>(m));
  std::vector<double> d2(static_cast<size_t>(m));
  ConstMatrixView one(point, 1, dim());
  if (pruned_ != nullptr) {
    PrunedFindTopMRange(one, IndexRange{0, 1}, /*point_norms=*/nullptr, m,
                        idx.data(), d2.data());
  } else {
    if (options_.enable_pruning) {
      stat_exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      GetPruneMetrics().exact_fallbacks->Increment(static_cast<int64_t>(1));
    }
    search_.FindTopMRange(one, IndexRange{0, 1}, /*point_norms=*/nullptr, m,
                          idx.data(), d2.data());
  }
  const int64_t filled = std::min<int64_t>(m, k());
  idx.resize(static_cast<size_t>(filled));
  d2.resize(static_cast<size_t>(filled));
  *out_index = std::move(idx);
  *out_d2 = std::move(d2);
  return filled;
}

void CenterIndex::AssignTopMRange(ConstMatrixView points, IndexRange rows,
                                  int64_t m, int32_t* out_index,
                                  double* out_d2) const {
  KMEANSLL_CHECK_EQ(points.cols(), dim());
  if (pruned_ != nullptr) {
    PrunedFindTopMRange(points, rows, /*point_norms=*/nullptr, m, out_index,
                        out_d2);
    return;
  }
  if (options_.enable_pruning) {
    stat_exact_fallbacks_.fetch_add(rows.size(), std::memory_order_relaxed);
    GetPruneMetrics().exact_fallbacks->Increment(static_cast<int64_t>(rows.size()));
  }
  search_.FindTopMRange(points, rows, /*point_norms=*/nullptr, m, out_index,
                        out_d2);
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
  PrunedFindRange(queries, IndexRange{0, n}, /*point_norms=*/nullptr,
                  served_idx.data(), d2.data());
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
