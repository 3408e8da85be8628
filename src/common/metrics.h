// Process-wide metrics registry: named, label-tagged Counter / Gauge /
// Histogram handles with Prometheus text exposition.
//
// Design goals, in order:
//   1. Hot-path updates are wait-free. A handle is a stable pointer to a
//      relaxed std::atomic cell (Counter/Gauge) or to a LatencyHistogram
//      (common/telemetry.h) whose Record() is already wait-free. No
//      mutex, no allocation, no hashing on the update path — call sites
//      resolve their handle once (typically a function-local static) and
//      then pay one fetch_add per event.
//   2. Registration is idempotent and returns stable pointers. The
//      registry hands out the same cell for the same (name, labels) key
//      for the life of the process; cells live in deques and are never
//      moved or freed, so a cached handle can never dangle.
//   3. Snapshots are tear-free per cell. DumpPrometheusText() samples
//      each atomic individually — exactly the IoStats / LatencyHistogram
//      contract: no single value can tear, though cross-cell invariants
//      may be off by an in-flight update.
//
// Naming scheme (see docs/ARCHITECTURE.md "Observability"): every metric
// is `kmll_<layer>_<what>[_<unit>]`, counters end in `_total`, gauges
// name their unit (`_bytes`, `_rows`), histograms name theirs (`_us`).
// Labels carry low-cardinality dimensions only (tenant name, shard
// backend); per-request values belong in histogram buckets, not labels.
//
// Instrumented call sites keep their existing bespoke stat structs
// (IoStats, RequestBatcher::Stats, RefineStats, ...) as the per-instance
// source of truth — tests assert exact counts on those — and additionally
// bump the process-wide registry cells so one scrape sees every layer.

#ifndef KMEANSLL_COMMON_METRICS_H_
#define KMEANSLL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/telemetry.h"

namespace kmeansll {

/// Monotonically increasing counter. Increment() is wait-free; value()
/// is a single relaxed load.
class Counter {
 public:
  Counter() = default;
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(Counter);

  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (resident bytes, queue depth).
/// Set()/Add() are wait-free; value() is a single relaxed load.
class Gauge {
 public:
  Gauge() = default;
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(Gauge);

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Monotonic max update (peak watermarks). Wait-free CAS loop.
  void UpdateMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<int64_t> value_{0};
};

/// One `label="value"` pair; order is preserved in the exposition.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Registry of named metric cells. Thread-safe: registration takes a
/// mutex (call sites register once and cache the pointer); updates
/// through the returned handles never touch the registry again.
///
/// Library code uses the process-wide Global() instance; tests that need
/// exact counts construct their own local registry.
class MetricsRegistry {
 public:
  MetricsRegistry();   // out-of-line: deque members need complete Cell
  ~MetricsRegistry();  // (tests construct local registries)
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// The process-wide registry every library call site records into.
  static MetricsRegistry& Global();

  /// Returns the counter registered under (name, labels), creating it on
  /// first call. `help` is attached to the metric family on first
  /// registration; later calls may pass an empty help. The returned
  /// pointer is stable for the registry's lifetime.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels = {});
  /// Histogram cell is a LatencyHistogram (HdrHistogram-style buckets,
  /// wait-free Record()); exposed in cumulative Prometheus bucket format
  /// by DumpPrometheusText().
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels = {});

  /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE` per
  /// family, one sample line per (labels) cell, histograms as cumulative
  /// `_bucket{le="..."}` series plus `_sum` and `_count`. Histogram HELP
  /// lines document the bucket upper-bound (<= 12.5% relative error)
  /// percentile semantics. Values are tear-free per cell.
  std::string DumpPrometheusText() const;

  /// Number of registered cells across all families (for tests).
  size_t CellCount() const;

 private:
  struct Cell;
  struct Family;

  enum class MetricType { kCounter, kGauge, kHistogram };

  Cell* GetCell(MetricType type, const std::string& name,
                const std::string& help, const MetricLabels& labels);

  mutable std::mutex mu_;
  // Deques so every Cell / Family address is stable across growth.
  std::deque<Family> families_;
  std::deque<Cell> cells_;
};

/// Appends one LatencyHistogram snapshot to `out` as a cumulative
/// Prometheus histogram series (`name_bucket{...,le="..."}` lines in
/// strictly increasing `le`, closed by `+Inf`, then `name_sum` and
/// `name_count`). Shared by MetricsRegistry::DumpPrometheusText and
/// per-instance dumps (ServerRegistry::DumpPrometheusText).
void AppendPrometheusHistogram(const std::string& name,
                               const MetricLabels& labels,
                               const LatencyHistogram::Snapshot& snap,
                               std::string* out);

/// Appends one `name{labels} value` sample line to `out`, label values
/// escaped as the text format requires. Per-instance dumps
/// (ServerRegistry::DumpPrometheusText) render their families with it.
void AppendPrometheusSample(const std::string& name,
                            const MetricLabels& labels, int64_t value,
                            std::string* out);

}  // namespace kmeansll

#endif  // KMEANSLL_COMMON_METRICS_H_
