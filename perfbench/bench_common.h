// Shared pieces of the repository benchmark runner: run options, the
// metric report printed as the runner's last line, raw-sample
// percentiles, peak-RSS sampling, layer timing, and the load generator.
//
// Everything here sits outside the library: the runner calls only the
// public API of src/ and times those calls from its own files.

#ifndef KMEANSLL_PERFBENCH_BENCH_COMMON_H_
#define KMEANSLL_PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< tiny sizes (self-test)
  std::string work_dir;   ///< temporary files (shards, oplog) live here
  std::string out_dir;    ///< traced runs write their trace/metrics here
};

/// Metrics, operation counts, and correctness gates of one run. The
/// metric names a run may set are fixed up front (the same set for every
/// workload); setting an unknown name is a runner bug and aborts.
class Report {
 public:
  struct Spec {
    const char* name;
    const char* unit;
  };
  Report(std::vector<Spec> end_to_end, std::vector<Spec> per_layer);

  void Set(const std::string& name, double value);

  /// Human-readable extra line (not part of the JSON), e.g. the sample
  /// count behind a percentile.
  void Note(const std::string& line);

  /// Records a correctness check. A failed gate fails the run.
  void Gate(bool ok, const std::string& what);
  void CountOps(int64_t attempted, int64_t failed);

  bool correct() const { return gate_failures_ == 0; }

  /// Prints the readable summary and, as the last stdout line, the JSON
  /// object with the end-to-end (trace = false) or per-layer metrics.
  /// Returns false when an end-to-end metric was never set.
  bool Print(bool trace) const;

 private:
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  std::vector<Spec> end_to_end_;
  std::vector<Spec> per_layer_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t gate_failures_ = 0;
  int64_t gates_ = 0;
};

/// Nearest-rank percentile (0 < p <= 100) of raw samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);
/// Median with the mean of the two middle values for even counts.
double Median(std::vector<double> samples);
/// "name = value unit" for a note line.
std::string Named(const std::string& name, double value, const char* unit);
/// "p50=... p90=... p99=... max=... (n=..., beyond p99)" for a note line.
std::string DescribeSamples(const std::string& name,
                            const std::vector<double>& samples,
                            const char* unit);

/// Resets the kernel's peak-RSS watermark of this process (VmHWM).
void ResetPeakRss();
/// Peak RSS since the last reset, in MiB.
double PeakRssMb();

double SecondsSince(Clock::time_point start);

/// Times one call into a layer: runs `fn` under a trace::Span named
/// `name` (recorded when the tracer is enabled) and returns its wall
/// seconds either way.
double TimeCall(const char* name, const std::function<void()>& fn);

/// Open-loop load: each client thread follows its own seeded Poisson
/// schedule and sends each request at its due time, whether or not the
/// previous one has returned late. Latency is measured from the due time,
/// so a stall also charges the requests queued behind it. With rate 0 the
/// loop is closed instead: each client sends its next request as soon as
/// the previous one returns, which measures the rate the clients sustain.
struct LoadSpec {
  double rate = 1000.0;  ///< offered requests/s over all threads (0: closed)
  double seconds = 1.0;  ///< schedule length
  int threads = 1;
  uint64_t seed = 1;
  /// Optional stop flag: the schedule ends early once it reads true.
  const std::atomic<bool>* stop = nullptr;
};

/// What one request did. `kind` groups latencies (0 = Assign, 1 = top-m);
/// `ok` false counts as a failure.
struct RequestOutcome {
  int kind = 0;
  bool ok = true;
};

/// Sends request `index` of client `thread`; called at the due time.
using RequestFn = std::function<RequestOutcome(int thread, int64_t index)>;

struct LoadResult {
  std::vector<double> latency_us[2];  ///< per kind, in due-time order
  std::vector<double> late_us;        ///< send time minus due time
  int64_t attempted = 0;
  int64_t failed = 0;
  double offered_ops_s = 0;
  double achieved_ops_s = 0;  ///< completed / wall time of the phase
};

LoadResult RunOpenLoop(const LoadSpec& spec, const RequestFn& request);

/// True when the load generator clearly fell short of its offered rate:
/// at least 500 requests ran and fewer than 90% of the offered rate was
/// achieved. (Shorter phases are too noisy to judge.)
bool FellShort(const LoadResult& load);

/// Latency percentile `p` of samples in due-time order, summarized per
/// window of kWindowRequests consecutive requests: the median over the
/// full windows of each window's percentile (so every window's p99 has
/// 10 samples beyond it, and one stall of the machine moves one window
/// rather than the run). With less than one window, the plain percentile.
constexpr size_t kWindowRequests = 1000;
double WindowedPercentile(const std::vector<double>& samples, double p);
/// WindowedPercentile of a load phase's Assign latencies.
double WindowedLatency(const LoadResult& load, double p);

/// Work directory helpers (all paths stay under the run's work_dir).
void MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);

/// Prints to stderr and exits non-zero: for failures of the harness
/// itself (unwritable work dir, a status the workload cannot go on
/// without), not for correctness gates.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace perfbench

#endif  // KMEANSLL_PERFBENCH_BENCH_COMMON_H_
