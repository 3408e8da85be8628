// ingest_live: writes beside reads on a live dataset.
//
// One writer runs 24 lockstep epochs. Each epoch appends 8 batches of
// 1,024 rows (d=16) into a LiveDataset with 8,192-row shards, calls Seal,
// then RefineLoop::RunOnce (minibatch 256x20; a drift re-seed is a full
// k=64 Fit on 2 pool threads with Lloyd capped at 20). The rows are
// standard normal around a mean that shifts by 3.0 in every coordinate
// every 6 epochs, so the loop re-seeds after each shift. Meanwhile one
// client thread scores 256-row batches against the "live" tenant with
// AssignBulk, open loop at 500 requests/s. Lockstep makes the refine mix
// a pure function of the seed; the benchmark checks that it repeats
// exactly.
//
// The reader sends batches rather than single points: a single-point
// Assign here takes ~5 us, and its median moved by 20-30% between runs
// of the same code as other load on the host came and went (a cold or
// preempted request costs a few us, a large share of 5 us). A 256-row
// batch takes ~90 us and moved by ~5% under the same load.
//
// Untraced run: several repetitions, each on a fresh LiveDataset.
// Traced run: one untraced and one traced repetition, timing every
// Append, Seal and RunOnce.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "clustering/cost.h"
#include "common/metrics.h"
#include "data/live_dataset.h"
#include "matrix/dataset.h"
#include "rng/rng.h"
#include "serving/freshness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kmeansll::Matrix;
using kmeansll::data::LiveDataset;
using kmeansll::serving::CenterIndex;
using kmeansll::serving::RefineLoop;
using kmeansll::serving::RefineStats;
using kmeansll::serving::ServerRegistry;

struct IngestShape {
  int64_t epochs = 24;
  int64_t batches = 8;  ///< per epoch
  int64_t batch_rows = 1024;
  int64_t dim = 16;
  int64_t k = 64;
  int64_t shift_every = 6;  ///< epochs between mean shifts
  double shift = 3.0;       ///< per coordinate
  double read_rate = 500;    ///< reader requests/s
  int64_t read_batch = 256;  ///< rows per reader request
  int64_t queries = 4096;

  int64_t epoch_rows() const { return batches * batch_rows; }
  int64_t rows() const { return epochs * epoch_rows(); }
};

// The whole input stream, generated before any timing: row r is a pure
// function of (seed, r).
struct IngestInput {
  std::vector<double> rows;  ///< rows() x dim, row-major
  Matrix initial_centers;    ///< the model served before the first cycle
  Matrix queries;            ///< the reader's query pool
  std::vector<kmeansll::Dataset> read_batches;  ///< the pool, in batches
  Matrix mean;               ///< 1 x dim mean of all rows
};

IngestInput GenerateInput(const IngestShape& shape, uint64_t seed) {
  const int64_t d = shape.dim;
  IngestInput in;
  in.rows.resize(static_cast<size_t>(shape.rows() * d));
  for (int64_t r = 0; r < shape.rows(); ++r) {
    kmeansll::rng::Rng rng(
        kmeansll::rng::HashCombine(seed, static_cast<uint64_t>(r)));
    const int64_t epoch = r / shape.epoch_rows();
    const double offset =
        shape.shift * static_cast<double>(epoch / shape.shift_every);
    double* out = in.rows.data() + r * d;
    for (int64_t j = 0; j < d; ++j) out[j] = offset + rng.NextGaussian();
  }
  in.mean = Matrix(1, d);
  for (int64_t r = 0; r < shape.rows(); ++r) {
    for (int64_t j = 0; j < d; ++j) in.mean.data()[j] += in.rows[r * d + j];
  }
  for (int64_t j = 0; j < d; ++j) {
    in.mean.data()[j] /= static_cast<double>(shape.rows());
  }
  in.initial_centers = Matrix(shape.k, d);
  std::memcpy(in.initial_centers.data(), in.rows.data(),
              static_cast<size_t>(shape.k * d) * sizeof(double));
  kmeansll::rng::Rng pick(kmeansll::rng::HashCombine(seed, 0x9E));
  in.queries = Matrix(shape.queries, d);
  for (int64_t q = 0; q < shape.queries; ++q) {
    const auto r = static_cast<int64_t>(
        pick.NextBounded(static_cast<uint64_t>(shape.rows())));
    std::memcpy(in.queries.Row(q), in.rows.data() + r * d,
                static_cast<size_t>(d) * sizeof(double));
  }
  for (int64_t first = 0; first + shape.read_batch <= shape.queries;
       first += shape.read_batch) {
    Matrix batch(shape.read_batch, d);
    std::memcpy(batch.data(), in.queries.Row(first),
                static_cast<size_t>(shape.read_batch * d) * sizeof(double));
    in.read_batches.emplace_back(std::move(batch));
  }
  return in;
}

kmeansll::serving::RefineLoopOptions LoopOptions(const IngestShape& shape,
                                                 uint64_t seed) {
  kmeansll::serving::RefineLoopOptions o;
  o.seed = kmeansll::rng::HashCombine(seed, 0xF4E5);
  o.min_new_rows = shape.epoch_rows();
  o.minibatch.batch_size = 256;
  o.minibatch.iterations = 20;
  o.reseed.k = shape.k;
  o.reseed.kmeansll.rounds = 5;
  o.reseed.lloyd.max_iterations = 20;
  o.reseed.num_threads = 2;
  return o;
}

int64_t OplogSyncs() {
  return kmeansll::MetricsRegistry::Global()
      .GetCounter("kmll_oplog_syncs_total", "")
      ->value();
}

// Everything one repetition measured.
struct Rep {
  std::vector<double> setup_s;  ///< restarts of the finished dataset
  double writer_s = 0;
  double append_s = 0, seal_s = 0, refine_s = 0;  ///< summed call times
  std::vector<double> append_us, seal_ms, cycle_ms, reseed_ms, lag_s;
  RefineStats refine;
  int64_t backpressure = 0;
  int64_t syncs = 0;
  int64_t acked_rows = 0;
  std::vector<int64_t> reopened_rows;  ///< n() after each restart
  double cost_ratio = 0;  ///< φ(served model) / φ(mean of all rows)
  ServeRun reads;  ///< the client's load and answer checks
  /// The reader's answers, checked after the run: each AssignBulk
  /// result with the snapshot it was served from and its batch.
  struct Answer {
    std::shared_ptr<const CenterIndex> snapshot;
    size_t batch = 0;
    std::vector<int32_t> cluster;
  };
  std::vector<Answer> answers;
  std::unique_ptr<ServerRegistry> registry;
  std::shared_ptr<const CenterIndex> final_snapshot;
};

kmeansll::data::LiveDatasetOptions LiveOptions(const IngestShape& shape) {
  kmeansll::data::LiveDatasetOptions options;
  options.rows_per_shard = shape.epoch_rows();
  return options;
}

// What one repetition runs on: a fresh LiveDataset, the "live" tenant
// serving the initial model, and the RefineLoop bound to both. The loop
// is declared last, so it is destroyed before what it borrows.
struct LiveStack {
  std::optional<LiveDataset> live;
  std::unique_ptr<ServerRegistry> registry;
  kmeansll::serving::ModelServer* server = nullptr;
  std::optional<RefineLoop> loop;
};

// Opens a LiveStack on the live dataset in `dir` (recovering it if it
// exists); returns the wall seconds it took.
double OpenStack(const IngestShape& shape, const IngestInput& in,
                 uint64_t seed, const std::string& dir, LiveStack* stack) {
  const Clock::time_point start = Clock::now();
  auto opened = LiveDataset::Open(dir + "/live", shape.dim,
                                  /*has_weights=*/false, LiveOptions(shape));
  if (!opened.ok()) Fatal("LiveDataset::Open: " + opened.status().message());
  stack->live.emplace(std::move(opened).ValueOrDie());
  stack->registry = std::make_unique<ServerRegistry>();
  if (!stack->registry
           ->Register("live",
                      CenterIndex::Build(in.initial_centers,
                                         ServingIndexOptions(), 1),
                      ServingTenantOptions())
           .ok()) {
    Fatal("Register live failed");
  }
  stack->server = stack->registry->server("live").ValueOrDie();
  stack->loop.emplace(stack->server, &*stack->live, LoopOptions(shape, seed));
  return SecondsSince(start);
}

Rep RunRep(const IngestShape& shape, const IngestInput& in, uint64_t seed,
           const std::string& dir) {
  const int64_t d = shape.dim;
  Rep rep;
  LiveStack stack;
  RemoveTree(dir);
  MakeDirs(dir);
  OpenStack(shape, in, seed, dir, &stack);
  std::optional<LiveDataset>& live = stack.live;
  std::optional<RefineLoop>& loop = stack.loop;
  kmeansll::serving::ModelServer* server = stack.server;

  // Reader: one open-loop client scoring batches of the query pool. An
  // answer is kept for checking only when the same snapshot was current
  // before and after the call (a publish in between is skipped); the
  // checks run after the load, outside the timed requests.
  std::atomic<bool> stop{false};
  LoadSpec load;
  load.rate = shape.read_rate;
  load.seconds = 1e6;
  load.threads = 1;
  load.seed = kmeansll::rng::HashCombine(seed, 0x4EAD);
  load.stop = &stop;
  ServerRegistry* registry = stack.registry.get();
  const std::vector<kmeansll::Dataset>& batches = in.read_batches;
  std::thread reader([&] {
    rep.reads.load = RunOpenLoop(load, [&](int, int64_t i) -> RequestOutcome {
      const size_t b = static_cast<size_t>(i) % batches.size();
      auto before = registry->AcquireSnapshot("live");
      auto r = registry->AssignBulk("live", batches[b].AsSource());
      auto after = registry->AcquireSnapshot("live");
      if (!r.ok() || !before.ok() || !after.ok()) return {0, false};
      if (before.ValueOrDie() == after.ValueOrDie()) {
        rep.answers.push_back({before.ValueOrDie(), b,
                               std::move(r).ValueOrDie().cluster});
      }
      return {0, true};
    });
  });

  const int64_t syncs_before = OplogSyncs();
  const Clock::time_point writer_start = Clock::now();
  for (int64_t e = 0; e < shape.epochs; ++e) {
    for (int64_t b = 0; b < shape.batches; ++b) {
      const int64_t first = e * shape.epoch_rows() + b * shape.batch_rows;
      const double* batch = in.rows.data() + first * d;
      kmeansll::Status st;
      const double s = TimeCall("data.ingest.append", [&] {
        st = live->Append(batch, shape.batch_rows);
      });
      rep.append_s += s;
      rep.append_us.push_back(s * 1e6);
      if (st.IsUnavailable()) {
        // Backpressure: the tail outran compaction. Seal, then resend.
        if (!live->Seal().ok()) Fatal("Seal under backpressure failed");
        st = live->Append(batch, shape.batch_rows);
      }
      if (!st.ok()) Fatal("Append: " + st.message());
      rep.acked_rows += shape.batch_rows;
    }
    kmeansll::Status st;
    const double s = TimeCall("data.ingest.seal", [&] { st = live->Seal(); });
    if (!st.ok()) Fatal("Seal: " + st.message());
    const Clock::time_point sealed = Clock::now();
    rep.seal_s += s;
    rep.seal_ms.push_back(s * 1e3);

    const int64_t reseeds_before = loop->stats().reseeds;
    const double c = TimeCall("serving.refine.cycle", [&] {
      st = loop->RunOnce();
    });
    if (!st.ok()) Fatal("RunOnce: " + st.message());
    // RunOnce ends with the publish of the model covering the sealed rows.
    rep.lag_s.push_back(SecondsSince(sealed));
    rep.refine_s += c;
    rep.cycle_ms.push_back(c * 1e3);
    if (loop->stats().reseeds != reseeds_before) rep.reseed_ms.push_back(c * 1e3);
  }
  rep.writer_s = SecondsSince(writer_start);
  rep.syncs = OplogSyncs() - syncs_before;
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  for (const Rep::Answer& answer : rep.answers) {
    const kmeansll::Dataset& batch = batches[answer.batch];
    for (int64_t r = 0; r < batch.n(); ++r) {
      ++rep.reads.checked;
      if (answer.snapshot->AssignOne(batch.Point(r)).index !=
          answer.cluster[static_cast<size_t>(r)]) {
        ++rep.reads.mismatches;
      }
    }
  }
  rep.answers.clear();

  rep.refine = loop->stats();
  rep.final_snapshot = server->Acquire();
  rep.cost_ratio =
      kmeansll::ComputeCost(*live, rep.final_snapshot->centers()) /
      kmeansll::ComputeCost(*live, in.mean);
  rep.backpressure = live->ingest_stats().backpressure_rejections;

  loop.reset();
  live.reset();
  rep.registry = std::move(stack.registry);
  // Set-up, timed as a restarted service pays it: open the finished
  // dataset (24 sealed shards and the oplog), register the tenant, bind
  // the loop. Recovery must give back exactly the acknowledged rows.
  for (int i = 0; i < 10; ++i) {
    LiveStack restarted;
    rep.setup_s.push_back(OpenStack(shape, in, seed, dir, &restarted));
    rep.reopened_rows.push_back(restarted.live->n());
  }
  return rep;
}

void GateRep(const IngestShape& shape, const Rep& rep, Report* report) {
  report->CountOps(rep.reads.load.attempted, rep.reads.load.failed);
  report->CountOps(shape.epochs * (shape.batches + 2), 0);
  const bool recovered = std::all_of(
      rep.reopened_rows.begin(), rep.reopened_rows.end(),
      [&](int64_t rows) { return rows == rep.acked_rows; });
  report->Gate(recovered,
               "reopened LiveDataset holds exactly the acknowledged rows (" +
                   std::to_string(rep.reopened_rows.front()) + " vs " +
                   std::to_string(rep.acked_rows) + ")");  report->Gate(rep.refine.cycles == shape.epochs && rep.refine.failures == 0,
               "refine ran exactly one cycle per epoch (" +
                   std::to_string(rep.refine.cycles) + " of " +
                   std::to_string(shape.epochs) + ")");
  report->Gate(rep.reads.mismatches == 0,
               "live AssignBulk answers equal CenterIndex::AssignOne (" +
                   std::to_string(rep.reads.mismatches) + " of " +
                   std::to_string(rep.reads.checked) + " differ)");
  report->Gate(!FellShort(rep.reads.load),
               "reader achieved >= 90% of the offered rate (" +
                   std::to_string(rep.reads.load.achieved_ops_s) + ")");
}

std::string DescribeRefine(const Rep& rep) {
  return "refine: " + std::to_string(rep.refine.cycles) + " cycles, " +
         std::to_string(rep.refine.minibatch_refines) + " minibatch, " +
         std::to_string(rep.refine.reseeds) + " reseeds; writer " +
         std::to_string(rep.writer_s) + " s";
}

}  // namespace

void RunIngestLive(const RunOptions& opt, Report* report) {
  IngestShape shape;
  if (opt.smoke) {
    shape.epochs = 6;
    shape.batches = 4;
    shape.batch_rows = 256;
    shape.k = 16;
    shape.shift_every = 2;
    shape.queries = 512;
    shape.read_batch = 64;
  }
  const IngestInput in = GenerateInput(shape, opt.seed);
  const std::string dir = opt.work_dir + "/live";

  if (!opt.trace) {
    const int reps =
        opt.smoke ? 2 : std::clamp(static_cast<int>(opt.seconds / 3.5), 3, 8);
    std::vector<double> setups, lags, rows_per_s, latencies, late;
    ResetPeakRss();
    std::optional<Rep> first;
    for (int i = 0; i < reps; ++i) {
      Rep rep = RunRep(shape, in, opt.seed, dir);
      GateRep(shape, rep, report);
      setups.insert(setups.end(), rep.setup_s.begin(), rep.setup_s.end());
      lags.insert(lags.end(), rep.lag_s.begin(), rep.lag_s.end());
      rows_per_s.push_back(static_cast<double>(rep.acked_rows) / rep.writer_s);
      const LoadResult& reads = rep.reads.load;
      latencies.insert(latencies.end(), reads.latency_us[0].begin(),
                       reads.latency_us[0].end());
      late.insert(late.end(), reads.late_us.begin(), reads.late_us.end());
      report->Note(DescribeRefine(rep));
      if (!first) {
        first.emplace(std::move(rep));
        continue;
      }
      report->Gate(rep.refine.reseeds == first->refine.reseeds &&
                       rep.refine.minibatch_refines ==
                           first->refine.minibatch_refines,
                   "the refine mix repeats exactly");
      report->Gate(rep.cost_ratio == first->cost_ratio,
                   "the final served model repeats bitwise");
    }
    report->Set("peak_rss_mb", PeakRssMb());
    report->Set("fit_s", Median(lags));
    report->Set("cost_ratio", first->cost_ratio);
    report->Set("p50_us", WindowedPercentile(latencies, 50));
    report->Note(Named("p99_us", WindowedPercentile(latencies, 99), "us"));
    report->Set("throughput_per_s", Median(rows_per_s));
    report->Set("setup_s", Median(setups));
    report->Note(Named("freshness_lag_ms", Median(lags) * 1e3, "ms"));
    report->Note(Named("ingest_rows_per_s", Median(rows_per_s), "1/s"));
    report->Note(DescribeSamples("freshness lag", lags, "s"));
    report->Note(DescribeSamples("AssignBulk under ingest", latencies, "us"));
    report->Note(DescribeSamples("generator lateness", late, "us"));
    report->Note(DescribeSamples("ingest rows/s", rows_per_s, "1/s"));
    return;
  }

  const Rep untraced = RunRep(shape, in, opt.seed, dir);
  GateRep(shape, untraced, report);
  kmeansll::trace::Tracer::Global().Enable();
  Rep rep = RunRep(shape, in, opt.seed, dir);
  GateRep(shape, rep, report);
  report->Gate(rep.refine.reseeds == untraced.refine.reseeds &&
                   rep.cost_ratio == untraced.cost_ratio,
               "the refine mix repeats exactly with tracing on");

  report->Set("data.ingest.append_us_p50", Percentile(rep.append_us, 50));
  report->Set("data.ingest.append_us_p99", Percentile(rep.append_us, 99));
  report->Set("data.ingest.seal_ms", Median(rep.seal_ms));
  report->Set("data.ingest.backpressure", static_cast<double>(rep.backpressure));
  report->Set("data.oplog.syncs", static_cast<double>(rep.syncs));
  report->Set("ingest.accounted_frac",
              (rep.append_s + rep.seal_s + rep.refine_s) / rep.writer_s);
  report->Set("serving.refine.cycles", static_cast<double>(rep.refine.cycles));
  report->Set("serving.refine.minibatch",
              static_cast<double>(rep.refine.minibatch_refines));
  report->Set("serving.refine.reseeds", static_cast<double>(rep.refine.reseeds));
  report->Set("serving.refine.cycle_ms_p50", Median(rep.cycle_ms));
  report->Set("serving.refine.cycle_ms_max", Percentile(rep.cycle_ms, 100));
  report->Set("serving.refine.reseed_ms", Median(rep.reseed_ms));
  report->Set("trace.overhead_frac",
              Median(rep.lag_s) / Median(untraced.lag_s) - 1.0);

  // Serving layers of the live tenant. The index build is timed on the
  // final served centers: each publish of the refine loop pays it.
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    build_ms.push_back(1e3 * TimeCall("serving.index.build", [&] {
      CenterIndex::Build(rep.final_snapshot->centers(), ServingIndexOptions(),
                         /*version=*/1);
    }));
  }
  const std::vector<ServedTenant> tenants = {
      {"live", rep.final_snapshot, &in.queries}};
  ReportServingLayers(*rep.registry, tenants, rep.reads, Median(build_ms),
                      report);
  report->Note(DescribeRefine(rep));
  report->Note(DescribeSamples("Append", rep.append_us, "us"));
  report->Note(DescribeSamples("refine cycle", rep.cycle_ms, "ms"));
}

}  // namespace perfbench
