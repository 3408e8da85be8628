// serve_zipf: read-only multi-tenant serving through ServerRegistry.
//
// Eight tenants, each serving a pruned CenterIndex over the true centers
// of its own GaussMixture (k=1024, d=64); each tenant's query pool is
// 4,096 points of that mixture. Three client threads send an open-loop,
// seeded Poisson stream: tenant zipf θ=0.99, query zipf θ=0.8, 95% Assign
// and 5% AssignTopM (m=4). The registry never publishes.
//
// Untraced run: rounds of index rebuilds, 2,000 requests/s segments and
// closed-loop top-m segments that measure the rate the 3 clients sustain
// on the unbatched path. Traced run: the base rate, 8,000 requests/s and
// a closed loop through the batcher (the rate it sustains), with the
// registry's batcher and prune counters and a direct AssignOne timing.
// The shared open-loop helpers for read-only registries live here too.

#include <algorithm>
#include <memory>
#include <string>

#include "data/synthetic.h"
#include "rng/rng.h"
#include "serving/workload.h"
#include "workloads.h"

namespace perfbench {

using kmeansll::Matrix;
using kmeansll::NearestResult;
using kmeansll::serving::CenterIndex;
using kmeansll::serving::ServerRegistry;
using kmeansll::serving::WorkloadGenerator;
using kmeansll::serving::WorkloadOp;
using kmeansll::serving::WorkloadOpType;
using kmeansll::serving::WorkloadSpec;

kmeansll::serving::CenterIndexOptions ServingIndexOptions() {
  kmeansll::serving::CenterIndexOptions options;
  options.enable_pruning = true;
  return options;
}

kmeansll::serving::TenantOptions ServingTenantOptions() {
  kmeansll::serving::TenantOptions options;
  options.batcher.adaptive_batch = true;
  return options;
}

namespace {

// Answers reserved per client: a closed-loop segment's answers, reserved
// up front, so peak RSS follows the rate a segment reaches by a small
// linear amount rather than in the steps of a growing vector.
constexpr size_t kReservedAnswers = 65536;

// Sends the op stream of `spec` (one WorkloadGenerator stream per client
// thread) to `registry` on the open-loop schedule `load`, then checks
// every answer against a direct CenterIndex::AssignOne on the tenant's
// snapshot, bitwise. The registry must not publish meanwhile.
ServeRun ServeOpenLoop(ServerRegistry* registry,
                       const std::vector<ServedTenant>& tenants,
                       const WorkloadSpec& spec, const LoadSpec& load) {
  struct Answer {
    WorkloadOp op;
    NearestResult result;
    bool ok;
  };
  const int threads = std::max(load.threads, 1);
  std::vector<WorkloadGenerator> streams;
  std::vector<std::vector<Answer>> answers(static_cast<size_t>(threads));
  std::vector<std::vector<int32_t>> topm_index(static_cast<size_t>(threads));
  std::vector<std::vector<double>> topm_d2(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    streams.emplace_back(spec, static_cast<uint64_t>(t));
    answers[static_cast<size_t>(t)].reserve(kReservedAnswers);
  }

  ServeRun run;
  run.load = RunOpenLoop(load, [&](int t, int64_t) -> RequestOutcome {
    const auto ti = static_cast<size_t>(t);
    const WorkloadOp op = streams[ti].Next();
    const ServedTenant& tenant = tenants[static_cast<size_t>(op.model)];
    const double* point = tenant.queries->Row(op.row);
    Answer answer{op, {}, false};
    if (op.type == WorkloadOpType::kAssignTopM) {
      auto r = registry->AssignTopM(tenant.name, point, spec.top_m,
                                    &topm_index[ti], &topm_d2[ti]);
      answer.ok = r.ok() && r.ValueOrDie() >= 1;
      if (answer.ok) answer.result = {topm_index[ti][0], topm_d2[ti][0]};
      answers[ti].push_back(answer);
      return {1, answer.ok};
    }
    auto r = registry->Assign(tenant.name, point);
    answer.ok = r.ok();
    if (answer.ok) answer.result = r.ValueOrDie();
    answers[ti].push_back(answer);
    return {0, answer.ok};
  });

  // Every answer against the unbatched scalar path on the same snapshot:
  // batching, pruning and top-m slot 0 must not change a single bit.
  std::vector<std::vector<double>> pool_mean;
  for (const ServedTenant& tenant : tenants) {
    const Matrix& q = *tenant.queries;
    std::vector<double> mean(static_cast<size_t>(q.cols()), 0.0);
    for (int64_t i = 0; i < q.rows(); ++i) {
      for (int64_t j = 0; j < q.cols(); ++j) mean[j] += q.Row(i)[j];
    }
    for (double& v : mean) v /= static_cast<double>(q.rows());
    pool_mean.push_back(std::move(mean));
  }
  for (const auto& per_thread : answers) {
    for (const Answer& a : per_thread) {
      if (!a.ok) continue;
      const ServedTenant& tenant = tenants[static_cast<size_t>(a.op.model)];
      const NearestResult want =
          tenant.snapshot->AssignOne(tenant.queries->Row(a.op.row));
      ++run.checked;
      if (want.index != a.result.index ||
          want.distance2 != a.result.distance2) {
        ++run.mismatches;
      }
      if (a.op.type != WorkloadOpType::kAssignTopM) {
        const double* q = tenant.queries->Row(a.op.row);
        const std::vector<double>& mean = pool_mean[a.op.model];
        double to_mean = 0;
        for (size_t j = 0; j < mean.size(); ++j) {
          to_mean += (q[j] - mean[j]) * (q[j] - mean[j]);
        }
        run.d2_sum += a.result.distance2;
        run.mean_d2_sum += to_mean;
      }
    }
  }
  return run;
}

}  // namespace

void ReportServingLayers(const ServerRegistry& registry,
                         const std::vector<ServedTenant>& tenants,
                         const ServeRun& run, double build_ms,
                         Report* report) {
  int64_t batches = 0, points = 0, largest = 0, shed = 0, misses = 0;
  int64_t publishes = 0, scanned = 0, pruned = 0, fallbacks = 0;
  for (const ServedTenant& tenant : tenants) {
    auto stats = registry.stats(tenant.name);
    if (!stats.ok()) Fatal("stats: " + stats.status().message());
    const ServerRegistry::TenantStats& s = stats.ValueOrDie();
    batches += s.batcher.batches;
    points += s.batcher.batched_points;
    largest = std::max(largest, s.batcher.largest_batch);
    shed += s.batcher.shed;
    misses += s.batcher.deadline_misses;
    publishes += s.server.publishes;
    scanned += s.prune.groups_scanned;
    pruned += s.prune.groups_pruned;
    fallbacks += s.prune.exact_fallbacks;
  }
  report->Set("serving.batcher.mean_batch",
              batches > 0 ? static_cast<double>(points) / batches : 0.0);
  report->Set("serving.batcher.largest_batch", static_cast<double>(largest));
  report->Set("serving.batcher.shed", static_cast<double>(shed));
  report->Set("serving.batcher.deadline_misses", static_cast<double>(misses));
  report->Set("serving.publish.count", static_cast<double>(publishes));
  report->Set("serving.index.prune_ratio",
              scanned + pruned > 0
                  ? static_cast<double>(pruned) / (scanned + pruned)
                  : 0.0);
  report->Set("serving.index.fallbacks", static_cast<double>(fallbacks));
  report->Set("serving.index.build_ms", build_ms);

  // Direct, unbatched AssignOne on each tenant's snapshot: the compute
  // part of a served Assign. Read after the registry counters above,
  // because the snapshot's prune counters also count these calls.
  std::vector<double> direct_us;
  const kmeansll::trace::Span span("serving.index.assign_one");
  for (int64_t i = 0; i < 2048; ++i) {
    const ServedTenant& tenant = tenants[static_cast<size_t>(i) % tenants.size()];
    const double* point =
        tenant.queries->Row((i * 7919) % tenant.queries->rows());
    const Clock::time_point t = Clock::now();
    const NearestResult r = tenant.snapshot->AssignOne(point);
    direct_us.push_back(SecondsSince(t) * 1e6);
    if (r.index < 0) Fatal("AssignOne returned no center");
  }
  const double assign_us = Median(direct_us);
  report->Set("serving.index.assign_us", assign_us);
  // Only meaningful when the requests went through the batcher (train_*
  // and ingest_live score batches with AssignBulk, which bypasses it).
  report->Set("serving.batcher.wait_us",
              batches > 0 ? WindowedLatency(run.load, 50) - assign_us : 0.0);
  report->Set("serving.registry.topm_us",
              Percentile(run.load.latency_us[1], 50));
  report->Set("serving.p99_us", WindowedLatency(run.load, 99));
  report->Set("loadgen.late_p99_us", Percentile(run.load.late_us, 99));
  report->Set("loadgen.achieved_ops_s", run.load.achieved_ops_s);
}

namespace {

struct ServeShape {
  int64_t tenants = 8;
  int64_t k = 1024;
  int64_t dim = 64;
  int64_t queries = 4096;
};

struct Tenants {
  std::vector<Matrix> centers;
  std::vector<Matrix> queries;
};

Tenants GenerateTenants(const ServeShape& shape, uint64_t seed) {
  Tenants out;
  for (int64_t m = 0; m < shape.tenants; ++m) {
    kmeansll::data::GaussMixtureParams p;
    p.n = shape.queries;
    p.k = shape.k;
    p.dim = shape.dim;
    auto r = kmeansll::data::GenerateGaussMixture(
        p, kmeansll::rng::MakeRootRng(kmeansll::rng::HashCombine(
               seed, static_cast<uint64_t>(m))));
    if (!r.ok()) Fatal("generator: " + r.status().message());
    kmeansll::data::LabeledData data = std::move(r).ValueOrDie();
    out.centers.push_back(std::move(data.true_centers));
    out.queries.push_back(data.data.points());
  }
  return out;
}

std::string TenantName(int64_t m) { return "model" + std::to_string(m); }

// Builds every tenant's pruned index and registers it; appends one build
// time (ms) per tenant to `build_ms`.
std::unique_ptr<ServerRegistry> SetUpRegistry(const Tenants& gen,
                                              std::vector<ServedTenant>* out,
                                              std::vector<double>* build_ms) {
  auto registry = std::make_unique<ServerRegistry>();
  out->clear();
  for (size_t m = 0; m < gen.centers.size(); ++m) {
    std::shared_ptr<const CenterIndex> index;
    build_ms->push_back(1e3 * TimeCall("serving.index.build", [&] {
      index = CenterIndex::Build(gen.centers[m], ServingIndexOptions(),
                                 /*version=*/1);
    }));
    const std::string name = TenantName(static_cast<int64_t>(m));
    if (!registry->Register(name, index, ServingTenantOptions()).ok()) {
      Fatal("Register " + name + " failed");
    }
    out->push_back({name, index, &gen.queries[m]});
  }
  return registry;
}

// The op stream of one load segment; `segment` varies it between
// segments of a run.
WorkloadSpec MakeSpec(const ServeShape& shape, uint64_t seed, int segment) {
  WorkloadSpec spec;
  spec.num_models = shape.tenants;
  spec.model_theta = 0.99;
  spec.query_pool = shape.queries;
  spec.query_theta = 0.8;
  spec.mix = {0.95, 0.05, 0.0};
  spec.top_m = 4;
  spec.seed = kmeansll::rng::HashCombine(
      seed, 0x5E4E00 + static_cast<uint64_t>(segment));
  return spec;
}

// The same stream with top-m requests only: the closed-loop segments of
// the untraced run. (Through the batcher, the rate 3 closed-loop clients
// sustain is set by the wake-ups between leader and followers: over 10
// seeds it read 14.5k-35.3k/s, halving in a slow spell of the host that
// moved the index builds by ~10%. It is reported per layer as
// serving.batcher.max_ops_s.)
WorkloadSpec TopMSpec(const ServeShape& shape, uint64_t seed, int segment) {
  WorkloadSpec spec = MakeSpec(shape, seed, segment);
  spec.mix = {0.0, 1.0, 0.0};
  return spec;
}

LoadSpec MakeLoad(double rate, double seconds, uint64_t seed, int segment) {
  LoadSpec load;
  load.rate = rate;
  load.seconds = seconds;
  load.threads = 3;
  load.seed = kmeansll::rng::HashCombine(
      seed, static_cast<uint64_t>(rate) * 1000 + static_cast<uint64_t>(segment));
  return load;
}

void GateRun(const ServeRun& run, const std::string& what, Report* report) {
  report->CountOps(run.load.attempted, run.load.failed);
  report->Gate(run.mismatches == 0,
               what + ": answers equal CenterIndex::AssignOne (" +
                   std::to_string(run.mismatches) + " of " +
                   std::to_string(run.checked) + " differ)");
  report->Gate(!FellShort(run.load),
               what + ": load generator achieved >= 90% of the offered rate");
}

}  // namespace

void RunServeZipf(const RunOptions& opt, Report* report) {
  ServeShape shape;
  if (opt.smoke) {
    shape.tenants = 2;
    shape.k = 512;
    shape.dim = 16;
    shape.queries = 1024;
  }
  const Tenants gen = GenerateTenants(shape, opt.seed);

  std::vector<ServedTenant> tenants;
  std::vector<double> build_ms;
  std::vector<double> setups;
  std::unique_ptr<ServerRegistry> registry;
  const int repeats = opt.trace ? 1 : 7;
  for (int i = 0; i < repeats; ++i) {
    registry.reset();
    const Clock::time_point start = Clock::now();
    registry = SetUpRegistry(gen, &tenants, &build_ms);
    setups.push_back(SecondsSince(start));
  }

  // Rebuilding a tenant's index is this workload's model build: the
  // coarse k-means of the two-level index plus the panel pack.
  const auto rebuild = [&] {
    std::vector<double> ms;
    for (const Matrix& centers : gen.centers) {
      ms.push_back(1e3 * TimeCall("serving.index.build", [&] {
        CenterIndex::Build(centers, ServingIndexOptions(), /*version=*/2);
      }));
    }
    return ms;
  };

  if (!opt.trace) {
    ResetPeakRss();
    // The timed phase is a sequence of rounds. Each round rebuilds every
    // tenant's index once, serves one 2,000/s open-loop segment, and one
    // closed-loop segment in which the 3 clients send top-m requests back
    // to back, so a slow spell of the machine lands on a few samples of
    // every metric.
    const double segment_s = opt.smoke ? 0.1 : 0.5;
    const int rounds =
        opt.smoke ? 2 : std::max(3, static_cast<int>(0.7 * opt.seconds));
    std::vector<double> fit_ms, latency_us, topm_us, late_us, saturated;
    double d2_sum = 0, mean_d2_sum = 0;
    for (int round = 0; round < rounds; ++round) {
      const std::vector<double> ms = rebuild();
      fit_ms.insert(fit_ms.end(), ms.begin(), ms.end());
      const ServeRun base =
          ServeOpenLoop(registry.get(), tenants, MakeSpec(shape, opt.seed, round),
                        MakeLoad(2000, segment_s, opt.seed, round));
      GateRun(base, "2,000 requests/s", report);
      latency_us.insert(latency_us.end(), base.load.latency_us[0].begin(),
                        base.load.latency_us[0].end());
      topm_us.insert(topm_us.end(), base.load.latency_us[1].begin(),
                     base.load.latency_us[1].end());
      late_us.insert(late_us.end(), base.load.late_us.begin(),
                     base.load.late_us.end());
      d2_sum += base.d2_sum;
      mean_d2_sum += base.mean_d2_sum;
      // The rate the clients sustain on the unbatched top-m path.
      const ServeRun full = ServeOpenLoop(
          registry.get(), tenants, TopMSpec(shape, opt.seed, round),
          MakeLoad(0, segment_s, opt.seed, round));
      report->CountOps(full.load.attempted, full.load.failed);
      report->Gate(full.mismatches == 0,
                   "closed-loop top-m answers equal CenterIndex::AssignOne");
      saturated.push_back(full.load.achieved_ops_s);
    }
    const ServeRun hi =
        ServeOpenLoop(registry.get(), tenants, MakeSpec(shape, opt.seed, rounds),
                      MakeLoad(8000, segment_s, opt.seed, rounds));
    GateRun(hi, "8,000 requests/s", report);
    report->Set("peak_rss_mb", PeakRssMb());

    report->Set("fit_s", Median(fit_ms) * 1e-3);
    report->Set("cost_ratio", d2_sum / mean_d2_sum);
    report->Set("p50_us", WindowedPercentile(latency_us, 50));
    report->Note(Named("p99_us", WindowedPercentile(latency_us, 99), "us"));
    report->Set("throughput_per_s", Median(saturated));
    report->Set("setup_s", Median(setups));
    report->Note(DescribeSamples("Assign at 2,000/s", latency_us, "us"));
    report->Note(DescribeSamples("generator lateness at 2,000/s", late_us,
                                 "us"));
    report->Note(DescribeSamples("AssignTopM at 2,000/s", topm_us, "us"));
    report->Note(DescribeSamples("index build", fit_ms, "ms"));
    report->Note(DescribeSamples("setup_s", setups, "s"));
    report->Note(DescribeSamples("Assign at 8,000/s", hi.load.latency_us[0],
                                 "us"));
    report->Note(Named("p50_us_hi", WindowedLatency(hi.load, 50), "us"));
    report->Note(Named("p99_us_hi", WindowedLatency(hi.load, 99), "us"));
    report->Note(DescribeSamples("closed-loop top-m rate per round",
                                 saturated, "1/s"));
    return;
  }

  const double base_s = opt.smoke ? 0.3 : std::max(0.35 * opt.seconds, 1.0);
  const std::vector<double> untraced_ms = rebuild();
  kmeansll::trace::Tracer::Global().Enable();
  const std::vector<double> traced_ms = rebuild();
  const ServeRun base = ServeOpenLoop(registry.get(), tenants,
                                      MakeSpec(shape, opt.seed, 0),
                                      MakeLoad(2000, base_s, opt.seed, 0));
  GateRun(base, "2,000 requests/s", report);
  ReportServingLayers(*registry, tenants, base, Median(build_ms), report);
  const ServeRun hi = ServeOpenLoop(registry.get(), tenants,
                                    MakeSpec(shape, opt.seed, 1),
                                    MakeLoad(8000, base_s, opt.seed, 1));
  GateRun(hi, "8,000 requests/s", report);
  const ServeRun full = ServeOpenLoop(registry.get(), tenants,
                                      MakeSpec(shape, opt.seed, 2),
                                      MakeLoad(0, base_s, opt.seed, 2));
  report->CountOps(full.load.attempted, full.load.failed);
  report->Gate(full.mismatches == 0,
               "closed-loop answers equal CenterIndex::AssignOne");
  report->Set("serving.batcher.max_ops_s", full.load.achieved_ops_s);
  report->Set("serving.p50_us_hi", WindowedLatency(hi.load, 50));
  report->Set("serving.p99_us_hi", WindowedLatency(hi.load, 99));
  report->Set("trace.overhead_frac",
              Median(traced_ms) / Median(untraced_ms) - 1.0);
  report->Note(DescribeSamples("Assign at 2,000/s", base.load.latency_us[0],
                               "us"));
  report->Note(DescribeSamples("Assign at 8,000/s", hi.load.latency_us[0],
                               "us"));
}

}  // namespace perfbench
