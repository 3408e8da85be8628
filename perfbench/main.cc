// perfbench_runner: the repository benchmark (see README.md).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--work-dir DIR] [--out-dir DIR]
//
// Runs one workload from a single process. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it enables the span tracer, runs the
// per-layer calls, prints the per-layer metrics, and writes the run's
// Chrome trace (Perfetto) and Prometheus dump to --out-dir. The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness gate passed; a failure
// of the harness itself (bad arguments, unwritable work dir) exits 2
// without a result.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unistd.h>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every workload reports every metric below; see README.md for what
// each one means on each workload.
const std::vector<Report::Spec> kEndToEnd = {
    {"fit_s", "s"},
    {"cost_ratio", "ratio"},
    {"p50_us", "us"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<Report::Spec> kPerLayer = {
    // clustering
    {"clustering.seed_s", "s"},
    {"clustering.sample_s", "s"},
    {"clustering.recluster_s", "s"},
    {"clustering.recluster_share", "ratio"},
    {"clustering.candidates", "count"},
    {"clustering.seed_passes", "count"},
    {"clustering.seed_cost_ratio", "ratio"},
    {"clustering.lloyd_s", "s"},
    {"clustering.lloyd_iters", "count"},
    {"clustering.lloyd_s_per_iter", "s"},
    {"fit.traced_s", "s"},
    {"fit.accounted_frac", "ratio"},
    // distance
    {"distance.assign_gpairs_s", "Gpair/s"},
    {"distance.assign_gflops", "GFLOP/s"},
    {"distance.assign_gpairs_s_pool1", "Gpair/s"},
    {"distance.assign_gflops_pool1", "GFLOP/s"},
    // parallel
    {"parallel.fit_speedup", "ratio"},
    // data/shard_store
    {"data.shard.stall_s", "s"},
    {"data.shard.maps", "count"},
    {"data.shard.evictions", "count"},
    {"data.shard.prefetch_hit_ratio", "ratio"},
    {"data.shard.prefetch_wasted", "count"},
    {"data.shard.peak_resident_mb", "MB"},
    {"data.shard.scan_slowdown", "ratio"},
    {"data.shard.write_s", "s"},
    {"data.shard.open_s", "s"},
    {"data.shard.first_scan_s", "s"},
    // data/live_dataset, data/oplog
    {"data.ingest.append_us_p50", "us"},
    {"data.ingest.append_us_p99", "us"},
    {"data.ingest.seal_ms", "ms"},
    {"data.ingest.backpressure", "count"},
    {"data.oplog.syncs", "count"},
    {"ingest.accounted_frac", "ratio"},
    // serving/center_index
    {"serving.index.build_ms", "ms"},
    {"serving.index.assign_us", "us"},
    {"serving.index.prune_ratio", "ratio"},
    {"serving.index.fallbacks", "count"},
    // serving/model_server
    {"serving.batcher.mean_batch", "count"},
    {"serving.batcher.largest_batch", "count"},
    {"serving.batcher.shed", "count"},
    {"serving.batcher.deadline_misses", "count"},
    {"serving.batcher.wait_us", "us"},
    {"serving.batcher.max_ops_s", "1/s"},
    {"serving.publish.count", "count"},
    // serving/server_registry
    {"serving.registry.topm_us", "us"},
    {"serving.p99_us", "us"},
    {"serving.p50_us_hi", "us"},
    {"serving.p99_us_hi", "us"},
    // serving/freshness
    {"serving.refine.cycles", "count"},
    {"serving.refine.minibatch", "count"},
    {"serving.refine.reseeds", "count"},
    {"serving.refine.cycle_ms_p50", "ms"},
    {"serving.refine.cycle_ms_max", "ms"},
    {"serving.refine.reseed_ms", "ms"},
    // load generator and tracing
    {"loadgen.late_p99_us", "us"},
    {"loadgen.achieved_ops_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.dropped", "count"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "{train_wide_k|train_sharded_tall|serve_zipf|ingest_live} "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--work-dir DIR] [--out-dir DIR]\n");
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--smoke") {
      if (i + 1 >= argc) Usage();
      value = argv[++i];
    }
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--smoke") {
      opt.smoke = true;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      Usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) Usage();
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/work";
  if (opt.out_dir.empty()) opt.out_dir = ".bench_build/traces";
  return opt;
}

int Main(int argc, char** argv) {
  RunOptions opt = ParseArgs(argc, argv);
  void (*run)(const RunOptions&, Report*) = nullptr;
  if (opt.workload == "train_wide_k") run = RunTrainWideK;
  if (opt.workload == "train_sharded_tall") run = RunTrainShardedTall;
  if (opt.workload == "serve_zipf") run = RunServeZipf;
  if (opt.workload == "ingest_live") run = RunIngestLive;
  if (run == nullptr) Usage();

  // Temporary files of this run live in their own directory, removed at
  // the end; nothing is written outside work_dir and out_dir.
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(getpid());
  RemoveTree(opt.work_dir);
  MakeDirs(opt.work_dir);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.smoke ? " (smoke sizes)" : "");
  std::fflush(stdout);

  Report report(kEndToEnd, kPerLayer);
  auto& tracer = kmeansll::trace::Tracer::Global();
  run(opt, &report);
  RemoveTree(opt.work_dir);

  if (opt.trace) {
    tracer.Disable();
    report.Set("trace.spans", static_cast<double>(tracer.RecordedCount()));
    report.Set("trace.dropped", static_cast<double>(tracer.DroppedCount()));
    MakeDirs(opt.out_dir);
    const std::string trace_path =
        opt.out_dir + "/trace_" + opt.workload + ".json";
    if (!tracer.WriteChromeJson(trace_path).ok()) {
      Fatal("cannot write " + trace_path);
    }
    const std::string prom_path =
        opt.out_dir + "/metrics_" + opt.workload + ".prom";
    std::ofstream(prom_path)
        << kmeansll::MetricsRegistry::Global().DumpPrometheusText();
    report.Note("trace written to " + trace_path + " (open in Perfetto)");
  }
  const bool complete = report.Print(opt.trace);
  return complete && report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
