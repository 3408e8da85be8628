// Micro-benchmarks of the initializers: the pass-count economics the
// paper argues about, measured directly — k-means++'s k sequential scans
// vs k-means||'s r rounds vs Random vs Partition.

#include <benchmark/benchmark.h>

#include "clustering/init_kmeanspp.h"
#include "clustering/init_kmeansll.h"
#include "clustering/init_partition.h"
#include "clustering/init_random.h"
#include "common/macros.h"
#include "distance/nearest.h"
#include "rng/discrete.h"
#include "data/synthetic.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

const Dataset& BenchData() {
  static const Dataset* data = [] {
    auto generated = data::GenerateKddLike({.n = 8192, .dim = 42},
                                           rng::Rng(11));
    KMEANSLL_CHECK(generated.ok());
    return new Dataset(std::move(generated->data));
  }();
  return *data;
}

void BM_RandomInit(benchmark::State& state) {
  const int64_t k = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result = RandomInit(BenchData(), k, rng::Rng(++seed));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_RandomInit)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_KMeansPPInit(benchmark::State& state) {
  const int64_t k = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result = KMeansPPInit(BenchData(), k, rng::Rng(++seed));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansPPInit)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_KMeansLLInit(benchmark::State& state) {
  const int64_t k = state.range(0);
  KMeansLLOptions options;
  options.oversampling = 2.0 * static_cast<double>(k);
  options.rounds = 5;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result = KMeansLLInit(BenchData(), k, rng::Rng(++seed), options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansLLInit)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionInit(benchmark::State& state) {
  const int64_t k = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result = PartitionInit(BenchData(), k, rng::Rng(++seed));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PartitionInit)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Ablation: incremental min-distance maintenance vs
// naive full recomputation for k-means++. The naive variant rebuilds all
// distances against the full center set each step — O(nk²d) total.
void BM_KMeansPPNaiveRecompute(benchmark::State& state) {
  const int64_t k = state.range(0);
  const Dataset& data = BenchData();
  uint64_t seed = 0;
  for (auto _ : state) {
    rng::Rng rng(++seed);
    Matrix centers(data.dim());
    centers.AppendRow(
        data.Point(static_cast<int64_t>(rng.NextBounded(data.n()))));
    for (int64_t t = 1; t < k; ++t) {
      // Full recomputation of d²(x, C) for every point.
      MinDistanceTracker tracker(data);
      tracker.AddCenters(centers, 0);
      std::vector<double> weights = tracker.WeightedContributions();
      auto sampler = rng::PrefixSumSampler::Build(weights);
      if (!sampler.ok()) break;
      centers.AppendRow(data.Point(sampler->Sample(rng)));
    }
    benchmark::DoNotOptimize(centers.rows());
  }
}
BENCHMARK(BM_KMeansPPNaiveRecompute)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Greedy k-means++ (candidates per step) cost scaling.
void BM_KMeansPPGreedy(benchmark::State& state) {
  const int64_t candidates = state.range(0);
  KMeansPPOptions options;
  options.candidates_per_step = candidates;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result =
        KMeansPPInit(BenchData(), 20, rng::Rng(++seed), options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansPPGreedy)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kmeansll
