// Ablations of the library's design decisions, beyond the kernel/sampler
// micro-benchmarks:
//
//   1. Step-8 reclustering: pure weighted k-means++ (the paper's text)
//      vs + weighted Lloyd refinement on the coreset (our default, the
//      Spark MLlib practice) — seed cost and end-to-end cost.
//   2. Bernoulli sampling (Algorithm 2 as stated) vs exact-ℓ joint draws
//      (§5.3's variance-controlled variant) — seed cost and intermediate
//      set size.
//   3. The theoretical O(log ψ) round schedule (kAutoRounds) vs the
//      practical r = 5 — cost and passes, quantifying the paper's "five
//      rounds suffice" claim.

#include <vector>

#include "bench_util.h"
#include "common/logging.h"

namespace kmeansll::bench {
namespace {

void Run(int argc, char** argv) {
  eval::Args args(argc, argv);
  const int64_t n = DataSize(args, 10000);
  const int64_t k = args.GetInt("k", 50);
  const int64_t trials = Trials(args, 5);
  SetLogLevel(LogLevel::kError);

  data::GaussMixtureParams params;
  params.n = n;
  params.k = k;
  params.dim = 15;
  params.center_stddev = 10.0;
  auto generated = data::GenerateGaussMixture(params, rng::Rng(5150));
  generated.status().Abort("GaussMixture generation");
  const Dataset& data = generated->data;

  PrintHeader("Design ablations (k-means||)",
              "GaussMixture n=" + std::to_string(n) +
                  ", d=15, k=" + std::to_string(k) + ", " +
                  std::to_string(trials) + " trials, l=2k");

  struct Variant {
    std::string name;
    ReclusterMethod recluster;
    bool exact_ell;
    int64_t rounds;  // kAutoRounds for the theoretical schedule
  };
  const std::vector<Variant> variants = {
      {"recluster=km++ (paper text)", ReclusterMethod::kWeightedKMeansPP,
       false, 5},
      {"recluster=km+++lloyd (default)",
       ReclusterMethod::kWeightedKMeansPPPlusLloyd, false, 5},
      {"sampling=bernoulli r=5",
       ReclusterMethod::kWeightedKMeansPPPlusLloyd, false, 5},
      {"sampling=exact-l r=5",
       ReclusterMethod::kWeightedKMeansPPPlusLloyd, true, 5},
      {"rounds=auto O(log psi)",
       ReclusterMethod::kWeightedKMeansPPPlusLloyd, false,
       KMeansLLOptions::kAutoRounds},
      {"rounds=5 (paper practice)",
       ReclusterMethod::kWeightedKMeansPPPlusLloyd, false, 5},
  };

  eval::TablePrinter table({"variant", "seed cost", "final cost",
                            "intermediate", "rounds", "passes"});
  for (const Variant& variant : variants) {
    auto summaries = eval::RunMultiTrials(trials, [&](int64_t t) {
      KMeansConfig config;
      config.k = k;
      config.init = InitMethod::kKMeansParallel;
      config.seed = 4200 + static_cast<uint64_t>(t);
      config.kmeansll.oversampling = 2.0 * static_cast<double>(k);
      config.kmeansll.rounds = variant.rounds;
      config.kmeansll.exact_ell = variant.exact_ell;
      config.kmeansll.recluster = variant.recluster;
      config.lloyd.max_iterations = 100;
      KMeansReport report = Fit(data, config);
      return std::vector<double>{
          report.seed_cost, report.final_cost,
          static_cast<double>(report.init.intermediate_centers),
          static_cast<double>(report.init.rounds),
          static_cast<double>(report.init.data_passes)};
    });
    table.AddRow({variant.name, eval::Cell(summaries[0].median, 3),
                  eval::Cell(summaries[1].median, 3),
                  eval::CellInt(static_cast<int64_t>(summaries[2].median)),
                  eval::CellInt(static_cast<int64_t>(summaries[3].median)),
                  eval::CellInt(static_cast<int64_t>(summaries[4].median))});
  }
  Emit(table, "ablation_design");
}

}  // namespace
}  // namespace kmeansll::bench

int main(int argc, char** argv) {
  kmeansll::bench::Run(argc, argv);
  return 0;
}
