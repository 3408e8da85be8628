// Table 2 of the paper: median cost (seed and final) on Spam for
// k ∈ {20, 50, 100}; Random, k-means++, k-means|| (ℓ = k/2 and ℓ = 2k,
// r = 5). Costs scaled down by 10^5 as in the paper.
//
// The dataset is the SpamLike stand-in (data/synthetic.h): same 4601 × 58
// shape, heavy-tailed features, outliers.
//
// Expected shape: seeded methods orders of magnitude below Random; the
// two k-means|| settings bracket k-means++ on seed cost; finals agree.

#include <vector>

#include "bench_util.h"

namespace kmeansll::bench {
namespace {

struct MethodSpec {
  std::string name;
  InitMethod init;
  double oversampling_factor = 0.0;  // ℓ = factor · k for k-means||
};

void Run(int argc, char** argv) {
  eval::Args args(argc, argv);
  const int64_t n = DataSize(args, 4601);
  const int64_t trials = Trials(args, 5);
  const double scale = 1e5;

  data::SpamLikeParams params;
  params.n = n;
  auto generated = data::GenerateSpamLike(params, rng::Rng(777));
  generated.status().Abort("SpamLike generation");
  const Dataset& data = generated->data;

  PrintHeader("Table 2: Spam (synthetic stand-in)",
              "n=" + std::to_string(n) + ", d=58, " +
                  std::to_string(trials) +
                  " trials (paper: 11), costs scaled by 1e5");

  const std::vector<MethodSpec> methods = {
      {"Random", InitMethod::kRandom},
      {"k-means++", InitMethod::kKMeansPP},
      {"k-means|| l=k/2 r=5", InitMethod::kKMeansParallel, 0.5},
      {"k-means|| l=2k r=5", InitMethod::kKMeansParallel, 2.0},
  };

  eval::TablePrinter table({"method", "k=20 seed", "k=20 final",
                            "k=50 seed", "k=50 final", "k=100 seed",
                            "k=100 final"});
  std::vector<std::vector<std::string>> rows(methods.size());
  for (size_t m = 0; m < methods.size(); ++m) {
    rows[m].push_back(methods[m].name);
  }

  for (int64_t k : {int64_t{20}, int64_t{50}, int64_t{100}}) {
    for (size_t m = 0; m < methods.size(); ++m) {
      auto summaries = eval::RunMultiTrials(trials, [&](int64_t t) {
        KMeansConfig config;
        config.k = k;
        config.init = methods[m].init;
        config.seed = 8100 + static_cast<uint64_t>(t);
        config.kmeansll.oversampling =
            methods[m].oversampling_factor * static_cast<double>(k);
        config.kmeansll.rounds = 5;
        config.lloyd.max_iterations = 300;
        KMeansReport report = Fit(data, config);
        return std::vector<double>{report.seed_cost, report.final_cost};
      });
      rows[m].push_back(methods[m].init == InitMethod::kRandom
                            ? "--"
                            : eval::CellScaled(summaries[0].median, scale, 1));
      rows[m].push_back(eval::CellScaled(summaries[1].median, scale, 1));
    }
  }

  for (auto& row : rows) table.AddRow(std::move(row));
  Emit(table, "table2_spam");
}

}  // namespace
}  // namespace kmeansll::bench

int main(int argc, char** argv) {
  kmeansll::bench::Run(argc, argv);
  return 0;
}
