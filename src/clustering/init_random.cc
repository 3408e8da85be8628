#include "clustering/init_random.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "rng/reservoir.h"

namespace kmeansll {

Result<InitResult> RandomInit(const DatasetSource& data, int64_t k,
                              rng::Rng rng) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  WallTimer timer;
  // Reservoir sampling gives k distinct indices in one pass and works
  // unchanged in a streaming/partitioned setting.
  rng::UniformReservoir reservoir(
      k, rng.Fork(rng::StreamPurpose::kInitialCenter));
  for (int64_t i = 0; i < data.n(); ++i) reservoir.Offer(i);
  std::vector<int64_t> chosen = reservoir.items();
  std::sort(chosen.begin(), chosen.end());

  InitResult result;
  result.centers = GatherPoints(data, chosen);
  result.telemetry.rounds = 0;
  result.telemetry.intermediate_centers = 0;
  result.telemetry.data_passes = 1;
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace kmeansll
