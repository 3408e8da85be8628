// Deterministic, splittable pseudo-random streams.
//
// Every stochastic component of the library draws from an explicit Rng.
// Substreams derived via Fork(purpose, index) are statistically independent
// and depend only on (root seed, purpose, index) — never on thread count or
// execution order — which is what makes the parallel algorithms
// bit-reproducible (docs/ARCHITECTURE.md "The determinism contract").
//
// Generator: xoshiro256** (Blackman & Vigna 2018), period 2^256 - 1.

#ifndef KMEANSLL_RNG_RNG_H_
#define KMEANSLL_RNG_RNG_H_

#include <cstdint>
#include <limits>

#include "common/macros.h"
#include "rng/splitmix64.h"

namespace kmeansll::rng {

/// Purpose tags keep substreams for different algorithm stages disjoint
/// even when they share an index (e.g. round number).
enum class StreamPurpose : uint64_t {
  kGeneral = 0,
  kInitialCenter = 1,
  kRoundSampling = 2,
  kRecluster = 3,
  kDataGeneration = 4,
  kShuffle = 5,
  kLloydRepair = 6,
  kPartitionGroup = 7,
  kTrial = 8,
  kWorkload = 9,
};

/// xoshiro256** stream with convenience draws. Copyable (copies fork the
/// full state — use Fork() for independent streams instead).
class Rng {
 public:
  /// Seeds the state by running SplitMix64 from `seed`.
  explicit Rng(uint64_t seed = 0xC0FFEE123456789ULL) { Reseed(seed); }

  void Reseed(uint64_t seed) {
    root_key_ = seed;
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) state_[i] = SplitMix64Next(&sm);
    // All-zero state is the one invalid xoshiro state; SplitMix64 cannot
    // produce four zero outputs from any seed, but keep the guard explicit.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
      state_[0] = 1;
    }
    cached_gaussian_valid_ = false;
  }

  /// Uniform 64-bit draw.
  uint64_t NextUInt64() {
    uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform draw in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound) {
    KMEANSLL_DCHECK(bound > 0);
    unsigned __int128 m =
        static_cast<unsigned __int128>(NextUInt64()) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(NextUInt64()) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double NextDouble() {
    return static_cast<double>(NextUInt64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Bernoulli draw; p <= 0 is always false, p >= 1 always true.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard normal via Marsaglia's polar method (pairs are cached).
  double NextGaussian() {
    if (cached_gaussian_valid_) {
      cached_gaussian_valid_ = false;
      return cached_gaussian_;
    }
    double u, v, s;
    do {
      u = NextDouble(-1.0, 1.0);
      v = NextDouble(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double scale = Sqrt(-2.0 * Log(s) / s);
    cached_gaussian_ = v * scale;
    cached_gaussian_valid_ = true;
    return u * scale;
  }

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Exponential with rate `lambda` (mean 1/lambda).
  double NextExponential(double lambda) {
    // 1 - NextDouble() is in (0, 1], so the log is finite.
    return -Log(1.0 - NextDouble()) / lambda;
  }

  /// Derives an independent substream keyed by (this stream's root,
  /// purpose, index). Deterministic: the same tuple always yields the same
  /// stream regardless of how much this stream has been consumed.
  Rng Fork(StreamPurpose purpose, uint64_t index = 0) const {
    uint64_t derived = HashCombine(
        root_key_, HashCombine(static_cast<uint64_t>(purpose), index));
    return Rng(derived);
  }

  /// The key identifying this stream's derivation point.
  uint64_t root_key() const { return root_key_; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // Wrappers keep <cmath> out of this hot header's public surface.
  static double Sqrt(double x);
  static double Log(double x);

  uint64_t state_[4];
  uint64_t root_key_ = 0xC0FFEE123456789ULL;
  double cached_gaussian_ = 0.0;
  bool cached_gaussian_valid_ = false;

  friend class RngFactory;
};

/// Produces the root stream for a given user seed.
inline Rng MakeRootRng(uint64_t seed) {
  Rng r(Mix64(seed));
  return r;
}

}  // namespace kmeansll::rng

#endif  // KMEANSLL_RNG_RNG_H_
