#include "distance/batch.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/macros.h"
#include "distance/l2.h"

namespace kmeansll {

namespace {

// The engine packs each block of kCenterTile center rows into a t-major
// "panel": panel[t * kCenterTile + j] = centers(c_begin + j, t). In the
// packed layout the innermost step touches kCenterTile contiguous
// accumulators — per-center chains that are mutually independent — so the
// SIMD kernels below get full-width FMA without reordering any one
// chain's additions. Each (point, center) value is still accumulated in a
// single chain in coordinate order, so results do not depend on tile
// placement, panel residue, or thread count.
//
// Three kernel sets exist: portable scalar, AVX2+FMA, and — for full
// panels only — AVX-512F. One is selected once at startup via
// __builtin_cpu_supports, so the default build stays baseline-ISA while
// capable machines get 4- or 8-wide FMA. The dispatch is per machine, so
// results depend on neither the run nor the thread count. Every kernel
// reproduces PairSquaredL2 / PairDotProduct of the machine it runs on:
// the AVX-512 and AVX2 lanes run the identical fma chain and produce the
// same bytes, and the scalar kernels (only where FMA is absent) match the
// unfused pair chains used there.

// Dot products of two point rows against one full packed panel:
// acc{0,1}[j] += x{0,1}[t] * panel[t][j]. 2 points × 4 vector
// accumulators gives the FMA units 8 independent chains — enough to run
// at throughput instead of latency — while staying within 16 registers.
void DotPanel2Generic(const double* x0, const double* x1,
                      const double* panel, int64_t d, double* acc0,
                      double* acc1) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double x0t = x0[t];
    const double x1t = x1[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      acc0[j] += x0t * row[j];
      acc1[j] += x1t * row[j];
    }
  }
}

void DotPanel1Generic(const double* x, const double* panel, int64_t d,
                      double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double xt = x[t];
    for (int64_t j = 0; j < kCenterTile; ++j) acc[j] += xt * row[j];
  }
}

// Plain subtract-square panels: acc[j] += (x[t] - panel[t][j])².
void SqPanel2Generic(const double* x0, const double* x1,
                     const double* panel, int64_t d, double* acc0,
                     double* acc1) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double x0t = x0[t];
    const double x1t = x1[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      double e0 = x0t - row[j];
      acc0[j] += e0 * e0;
      double e1 = x1t - row[j];
      acc1[j] += e1 * e1;
    }
  }
}

void SqPanel1Generic(const double* x, const double* panel, int64_t d,
                     double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const double xt = x[t];
    for (int64_t j = 0; j < kCenterTile; ++j) {
      double e = xt - row[j];
      acc[j] += e * e;
    }
  }
}

// Narrow-panel variant for the trailing k % kCenterTile centers (panel
// stride = width), one point row at a time. Runtime trip count; padding
// the residue to a full panel would make small-k callers (k-means++ adds
// one center at a time) pay kCenterTile× the flops, so the residue is
// computed exactly. On FMA machines the residue runs the point-grouped
// kernel below instead, so the per-pair chain is the same in the residue
// as in the micro-kernel on every machine.
template <bool kPlain>
void PanelTailGeneric(const double* x, const double* panel, int64_t d,
                      int64_t width, double* acc) {
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    const double xt = x[t];
    for (int64_t j = 0; j < width; ++j) {
      if constexpr (kPlain) {
        double e = xt - row[j];
        acc[j] += e * e;
      } else {
        acc[j] += xt * row[j];
      }
    }
  }
}

// Point rows per call of the full-panel AVX-512 kernel. Dividing the
// point tile means only a range's last tile has rows left over.
inline constexpr int kWideRows = 8;
static_assert(kPointTile % kWideRows == 0);

#if defined(__x86_64__)

static_assert(kCenterTile == 16,
              "AVX2 panel kernels assume 4 × 4-double accumulators");

__attribute__((target("avx2,fma"))) void DotPanel2Avx2(
    const double* x0, const double* x1, const double* panel, int64_t d,
    double* acc0, double* acc1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d r0 = _mm256_loadu_pd(row);
    const __m256d r1 = _mm256_loadu_pd(row + 4);
    const __m256d r2 = _mm256_loadu_pd(row + 8);
    const __m256d r3 = _mm256_loadu_pd(row + 12);
    const __m256d xv0 = _mm256_broadcast_sd(x0 + t);
    const __m256d xv1 = _mm256_broadcast_sd(x1 + t);
    a00 = _mm256_fmadd_pd(xv0, r0, a00);
    a01 = _mm256_fmadd_pd(xv0, r1, a01);
    a02 = _mm256_fmadd_pd(xv0, r2, a02);
    a03 = _mm256_fmadd_pd(xv0, r3, a03);
    a10 = _mm256_fmadd_pd(xv1, r0, a10);
    a11 = _mm256_fmadd_pd(xv1, r1, a11);
    a12 = _mm256_fmadd_pd(xv1, r2, a12);
    a13 = _mm256_fmadd_pd(xv1, r3, a13);
  }
  _mm256_storeu_pd(acc0, a00);
  _mm256_storeu_pd(acc0 + 4, a01);
  _mm256_storeu_pd(acc0 + 8, a02);
  _mm256_storeu_pd(acc0 + 12, a03);
  _mm256_storeu_pd(acc1, a10);
  _mm256_storeu_pd(acc1 + 4, a11);
  _mm256_storeu_pd(acc1 + 8, a12);
  _mm256_storeu_pd(acc1 + 12, a13);
}

__attribute__((target("avx2,fma"))) void DotPanel1Avx2(const double* x,
                                                       const double* panel,
                                                       int64_t d,
                                                       double* acc) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d xv = _mm256_broadcast_sd(x + t);
    a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row), a0);
    a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 4), a1);
    a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 8), a2);
    a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(row + 12), a3);
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}

__attribute__((target("avx2,fma"))) void SqPanel2Avx2(
    const double* x0, const double* x1, const double* panel, int64_t d,
    double* acc0, double* acc1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d r0 = _mm256_loadu_pd(row);
    const __m256d r1 = _mm256_loadu_pd(row + 4);
    const __m256d r2 = _mm256_loadu_pd(row + 8);
    const __m256d r3 = _mm256_loadu_pd(row + 12);
    const __m256d xv0 = _mm256_broadcast_sd(x0 + t);
    const __m256d xv1 = _mm256_broadcast_sd(x1 + t);
    __m256d e;
    e = _mm256_sub_pd(xv0, r0);
    a00 = _mm256_fmadd_pd(e, e, a00);
    e = _mm256_sub_pd(xv0, r1);
    a01 = _mm256_fmadd_pd(e, e, a01);
    e = _mm256_sub_pd(xv0, r2);
    a02 = _mm256_fmadd_pd(e, e, a02);
    e = _mm256_sub_pd(xv0, r3);
    a03 = _mm256_fmadd_pd(e, e, a03);
    e = _mm256_sub_pd(xv1, r0);
    a10 = _mm256_fmadd_pd(e, e, a10);
    e = _mm256_sub_pd(xv1, r1);
    a11 = _mm256_fmadd_pd(e, e, a11);
    e = _mm256_sub_pd(xv1, r2);
    a12 = _mm256_fmadd_pd(e, e, a12);
    e = _mm256_sub_pd(xv1, r3);
    a13 = _mm256_fmadd_pd(e, e, a13);
  }
  _mm256_storeu_pd(acc0, a00);
  _mm256_storeu_pd(acc0 + 4, a01);
  _mm256_storeu_pd(acc0 + 8, a02);
  _mm256_storeu_pd(acc0 + 12, a03);
  _mm256_storeu_pd(acc1, a10);
  _mm256_storeu_pd(acc1 + 4, a11);
  _mm256_storeu_pd(acc1 + 8, a12);
  _mm256_storeu_pd(acc1 + 12, a13);
}

__attribute__((target("avx2,fma"))) void SqPanel1Avx2(const double* x,
                                                      const double* panel,
                                                      int64_t d,
                                                      double* acc) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m256d xv = _mm256_broadcast_sd(x + t);
    __m256d e;
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row));
    a0 = _mm256_fmadd_pd(e, e, a0);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 4));
    a1 = _mm256_fmadd_pd(e, e, a1);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 8));
    a2 = _mm256_fmadd_pd(e, e, a2);
    e = _mm256_sub_pd(xv, _mm256_loadu_pd(row + 12));
    a3 = _mm256_fmadd_pd(e, e, a3);
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}

// Single-pair chains matching the panel kernels lane-for-lane: one
// accumulator, coordinate order, hardware FMA. A lane of the AVX2 panel
// kernels performs acc = fma(x[t], c[t], acc) (dot) or
// acc = fma(e, e, acc) with e = x[t] − c[t] (plain) per coordinate;
// __builtin_fma inside a target("fma") function lowers to the same
// vfmadd, so these reproduce the batched values bitwise.
__attribute__((target("fma"))) double PairDotFma(const double* a,
                                                 const double* b,
                                                 int64_t dim) {
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) acc = __builtin_fma(a[t], b[t], acc);
  return acc;
}

__attribute__((target("fma"))) double PairSqFma(const double* a,
                                                const double* b,
                                                int64_t dim) {
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) {
    double e = a[t] - b[t];
    acc = __builtin_fma(e, e, acc);
  }
  return acc;
}

// Residue micro-kernel: P point rows against the narrow trailing panel
// (width < kCenterTile, stride = width), V = ceil(width / 4) vector
// accumulators per row. One residue center per row leaves a single
// latency-bound chain, so the kernel interleaves point rows instead:
// P·V independent chains (8 for widths up to 8, 6–8 above) keep the FMA
// units at throughput. Each lane is still one (point, center) pair
// accumulated with fma in coordinate order from 0.0 — the full-panel
// lane chain — so values do not depend on how rows are grouped. Only the
// last vector can be partial; its masked lanes load as zero, never touch
// memory past the row, and land in acc slots the caller does not read.
// Row r's results go to acc[r * kCenterTile + j].
template <int P, int V, bool kPlain>
__attribute__((target("avx2,fma"))) void PanelTailAvx2(
    const double* const* x, const double* panel, int64_t d, int64_t width,
    double* acc) {
  const __m256i last_mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(width - 4 * (V - 1)), _mm256_setr_epi64x(0, 1, 2, 3));
  // Full unrolling keeps a[][] in registers (GCC otherwise mirrors it
  // to the stack on every step).
  __m256d a[P][V];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) a[p][v] = _mm256_setzero_pd();
  }
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * width;
    __m256d r[V];
#pragma GCC unroll 4
    for (int v = 0; v + 1 < V; ++v) r[v] = _mm256_loadu_pd(row + 4 * v);
    r[V - 1] = _mm256_maskload_pd(row + 4 * (V - 1), last_mask);
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p) {
      const __m256d xv = _mm256_broadcast_sd(x[p] + t);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        if constexpr (kPlain) {
          const __m256d e = _mm256_sub_pd(xv, r[v]);
          a[p][v] = _mm256_fmadd_pd(e, e, a[p][v]);
        } else {
          a[p][v] = _mm256_fmadd_pd(xv, r[v], a[p][v]);
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_pd(acc + p * kCenterTile + 4 * v, a[p][v]);
    }
  }
}

// Full-panel AVX-512 micro-kernel: kWideRows point rows × one full panel,
// two zmm accumulators per row — 16 independent FMA chains, plus two
// panel loads and a broadcast, well inside the 32 zmm registers. Each
// lane is the AVX2 kernels' (point, center) chain, fma from 0.0 in
// coordinate order, so the values are bitwise theirs.
//
// The call also finishes in registers what PanelScan does in scalar code
// after the 2- and 1-row kernels. Expanded sums become clamped distances
// (pn + cn[j]) − (acc[j] + acc[j]): the doubling is exactly 2.0·acc[j],
// and unlike a multiply it cannot be contracted into an fma that would
// round differently. Max with +0.0 returns +0.0 for NaN and −0.0,
// exactly like `v > 0.0 ? v : 0.0`. Row r's distances go to
// d2[r * kCenterTile + j], and bit j of mask[r] is set iff distance j is
// strictly below bound[r]. The compare is ordered, so a NaN lane is never
// set — just as it never passes a merge's strict <.
template <bool kPlain>
__attribute__((target("avx512f"))) void FullPanelAvx512(
    const double* const* x, const double* panel, int64_t d,
    const double* pn, const double* cn, const double* bound, double* d2,
    uint32_t* mask) {
  __m512d a[kWideRows][2];
#pragma GCC unroll 8
  for (int r = 0; r < kWideRows; ++r) {
    a[r][0] = _mm512_setzero_pd();
    a[r][1] = _mm512_setzero_pd();
  }
  for (int64_t t = 0; t < d; ++t) {
    const double* row = panel + t * kCenterTile;
    const __m512d r0 = _mm512_loadu_pd(row);
    const __m512d r1 = _mm512_loadu_pd(row + 8);
#pragma GCC unroll 8
    for (int r = 0; r < kWideRows; ++r) {
      const __m512d xv = _mm512_set1_pd(x[r][t]);
      if constexpr (kPlain) {
        const __m512d e0 = _mm512_sub_pd(xv, r0);
        const __m512d e1 = _mm512_sub_pd(xv, r1);
        a[r][0] = _mm512_fmadd_pd(e0, e0, a[r][0]);
        a[r][1] = _mm512_fmadd_pd(e1, e1, a[r][1]);
      } else {
        a[r][0] = _mm512_fmadd_pd(xv, r0, a[r][0]);
        a[r][1] = _mm512_fmadd_pd(xv, r1, a[r][1]);
      }
    }
  }
  const __m512d zero = _mm512_setzero_pd();
  __m512d cn0 = zero, cn1 = zero;
  if constexpr (!kPlain) {
    cn0 = _mm512_loadu_pd(cn);
    cn1 = _mm512_loadu_pd(cn + 8);
  }
#pragma GCC unroll 8
  for (int r = 0; r < kWideRows; ++r) {
    __m512d v0 = a[r][0], v1 = a[r][1];
    if constexpr (!kPlain) {
      const __m512d p = _mm512_set1_pd(pn[r]);
      // All-lanes maskz max is plain vmaxpd; the unmasked intrinsic
      // trips a spurious -Wuninitialized in GCC 12's header.
      v0 = _mm512_maskz_max_pd(0xFF,
                               _mm512_sub_pd(_mm512_add_pd(p, cn0),
                                             _mm512_add_pd(v0, v0)),
                               zero);
      v1 = _mm512_maskz_max_pd(0xFF,
                               _mm512_sub_pd(_mm512_add_pd(p, cn1),
                                             _mm512_add_pd(v1, v1)),
                               zero);
    }
    _mm512_storeu_pd(d2 + r * kCenterTile, v0);
    _mm512_storeu_pd(d2 + r * kCenterTile + 8, v1);
    const __m512d b = _mm512_set1_pd(bound[r]);
    mask[r] = static_cast<uint32_t>(_mm512_cmp_pd_mask(v0, b, _CMP_LT_OQ)) |
              static_cast<uint32_t>(_mm512_cmp_pd_mask(v1, b, _CMP_LT_OQ))
                  << 8;
  }
}

bool DetectAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
// AVX-512F implies FMA; requiring AVX2 too keeps the leftover rows and
// the residue panel on the AVX2 kernels' chain.
bool DetectAvx512() {
  return DetectAvx2Fma() && __builtin_cpu_supports("avx512f");
}
const bool kUseAvx2 = DetectAvx2Fma();
const bool kUseAvx512 = DetectAvx512();

#else
constexpr bool kUseAvx2 = false;
constexpr bool kUseAvx512 = false;
template <bool kPlain>
inline void FullPanelAvx512(const double* const*, const double*, int64_t,
                            const double*, const double*, const double*,
                            double*, uint32_t*) {}
inline void DotPanel2Avx2(const double*, const double*, const double*,
                          int64_t, double*, double*) {}
inline void DotPanel1Avx2(const double*, const double*, int64_t, double*) {}
inline void SqPanel2Avx2(const double*, const double*, const double*,
                         int64_t, double*, double*) {}
inline void SqPanel1Avx2(const double*, const double*, int64_t, double*) {}
inline double PairDotFma(const double*, const double*, int64_t) {
  return 0.0;
}
inline double PairSqFma(const double*, const double*, int64_t) {
  return 0.0;
}
template <int P, int V, bool kPlain>
inline void PanelTailAvx2(const double* const*, const double*, int64_t,
                          int64_t, double*) {}
#endif  // defined(__x86_64__)

// Dispatch wrappers. The AVX2 kernels store their register accumulators
// over `acc`; the generic kernels accumulate in place, so the wrappers
// zero-fill for them.
inline void DotPanel2(const double* x0, const double* x1,
                      const double* panel, int64_t d, double* acc0,
                      double* acc1) {
  if (kUseAvx2) {
    DotPanel2Avx2(x0, x1, panel, d, acc0, acc1);
  } else {
    std::memset(acc0, 0, kCenterTile * sizeof(double));
    std::memset(acc1, 0, kCenterTile * sizeof(double));
    DotPanel2Generic(x0, x1, panel, d, acc0, acc1);
  }
}

inline void DotPanel1(const double* x, const double* panel, int64_t d,
                      double* acc) {
  if (kUseAvx2) {
    DotPanel1Avx2(x, panel, d, acc);
  } else {
    std::memset(acc, 0, kCenterTile * sizeof(double));
    DotPanel1Generic(x, panel, d, acc);
  }
}

inline void SqPanel2(const double* x0, const double* x1,
                     const double* panel, int64_t d, double* acc0,
                     double* acc1) {
  if (kUseAvx2) {
    SqPanel2Avx2(x0, x1, panel, d, acc0, acc1);
  } else {
    std::memset(acc0, 0, kCenterTile * sizeof(double));
    std::memset(acc1, 0, kCenterTile * sizeof(double));
    SqPanel2Generic(x0, x1, panel, d, acc0, acc1);
  }
}

inline void SqPanel1(const double* x, const double* panel, int64_t d,
                     double* acc) {
  if (kUseAvx2) {
    SqPanel1Avx2(x, panel, d, acc);
  } else {
    std::memset(acc, 0, kCenterTile * sizeof(double));
    SqPanel1Generic(x, panel, d, acc);
  }
}

// Point rows per residue-kernel call for a residue panel of `width`
// centers (see PanelTailAvx2). 2, 4 and 8 all divide kPointTile, so a
// group never straddles a point tile.
inline constexpr int64_t kMaxTailRows = 8;
inline int64_t TailGroupRows(int64_t width) {
  return width <= 4 ? 8 : width <= 8 ? 4 : 2;
}

// Residue panel against a group of TailGroupRows(width) point rows
// x[0..group), of which the first `live` are wanted; row r's values land
// in acc[r * kCenterTile + j]. The caller fills a short final group by
// repeating a row: the AVX2 kernel computes the copies (free at
// throughput), the scalar loop skips them.
template <bool kPlain>
void PanelTail(const double* const* x, int64_t live, const double* panel,
               int64_t d, int64_t width, double* acc) {
  if (kUseAvx2) {
    switch ((width + 3) / 4) {
      case 1: PanelTailAvx2<8, 1, kPlain>(x, panel, d, width, acc); break;
      case 2: PanelTailAvx2<4, 2, kPlain>(x, panel, d, width, acc); break;
      case 3: PanelTailAvx2<2, 3, kPlain>(x, panel, d, width, acc); break;
      default: PanelTailAvx2<2, 4, kPlain>(x, panel, d, width, acc); break;
    }
    return;
  }
  for (int64_t r = 0; r < live; ++r) {
    double* out = acc + r * kCenterTile;
    std::memset(out, 0, static_cast<size_t>(width) * sizeof(double));
    PanelTailGeneric<kPlain>(x[r], panel, d, width, out);
  }
}

// --- Shared loop nest --------------------------------------------------
//
// PanelScan drives the tiling and micro-kernel dispatch once for every
// reduction. For each (point, panel) visit it produces the panel's final
// squared distances (expanded values converted and clamped exactly like
// the legacy merge step) in a stack buffer and hands them to `merge` as
//   merge(p, c_off, count, d2v)
// where p is the range-relative point row, c_off the panel's first
// center relative to the packed set, count the panel width, and d2v the
// per-center squared distances. Panels are visited in ascending center
// order within each point tile, so a merge that scans d2v left-to-right
// observes centers exactly like a sequential ascending scan.
//
// `centers` restricts the visit to panels intersecting that
// packed-relative range (the Subset entry points); boundary panels are
// still computed at full width — per-pair chains are placement-
// independent, so the extra lanes are bitwise-identical values the
// subset merges simply do not read. Full-set callers pass
// {0, panels.num_centers()}.
//
// `bound(p)` is the reduction's screening bound for row p: a merge can
// change row p's state only with a distance strictly below it, and the
// bound never rises while the row is merged. The AVX-512 kernel compares
// a whole row group against its bounds in registers, and PanelScan skips
// the merge of a row with no lane below — exactly the rows whose merge
// would be a no-op. (A subset scan's lanes outside its window may still
// set bits; that costs only a no-op merge.) Reductions that must see
// every value pass NoSkip.
struct NoSkip {};

template <typename Bound, typename Merge>
void PanelScan(ConstMatrixView points, IndexRange rows,
               const double* point_norms, const CenterPanels& panels,
               const double* center_norms, bool expanded,
               IndexRange centers, Bound&& bound, Merge&& merge) {
  constexpr bool kSkip = !std::is_same_v<std::decay_t<Bound>, NoSkip>;
  const int64_t d = panels.dim();
  const int64_t n = rows.size();
  const int64_t k = panels.num_centers();
  const int64_t panel_lo = centers.begin / kCenterTile;
  const double* packed = panels.data();

  double acc0[kCenterTile];
  double acc1[kCenterTile];
  double d2v0[kCenterTile];
  double d2v1[kCenterTile];
  double tail_acc[kMaxTailRows * kCenterTile];
  double wide_d2[kWideRows * kCenterTile];
  uint32_t wide_mask[kWideRows];
  double wide_bound[kWideRows];  // stays +inf without a bound
  std::fill_n(wide_bound, kWideRows, std::numeric_limits<double>::infinity());

  // Branchless distance conversion (vectorizable) ahead of the merge.
  auto convert = [&](const double* acc, int64_t count, double pn,
                     const double* cn, double* d2v) {
    for (int64_t j = 0; j < count; ++j) {
      double v = pn + cn[j] - 2.0 * acc[j];
      d2v[j] = v > 0.0 ? v : 0.0;
    }
  };

  // Loop nest: point tiles stream while each ~kCenterTile·d-double panel
  // stays L1-resident across the whole tile.
  for (int64_t pb = 0; pb < n; pb += kPointTile) {
    const int64_t pe = std::min(pb + kPointTile, n);
    for (int64_t panel = panel_lo; panel * kCenterTile < centers.end;
         ++panel) {
      const int64_t c_off = panel * kCenterTile;
      const int64_t count = std::min<int64_t>(kCenterTile, k - c_off);
      const double* panel_data = packed + c_off * d;
      const double* cn = expanded ? center_norms + c_off : nullptr;
      int64_t p = pb;
      if (count == kCenterTile) {
        // Rows left over from the 8-row groups take the 2- and 1-row
        // kernels.
        if (kUseAvx512) {
          for (; p + kWideRows <= pe; p += kWideRows) {
            const double* x[kWideRows];
            for (int r = 0; r < kWideRows; ++r) {
              x[r] = points.Row(rows.begin + p + r);
              if constexpr (kSkip) wide_bound[r] = bound(p + r);
            }
            if (expanded) {
              FullPanelAvx512<false>(x, panel_data, d, point_norms + p, cn,
                                     wide_bound, wide_d2, wide_mask);
            } else {
              FullPanelAvx512<true>(x, panel_data, d, nullptr, nullptr,
                                    wide_bound, wide_d2, wide_mask);
            }
            for (int r = 0; r < kWideRows; ++r) {
              if (!kSkip || wide_mask[r] != 0) {
                merge(p + r, c_off, count, wide_d2 + r * kCenterTile);
              }
            }
          }
        }
        for (; p + 2 <= pe; p += 2) {
          if (expanded) {
            DotPanel2(points.Row(rows.begin + p),
                      points.Row(rows.begin + p + 1), panel_data, d, acc0,
                      acc1);
            convert(acc0, count, point_norms[p], cn, d2v0);
            convert(acc1, count, point_norms[p + 1], cn, d2v1);
            merge(p, c_off, count, d2v0);
            merge(p + 1, c_off, count, d2v1);
          } else {
            SqPanel2(points.Row(rows.begin + p),
                     points.Row(rows.begin + p + 1), panel_data, d, acc0,
                     acc1);
            merge(p, c_off, count, acc0);
            merge(p + 1, c_off, count, acc1);
          }
        }
        for (; p < pe; ++p) {
          if (expanded) {
            DotPanel1(points.Row(rows.begin + p), panel_data, d, acc0);
            convert(acc0, count, point_norms[p], cn, d2v0);
            merge(p, c_off, count, d2v0);
          } else {
            SqPanel1(points.Row(rows.begin + p), panel_data, d, acc0);
            merge(p, c_off, count, acc0);
          }
        }
      } else {
        // Residue panel: a group of point rows per kernel call; a short
        // final group repeats its last row, whose values are not merged.
        const int64_t group = TailGroupRows(count);
        for (; p < pe; p += group) {
          const int64_t live = std::min(group, pe - p);
          const double* x[kMaxTailRows];
          for (int64_t r = 0; r < group; ++r) {
            x[r] = points.Row(rows.begin + p + std::min(r, live - 1));
          }
          if (expanded) {
            PanelTail<false>(x, live, panel_data, d, count, tail_acc);
          } else {
            PanelTail<true>(x, live, panel_data, d, count, tail_acc);
          }
          for (int64_t r = 0; r < live; ++r) {
            const double* acc = tail_acc + r * kCenterTile;
            if (expanded) {
              convert(acc, count, point_norms[p + r], cn, d2v0);
              merge(p + r, c_off, count, d2v0);
            } else {
              merge(p + r, c_off, count, acc);
            }
          }
        }
      }
    }
  }
}

// Validates shared preconditions and reports whether there is anything to
// scan; resolves the kernel choice into *expanded.
bool PrepareScan(ConstMatrixView points, IndexRange rows,
                 const CenterPanels& panels, const double* center_norms,
                 BatchKernel kernel, bool* expanded) {
  KMEANSLL_CHECK_EQ(panels.dim(), points.cols());
  KMEANSLL_CHECK(rows.begin >= 0 && rows.end <= points.rows());
  if (rows.size() <= 0 || panels.num_centers() <= 0) return false;
  *expanded = ResolveExpandedKernel(kernel, points.cols());
  if (*expanded) {
    // Panels are t-major: norms cannot be recomputed here with the
    // caller-visible SquaredNorm chain, so expanded scans require them.
    KMEANSLL_CHECK(center_norms != nullptr);
  }
  return true;
}

// Point norms the caller did not provide, materialized with the shared
// SquaredNorm chain (amortized over the whole n × k scan, so a per-call
// vector is fine). One definition: this chain is the bitwise-consistency
// linchpin between provided and internal norms.
const double* EnsurePointNorms(ConstMatrixView points, IndexRange rows,
                               bool expanded, const double* point_norms,
                               std::vector<double>* storage) {
  if (!expanded || point_norms != nullptr) return point_norms;
  const int64_t n = rows.size();
  storage->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    (*storage)[static_cast<size_t>(i)] =
        SquaredNorm(points.Row(rows.begin + i), points.cols());
  }
  return storage->data();
}

}  // namespace

void CenterPanels::Pack(const Matrix& centers, int64_t first_center) {
  KMEANSLL_CHECK(first_center >= 0 && first_center <= centers.rows());
  dim_ = centers.cols();
  first_center_ = first_center;
  num_centers_ = centers.rows() - first_center;
  const int64_t k = num_centers_;
  const int64_t d = dim_;
  const int64_t full_panels = k / kCenterTile;
  const int64_t tail_width = k % kCenterTile;
  packed_.resize(static_cast<size_t>(k * d));
  for (int64_t c = 0; c < k; ++c) {
    const int64_t panel = c / kCenterTile;
    const bool in_tail = panel == full_panels;
    const int64_t stride = in_tail ? tail_width : kCenterTile;
    double* base = packed_.data() + panel * kCenterTile * d;
    const double* row = centers.Row(first_center + c);
    const int64_t j = c % kCenterTile;
    for (int64_t t = 0; t < d; ++t) base[t * stride + j] = row[t];
  }
}

void CenterPanels::Clear() {
  packed_.clear();
  num_centers_ = 0;
  dim_ = 0;
  first_center_ = 0;
}

void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms,
                       const CenterPanels& panels,
                       const double* center_norms, BatchKernel kernel,
                       double* best_d2, int32_t* best_index) {
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  const IndexRange all{0, panels.num_centers()};
  auto bound = [best_d2](int64_t p) { return best_d2[p]; };
  if (best_index == nullptr) {
    // Distance-only caller: skip the argmin bookkeeping.
    PanelScan(points, rows, point_norms, panels, center_norms, expanded, all,
              bound,
              [&](int64_t p, int64_t, int64_t count, const double* d2v) {
                double* bd = best_d2 + p;
                for (int64_t j = 0; j < count; ++j) {
                  if (d2v[j] < *bd) *bd = d2v[j];
                }
              });
    return;
  }
  // Centers are visited in ascending index order with strict-< updates,
  // so ties keep the lowest index / the existing value — identical to a
  // sequential scan.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded, all,
            bound,
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              double* bd = best_d2 + p;
              int32_t* bi = best_index + p;
              for (int64_t j = 0; j < count; ++j) {
                if (d2v[j] < *bd) {
                  *bd = d2v[j];
                  *bi = static_cast<int32_t>(base + c_off + j);
                }
              }
            });
}

void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms, const Matrix& centers,
                       int64_t first_center, const double* center_norms,
                       BatchKernel kernel, double* best_d2,
                       int32_t* best_index) {
  const int64_t d = points.cols();
  KMEANSLL_CHECK_EQ(centers.cols(), d);
  KMEANSLL_CHECK(rows.begin >= 0 && rows.end <= points.rows());
  KMEANSLL_CHECK(first_center >= 0 && first_center <= centers.rows());
  const int64_t k = centers.rows() - first_center;
  if (rows.size() <= 0 || k <= 0) return;

  const bool expanded = ResolveExpandedKernel(kernel, d);
  // Center norms the caller did not provide — computed from the matrix
  // rows with the same SquaredNorm chain callers use, so provided and
  // internal norms are bitwise interchangeable.
  std::vector<double> cn_storage;
  if (expanded && center_norms == nullptr) {
    cn_storage.resize(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) {
      cn_storage[static_cast<size_t>(c)] =
          SquaredNorm(centers.Row(first_center + c), d);
    }
    center_norms = cn_storage.data();
  }
  CenterPanels panels;
  panels.Pack(centers, first_center);
  BatchNearestMerge(points, rows, point_norms, panels, center_norms,
                    kernel, best_d2, best_index);
}

void BatchTwoNearest(ConstMatrixView points, IndexRange rows,
                     const double* point_norms, const CenterPanels& panels,
                     const double* center_norms, BatchKernel kernel,
                     int32_t* out_index, double* out_d1, double* out_d2) {
  const int64_t n = rows.size();
  for (int64_t i = 0; i < n; ++i) {
    out_index[i] = -1;
    out_d1[i] = std::numeric_limits<double>::infinity();
    out_d2[i] = std::numeric_limits<double>::infinity();
  }
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // Two-best update with the sequential scan's tie semantics: a later
  // equal distance never displaces the best (strict <) but does take the
  // second slot only if strictly smaller than the incumbent second.
  // out_d1 <= out_d2 throughout, so out_d2 bounds both updates.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            IndexRange{0, panels.num_centers()},
            [out_d2](int64_t p) { return out_d2[p]; },
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              for (int64_t j = 0; j < count; ++j) {
                const double v = d2v[j];
                if (v < out_d1[p]) {
                  out_d2[p] = out_d1[p];
                  out_d1[p] = v;
                  out_index[p] = static_cast<int32_t>(base + c_off + j);
                } else if (v < out_d2[p]) {
                  out_d2[p] = v;
                }
              }
            });
}

void BatchTopM(ConstMatrixView points, IndexRange rows,
               const double* point_norms, const CenterPanels& panels,
               const double* center_norms, BatchKernel kernel, int64_t m,
               int32_t* out_index, double* out_d2) {
  KMEANSLL_CHECK_GT(m, 0);
  const int64_t n = rows.size();
  for (int64_t s = 0; s < n * m; ++s) {
    out_index[s] = -1;
    out_d2[s] = std::numeric_limits<double>::infinity();
  }
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // Sorted-insertion merge: slots hold the m best distances ascending.
  // Strict-< at every comparison means an equal later distance never
  // displaces or outranks an earlier center, so tied centers sort by
  // ascending index and slot 0 reproduces BatchNearestMerge exactly.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            IndexRange{0, panels.num_centers()},
            [out_d2, m](int64_t p) { return out_d2[p * m + m - 1]; },
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              double* pd = out_d2 + p * m;
              int32_t* pi = out_index + p * m;
              for (int64_t j = 0; j < count; ++j) {
                const double v = d2v[j];
                if (!(v < pd[m - 1])) continue;
                int64_t s = m - 1;
                while (s > 0 && v < pd[s - 1]) {
                  pd[s] = pd[s - 1];
                  pi[s] = pi[s - 1];
                  --s;
                }
                pd[s] = v;
                pi[s] = static_cast<int32_t>(base + c_off + j);
              }
            });
}

void BatchNearestMergeSubset(ConstMatrixView points, IndexRange rows,
                             const double* point_norms,
                             const CenterPanels& panels,
                             const double* center_norms, BatchKernel kernel,
                             IndexRange centers, double* best_d2,
                             int32_t* best_index) {
  KMEANSLL_CHECK(centers.begin >= 0 && centers.end <= panels.num_centers());
  if (centers.size() <= 0) return;
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // Same strict-< ascending merge as the full-set overload, with the
  // lane window clipped to the subset on the boundary panels.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            centers, [best_d2](int64_t p) { return best_d2[p]; },
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              const int64_t j_lo = std::max<int64_t>(0, centers.begin - c_off);
              const int64_t j_hi =
                  std::min<int64_t>(count, centers.end - c_off);
              double* bd = best_d2 + p;
              int32_t* bi = best_index + p;
              for (int64_t j = j_lo; j < j_hi; ++j) {
                if (d2v[j] < *bd) {
                  *bd = d2v[j];
                  *bi = static_cast<int32_t>(base + c_off + j);
                }
              }
            });
}

void BatchTopMSubset(ConstMatrixView points, IndexRange rows,
                     const double* point_norms, const CenterPanels& panels,
                     const double* center_norms, BatchKernel kernel,
                     IndexRange centers, int64_t m, int32_t* out_index,
                     double* out_d2) {
  KMEANSLL_CHECK_GT(m, 0);
  KMEANSLL_CHECK(centers.begin >= 0 && centers.end <= panels.num_centers());
  const int64_t n = rows.size();
  for (int64_t s = 0; s < n * m; ++s) {
    out_index[s] = -1;
    out_d2[s] = std::numeric_limits<double>::infinity();
  }
  if (centers.size() <= 0) return;
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t base = panels.first_center();
  // BatchTopM's sorted-insertion merge, lane-clipped to the subset.
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            centers,
            [out_d2, m](int64_t p) { return out_d2[p * m + m - 1]; },
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              const int64_t j_lo = std::max<int64_t>(0, centers.begin - c_off);
              const int64_t j_hi =
                  std::min<int64_t>(count, centers.end - c_off);
              double* pd = out_d2 + p * m;
              int32_t* pi = out_index + p * m;
              for (int64_t j = j_lo; j < j_hi; ++j) {
                const double v = d2v[j];
                if (!(v < pd[m - 1])) continue;
                int64_t s = m - 1;
                while (s > 0 && v < pd[s - 1]) {
                  pd[s] = pd[s - 1];
                  pi[s] = pi[s - 1];
                  --s;
                }
                pd[s] = v;
                pi[s] = static_cast<int32_t>(base + c_off + j);
              }
            });
}

void BatchDistances(ConstMatrixView points, IndexRange rows,
                    const double* point_norms, const CenterPanels& panels,
                    const double* center_norms, BatchKernel kernel,
                    double* out_d2) {
  bool expanded = false;
  if (!PrepareScan(points, rows, panels, center_norms, kernel, &expanded)) {
    return;
  }
  std::vector<double> pn_storage;
  point_norms =
      EnsurePointNorms(points, rows, expanded, point_norms, &pn_storage);
  const int64_t k = panels.num_centers();
  PanelScan(points, rows, point_norms, panels, center_norms, expanded,
            IndexRange{0, k}, NoSkip{},
            [&](int64_t p, int64_t c_off, int64_t count,
                const double* d2v) {
              std::memcpy(out_d2 + p * k + c_off, d2v,
                          static_cast<size_t>(count) * sizeof(double));
            });
}

const char* BatchKernelIsa() {
#if defined(__x86_64__)
  // Detects instead of reading kUseAvx*: a caller running during static
  // initialization may come before those flags are set.
  return DetectAvx512() ? "avx512" : DetectAvx2Fma() ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

double PairSquaredL2(const double* a, const double* b, int64_t dim) {
  if (kUseAvx2) return PairSqFma(a, b, dim);
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) {
    double e = a[t] - b[t];
    acc += e * e;
  }
  return acc;
}

double PairDotProduct(const double* a, const double* b, int64_t dim) {
  if (kUseAvx2) return PairDotFma(a, b, dim);
  double acc = 0.0;
  for (int64_t t = 0; t < dim; ++t) acc += a[t] * b[t];
  return acc;
}

}  // namespace kmeansll
