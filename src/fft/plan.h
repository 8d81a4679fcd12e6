// SpectralPlan — the planned, real-input transform pipeline behind the
// spectral Poisson solver (the hot half of `density_update`). It is the
// engine's only implementation of the four real trigonometric transforms:
//
//   dct2(x)_k            = sum_n x_n cos(pi (2n+1) k / (2N))         (analysis)
//   idct2                = exact inverse of dct2
//   cosineSynthesis(c)_n = sum_k c_k cos(pi k (2n+1) / (2N))
//                          (all terms full weight, including k = 0)
//   sineSynthesis(s)_n   = sum_k s_k sin(pi (k+1) (2n+1) / (2N))
//                          (s_k is the coefficient of frequency k+1)
//
// The synthesis pair evaluates a Neumann cosine series and its x-derivative
// (a sine series) at bin centers — exactly what Eq. (6) of the paper needs.
// Sizes are powers of two: the density grid is chosen as a power of two
// precisely so radix-2 suffices. The plan precomputes, once per grid size,
//
//   * stage-contiguous split re/im twiddle tables (forward and inverse),
//   * the bit-reverse permutations for the half-length and full-length
//     complex FFTs,
//   * the Makhoul real-FFT unpack twiddles t_k = e^{-i pi k / M},
//   * the DCT-II post/pre-processing weights p_k = e^{-i pi k / (2N)} and
//     the combined u_k = p_k * e^{-2 pi i k / N},
//
// and evaluates each transform as
//
//   dct2: Makhoul permute -> pack even/odd into ONE complex sequence of
//         length M = N/2 -> FFT_M -> O(N) unpack folding the DCT phase
//         (C_k = Re(w), C_{N-k} = -Im(w) with w = p_k V_k);
//   idct2 / cosineSynthesis / sineSynthesis: the exact adjoint pipeline
//         through a half-length inverse FFT, with the synthesis scaling
//         (N/2, DC doubling, DST reversal and sign flips) folded into the
//         O(N) spectral pre-pass;
//   synthesisPair: TWO same-length syntheses — the field components
//         dPsi/dx and dPsi/dy of Eq. (6) — batched into ONE full-length
//         complex inverse FFT (Q_k = V^a_k + i V^b_k, both sequences fall
//         out as Re/Im), so the pair costs the same as a single
//         complex transform.
//
// All butterflies are split re/im double arrays with unit-stride twiddle
// loads — no std::complex, no branches in the inner loops — so the
// autovectorizer fires on them (see docs/PERFORMANCE.md).
//
// Table storage is leased from the keyed ScratchArena under
// "fft.<n>.<table>" keys: plans of equal size share identical (read-only)
// tables across stages and axes, a cGP-stage solver reuses the mGP
// allocations, growth is MemoryBudget-charged, and steady-state transforms
// allocate nothing. With a null arena the plan owns its tables (tests,
// micro-benches).
//
// Numerical contract: results agree with the O(n^2) direct sums above,
// accumulated in long double, to 16 eps log2(n) of the output magnitude.
// Determinism contract: a transform's arithmetic depends only on its input,
// never on thread count or partitioning. tests/test_kernel_properties.cpp
// pins both.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/parallel.h"

namespace ep {

class FaultInjector;
class ScratchArena;

/// True when v is a power of two (and nonzero).
constexpr bool isPowerOfTwo(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// The four transforms a SpectralPlan evaluates (see the sums above).
enum class TrigOp { kDct2, kIdct2, kCosSynth, kSinSynth };

/// Per-call scratch for SpectralPlan transforms. A plan is shared read-only
/// across threads; each thread supplies its own scratch so independent
/// rows/columns transform concurrently. Buffers grow on first use (warm-up)
/// and are reused afterwards.
struct SpectralScratch {
  std::vector<double> re, im;    // packed complex work, length n
  std::vector<double> re2, im2;  // spectrum staging: two (n/2 + 1) lanes
  std::vector<double> tmp;       // real staging, length n

  void resize(std::size_t n) {
    if (re.size() < n) {
      re.resize(n);
      im.resize(n);
      re2.resize(n + 2);
      im2.resize(n + 2);
      tmp.resize(n);
    }
  }
};

class SpectralPlan {
 public:
  /// `n` must be a power of two >= 1. Tables are leased from `arena` under
  /// "fft.<n>." keys when non-null, otherwise owned. `faults` (optional,
  /// borrowed) wires the "fft.forward" site into the dct2 analysis path.
  explicit SpectralPlan(std::size_t n, ScratchArena* arena = nullptr,
                        FaultInjector* faults = nullptr);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// The transforms defined at the top of this header. All are in-place on
  /// `x` (size n) and re-entrant.
  void dct2(std::span<double> x, SpectralScratch& s) const;
  void idct2(std::span<double> x, SpectralScratch& s) const;
  void cosineSynthesis(std::span<double> c, SpectralScratch& s) const;
  void sineSynthesis(std::span<double> sv, SpectralScratch& s) const;

  /// Apply the transform selected by `op` (any TrigOp).
  void apply(TrigOp op, std::span<double> x, SpectralScratch& s) const;

  /// Batched pair synthesis: a <- synth(a) under opA and b <- synth(b)
  /// under opB in ONE full-length complex inverse FFT. opA/opB must each
  /// be kCosSynth or kSinSynth. Bit-identical to applying the two single
  /// syntheses? No — same math, different (fixed) FP schedule; identical
  /// for any thread count and pinned against the singles by the kernel
  /// property suite.
  void synthesisPair(std::span<double> a, TrigOp opA, std::span<double> b,
                     TrigOp opB, SpectralScratch& s) const;

 private:
  // Spectral pre-pass of the inverse pipeline: build the Hermitian
  // spectrum V (vRe/vIm, slots 0..M) from coefficients `x` under `op`
  // (kIdct2 = plain inverse, kCosSynth/kSinSynth = scaled synthesis).
  // `norm` is the inverse-FFT normalization the caller will NOT apply
  // (the IFFT cores here are unscaled), folded into the weights.
  void buildSpectrum(TrigOp op, std::span<const double> x, double* vRe,
                     double* vIm, double norm) const;
  // Inverse tail shared by idct2/cos/sin: V -> half-length IFFT -> Makhoul
  // un-permute into x (negating odd slots when `sine`).
  void inverseFromSpectrum(std::span<double> x, bool sine,
                           SpectralScratch& s) const;

  std::size_t n_ = 0;  // transform length N
  std::size_t m_ = 0;  // half length M = N/2 (0 when N == 1)
  FaultInjector* faults_ = nullptr;

  // Owned fallback storage when no arena is supplied; spans below point
  // either here or into the arena.
  std::vector<std::vector<double>> ownD_;
  std::vector<std::vector<std::int32_t>> ownI_;

  std::span<const std::int32_t> bitrevM_;  // size M
  std::span<const std::int32_t> bitrevN_;  // size N (pair path)
  // Stage-contiguous butterfly twiddles, shared by every FFT size <= N:
  // stage `len` occupies [len/2 - 1, len - 1) with w_k = e^{-+2 pi i k/len}.
  std::span<const double> stRe_;    // cos, size N-1
  std::span<const double> stImF_;   // forward: -sin
  std::span<const double> stImI_;   // inverse: +sin
  std::span<const double> tRe_, tIm_;  // t_k = e^{-i pi k / M}, size M
  std::span<const double> pRe_, pIm_;  // p_k = e^{-i pi k / (2N)}, size M+1
  std::span<const double> uRe_, uIm_;  // u_k = p_k t_k = e^{-5 i pi k / (2N)}
};

/// 2-D separable transform on a row-major nx*ny grid (index = iy*nx + ix).
/// Rows (and then columns) are independent, so with a pool they are
/// dispatched as fixed contiguous batches — each row/column is transformed
/// by exactly one thread with the same arithmetic as the serial loop, hence
/// the result is bit-identical for any thread count. `pool == nullptr` runs
/// serially; `ws` may be null (scratch is then allocated per call). `planX`
/// must have size nx, `planY` size ny.
struct Spectral2dWorkspace {
  struct PerThread {
    SpectralScratch s;
    std::vector<double> colA, colB;
  };
  std::vector<PerThread> perThread;
};

void spectral2d(std::span<double> grid, std::size_t nx, std::size_t ny,
                const SpectralPlan& planX, const SpectralPlan& planY,
                TrigOp opX, TrigOp opY, ThreadPool* pool = nullptr,
                Spectral2dWorkspace* ws = nullptr);

/// The batched field synthesis of Eq. (6): ex <- sinSynth_x . cosSynth_y,
/// ey <- cosSynth_x . sinSynth_y, with the (ex, ey) row (and then column)
/// pairs fused into single full-length complex transforms via
/// SpectralPlan::synthesisPair. Same row/column partitioning contract as
/// spectral2d.
void spectralFieldSynthesis2d(std::span<double> ex, std::span<double> ey,
                              std::size_t nx, std::size_t ny,
                              const SpectralPlan& planX,
                              const SpectralPlan& planY,
                              ThreadPool* pool = nullptr,
                              Spectral2dWorkspace* ws = nullptr);

}  // namespace ep
