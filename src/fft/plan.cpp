#include "fft/plan.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "model/placement_view.h"
#include "util/fault_injector.h"

namespace ep {

namespace {

// Iterative radix-2 DIT on split re/im arrays. The twiddle tables are
// stage-contiguous: stage `len` reads `len/2` entries starting at index
// `len/2 - 1`, with w_k = e^{-+2 pi i k / len} — independent of the FFT
// size, so one (N-1)-entry table serves every power-of-two size <= N
// (the half-length analysis FFT and the full-length pair FFT share it).
// No scaling: inverse normalization is folded into the spectral pre-pass.
void fftCore(double* re, double* im, std::size_t n,
             const std::int32_t* brev, const double* twRe,
             const double* twIm) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(brev[i]);
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const double* __restrict wr = twRe + (half - 1);
    const double* __restrict wi = twIm + (half - 1);
    for (std::size_t start = 0; start < n; start += len) {
      double* __restrict ar = re + start;
      double* __restrict ai = im + start;
      double* __restrict br = re + start + half;
      double* __restrict bi = im + start + half;
      // No loop-carried dependence: ar/ai and br/bi cover disjoint
      // half-ranges of re/im and the twiddles are read-only, but gcc
      // cannot prove it through the outer loops — assert it so the
      // split-array butterfly vectorizes.
#pragma GCC ivdep
      for (std::size_t k = 0; k < half; ++k) {
        const double tr = br[k] * wr[k] - bi[k] * wi[k];
        const double ti = br[k] * wi[k] + bi[k] * wr[k];
        const double ur = ar[k];
        const double ui = ai[k];
        ar[k] = ur + tr;
        ai[k] = ui + ti;
        br[k] = ur - tr;
        bi[k] = ui - ti;
      }
    }
  }
}

}  // namespace

SpectralPlan::SpectralPlan(std::size_t n, ScratchArena* arena,
                           FaultInjector* faults)
    : n_(n), m_(n / 2), faults_(faults) {
  assert(isPowerOfTwo(n));
  if (n < 2) return;  // every transform of size 1 is the identity
  const std::size_t m = m_;
  const std::string prefix = "fft." + std::to_string(n) + ".";

  // Lease a table from the arena (keyed, so same-size plans share storage
  // and re-derive identical contents) or fall back to owned storage.
  // ownD_/ownI_ are vectors-of-vectors: push_back moves inner vectors but
  // their heap buffers — and thus the spans — stay valid.
  auto leaseD = [&](const char* name, std::size_t count) -> std::span<double> {
    if (arena != nullptr) return arena->doubles(prefix + name, count);
    ownD_.emplace_back(count);
    return ownD_.back();
  };
  auto leaseI = [&](const char* name,
                    std::size_t count) -> std::span<std::int32_t> {
    if (arena != nullptr) return arena->ints(prefix + name, count);
    ownI_.emplace_back(count);
    return ownI_.back();
  };

  auto fillBitrev = [](std::span<std::int32_t> out) {
    const std::size_t count = out.size();
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < count) ++bits;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        if ((i & (std::size_t{1} << b)) != 0) {
          r |= std::size_t{1} << (bits - 1 - b);
        }
      }
      out[i] = static_cast<std::int32_t>(r);
    }
  };
  auto brM = leaseI("brM", m);
  auto brN = leaseI("brN", n);
  fillBitrev(brM);
  fillBitrev(brN);
  bitrevM_ = brM;
  bitrevN_ = brN;

  auto stC = leaseD("stC", n - 1);
  auto stSF = leaseD("stSF", n - 1);
  auto stSI = leaseD("stSI", n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    for (std::size_t k = 0; k < half; ++k) {
      const double ang = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(len);
      stC[half - 1 + k] = std::cos(ang);
      stSF[half - 1 + k] = -std::sin(ang);
      stSI[half - 1 + k] = std::sin(ang);
    }
  }
  stRe_ = stC;
  stImF_ = stSF;
  stImI_ = stSI;

  // Real-FFT unpack twiddles t_k = e^{-2 pi i k / N} = e^{-i pi k / M}.
  auto tR = leaseD("tRe", m);
  auto tI = leaseD("tIm", m);
  for (std::size_t k = 0; k < m; ++k) {
    const double ang =
        std::numbers::pi * static_cast<double>(k) / static_cast<double>(m);
    tR[k] = std::cos(ang);
    tI[k] = -std::sin(ang);
  }
  tRe_ = tR;
  tIm_ = tI;

  // DCT-II phase p_k = e^{-i pi k / (2N)} and the combined post-twiddle
  // u_k = p_k * t_k = e^{-i 5 pi k / (2N)} (one table lookup folds the
  // Makhoul recombination and the DCT phase into a single complex MAC).
  auto pR = leaseD("pRe", m + 1);
  auto pI = leaseD("pIm", m + 1);
  auto uR = leaseD("uRe", m);
  auto uI = leaseD("uIm", m);
  for (std::size_t k = 0; k <= m; ++k) {
    const double ang = std::numbers::pi * static_cast<double>(k) /
                       (2.0 * static_cast<double>(n));
    pR[k] = std::cos(ang);
    pI[k] = -std::sin(ang);
  }
  for (std::size_t k = 0; k < m; ++k) {
    const double ang = 5.0 * std::numbers::pi * static_cast<double>(k) /
                       (2.0 * static_cast<double>(n));
    uR[k] = std::cos(ang);
    uI[k] = -std::sin(ang);
  }
  pRe_ = pR;
  pIm_ = pI;
  uRe_ = uR;
  uIm_ = uI;
}

void SpectralPlan::dct2(std::span<double> x, SpectralScratch& s) const {
  assert(x.size() == n_);
  const std::size_t n = n_;
  const std::size_t m = m_;
  if (n < 2) {
    // Size-1 DCT is the identity; keep the fault site live anyway.
    if (faults_ != nullptr && faults_->active() && !x.empty()) {
      if (const FaultSpec* f = faults_->fire("fft.forward")) {
        x[0] = f->kind == FaultKind::kSpike
                   ? x[0] * f->magnitude
                   : std::numeric_limits<double>::quiet_NaN();
      }
    }
    return;
  }
  s.resize(n);
  double* re = s.re.data();
  double* im = s.im.data();
  // Makhoul permute v[i] = x[2i], v[N-1-i] = x[2i+1] fused with the
  // even/odd complex packing z[j] = v[2j] + i v[2j+1]: both halves of the
  // packed sequence read x at a fixed stride, no staging pass.
  if (m == 1) {
    re[0] = x[0];
    im[0] = x[1];
  } else {
    const std::size_t h = m / 2;
    for (std::size_t j = 0; j < h; ++j) {
      re[j] = x[4 * j];
      im[j] = x[4 * j + 2];
    }
    for (std::size_t j = h; j < m; ++j) {
      re[j] = x[2 * n - 4 * j - 1];
      im[j] = x[2 * n - 4 * j - 3];
    }
  }
  fftCore(re, im, m, bitrevM_.data(), stRe_.data(), stImF_.data());
  // Fault site "fft.forward": corrupts one spectral coefficient so the
  // recovery paths downstream of the Poisson solver can be exercised.
  if (faults_ != nullptr && faults_->active()) {
    if (const FaultSpec* f = faults_->fire("fft.forward")) {
      const std::size_t mid = m / 2;
      if (f->kind == FaultKind::kSpike) {
        re[mid] *= f->magnitude;
        im[mid] *= f->magnitude;
      } else {
        re[mid] = std::numeric_limits<double>::quiet_NaN();
        im[mid] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  // Hermitian unpack fused with the DCT phase:
  //   Fe_k = (Z_k + conj(Z_{M-k}))/2, Fo_k = (Z_k - conj(Z_{M-k}))/(2i),
  //   w    = p_k Fe_k + u_k Fo_k  =>  C_k = Re w, C_{N-k} = -Im w.
  x[0] = re[0] + im[0];
  x[m] = (re[0] - im[0]) * pRe_[m];
  const double* pr = pRe_.data();
  const double* pi = pIm_.data();
  const double* ur = uRe_.data();
  const double* ui = uIm_.data();
  for (std::size_t k = 1; k < m; ++k) {
    const double zr = re[k];
    const double zi = im[k];
    const double yr = re[m - k];
    const double yi = im[m - k];
    const double fer = 0.5 * (zr + yr);
    const double fei = 0.5 * (zi - yi);
    const double forr = 0.5 * (zi + yi);
    const double foi = 0.5 * (yr - zr);
    const double wr = pr[k] * fer - pi[k] * fei + ur[k] * forr - ui[k] * foi;
    const double wi = pr[k] * fei + pi[k] * fer + ur[k] * foi + ui[k] * forr;
    x[k] = wr;
    x[n - k] = -wi;
  }
}

void SpectralPlan::buildSpectrum(TrigOp op, std::span<const double> x,
                                 double* vRe, double* vIm,
                                 double norm) const {
  const std::size_t n = n_;
  const std::size_t m = m_;
  // Hermitian spectrum V_k = w_ac * conj(p_k) (c_k - i c_{N-k}) for
  // k = 1..M, V_0 = w_dc * c_0, with the synthesis scaling (DC doubling,
  // N/2 amplitude) and the inverse-FFT normalization `norm` folded into
  // the weights, and the DST's input reversal folded into the read index.
  double dcW = norm;
  double acW = norm;
  bool rev = false;
  switch (op) {
    case TrigOp::kIdct2:
      break;
    case TrigOp::kSinSynth:
      rev = true;
      [[fallthrough]];
    case TrigOp::kCosSynth:
      dcW = static_cast<double>(n) * norm;
      acW = 0.5 * static_cast<double>(n) * norm;
      break;
    case TrigOp::kDct2:
      assert(false && "buildSpectrum is the inverse-path pre-pass");
      break;
  }
  const double* px = x.data();
  const double* pr = pRe_.data();
  const double* pi = pIm_.data();
  vRe[0] = dcW * (rev ? px[n - 1] : px[0]);
  vIm[0] = 0.0;
  if (rev) {
    for (std::size_t k = 1; k <= m; ++k) {
      const double cr = acW * px[n - 1 - k];
      const double cc = -acW * px[k - 1];
      vRe[k] = pr[k] * cr + pi[k] * cc;
      vIm[k] = pr[k] * cc - pi[k] * cr;
    }
  } else {
    for (std::size_t k = 1; k <= m; ++k) {
      const double cr = acW * px[k];
      const double cc = -acW * px[n - k];
      vRe[k] = pr[k] * cr + pi[k] * cc;
      vIm[k] = pr[k] * cc - pi[k] * cr;
    }
  }
}

void SpectralPlan::inverseFromSpectrum(std::span<double> x, bool sine,
                                       SpectralScratch& s) const {
  const std::size_t m = m_;
  double* zr = s.re.data();
  double* zi = s.im.data();
  const double* vr = s.re2.data();
  const double* vi = s.im2.data();
  const double* tr = tRe_.data();
  const double* ti = tIm_.data();
  // Inverse packing: Z_k = Fe_k + i Fo_k with
  //   Fe_k = (V_k + conj(V_{M-k}))/2, Fo_k = conj(t_k) (V_k - conj(V_{M-k}))/2.
  for (std::size_t k = 0; k < m; ++k) {
    const double ar = vr[k];
    const double ai = vi[k];
    const double br = vr[m - k];
    const double bi = -vi[m - k];
    const double fer = 0.5 * (ar + br);
    const double fei = 0.5 * (ai + bi);
    const double dr = 0.5 * (ar - br);
    const double di = 0.5 * (ai - bi);
    const double forr = tr[k] * dr + ti[k] * di;
    const double foi = tr[k] * di - ti[k] * dr;
    zr[k] = fer - foi;
    zi[k] = fei + forr;
  }
  fftCore(zr, zi, m, bitrevM_.data(), stRe_.data(), stImI_.data());
  // Un-permute v[2j] = Re z_j, v[2j+1] = Im z_j through the inverse
  // Makhoul map x[2i] = v[i], x[2i+1] = v[N-1-i]; the DST's (-1)^n output
  // sign lands exactly on the odd slots, so it folds into the scatter.
  const double sg = sine ? -1.0 : 1.0;
  if (m == 1) {
    x[0] = zr[0];
    x[1] = sg * zi[0];
    return;
  }
  const std::size_t h = m / 2;
  for (std::size_t j = 0; j < h; ++j) {
    x[4 * j] = zr[j];
    x[4 * j + 2] = zi[j];
    x[4 * j + 1] = sg * zi[m - 1 - j];
    x[4 * j + 3] = sg * zr[m - 1 - j];
  }
}

void SpectralPlan::idct2(std::span<double> x, SpectralScratch& s) const {
  assert(x.size() == n_);
  if (n_ < 2) return;
  s.resize(n_);
  buildSpectrum(TrigOp::kIdct2, x, s.re2.data(), s.im2.data(),
                1.0 / static_cast<double>(m_));
  inverseFromSpectrum(x, false, s);
}

void SpectralPlan::cosineSynthesis(std::span<double> c,
                                   SpectralScratch& s) const {
  assert(c.size() == n_);
  if (n_ < 2) return;
  s.resize(n_);
  // (N/2) * (1/M) == 1: the synthesis amplitude exactly cancels the
  // half-length inverse normalization, so the spectrum needs no scaling.
  buildSpectrum(TrigOp::kCosSynth, c, s.re2.data(), s.im2.data(),
                1.0 / static_cast<double>(m_));
  inverseFromSpectrum(c, false, s);
}

void SpectralPlan::sineSynthesis(std::span<double> sv,
                                 SpectralScratch& s) const {
  assert(sv.size() == n_);
  if (n_ < 2) return;
  s.resize(n_);
  buildSpectrum(TrigOp::kSinSynth, sv, s.re2.data(), s.im2.data(),
                1.0 / static_cast<double>(m_));
  inverseFromSpectrum(sv, true, s);
}

void SpectralPlan::apply(TrigOp op, std::span<double> x,
                         SpectralScratch& s) const {
  switch (op) {
    case TrigOp::kDct2:
      dct2(x, s);
      break;
    case TrigOp::kIdct2:
      idct2(x, s);
      break;
    case TrigOp::kCosSynth:
      cosineSynthesis(x, s);
      break;
    case TrigOp::kSinSynth:
      sineSynthesis(x, s);
      break;
  }
}

void SpectralPlan::synthesisPair(std::span<double> a, TrigOp opA,
                                 std::span<double> b, TrigOp opB,
                                 SpectralScratch& s) const {
  assert(a.size() == n_ && b.size() == n_);
  assert(opA == TrigOp::kCosSynth || opA == TrigOp::kSinSynth);
  assert(opB == TrigOp::kCosSynth || opB == TrigOp::kSinSynth);
  const std::size_t n = n_;
  const std::size_t m = m_;
  if (n < 2) return;
  s.resize(n);
  // Two Hermitian spectra, each in slots 0..M (re2/im2 hold both lanes).
  double* aRe = s.re2.data();
  double* aIm = s.im2.data();
  double* bRe = aRe + (m + 1);
  double* bIm = aIm + (m + 1);
  // Full-length inverse carries 1/N, so the synthesis weights become
  // dc = 1, ac = 1/2 (vs dc = 2, ac = 1 on the half-length path).
  const double norm = 1.0 / static_cast<double>(n);
  buildSpectrum(opA, a, aRe, aIm, norm);
  buildSpectrum(opB, b, bRe, bIm, norm);
  // Q_k = V^a_k + i V^b_k; both sequences are recovered from one complex
  // inverse FFT as Re/Im because each V alone would synthesize to a real
  // signal. Upper half via Hermitian symmetry V_{N-k} = conj(V_k).
  double* qr = s.re.data();
  double* qi = s.im.data();
  for (std::size_t k = 0; k <= m; ++k) {
    qr[k] = aRe[k] - bIm[k];
    qi[k] = aIm[k] + bRe[k];
  }
  for (std::size_t k = m + 1; k < n; ++k) {
    const std::size_t j = n - k;
    qr[k] = aRe[j] + bIm[j];
    qi[k] = bRe[j] - aIm[j];
  }
  fftCore(qr, qi, n, bitrevN_.data(), stRe_.data(), stImI_.data());
  // buf^a = Re q, buf^b = Im q; un-permute both, folding each op's DST
  // sign into its odd (2i+1) slots.
  const double sA = opA == TrigOp::kSinSynth ? -1.0 : 1.0;
  const double sB = opB == TrigOp::kSinSynth ? -1.0 : 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    a[2 * i] = qr[i];
    a[2 * i + 1] = sA * qr[n - 1 - i];
    b[2 * i] = qi[i];
    b[2 * i + 1] = sB * qi[n - 1 - i];
  }
}

namespace {

std::size_t poolThreads(ThreadPool* pool) {
  return pool != nullptr ? static_cast<std::size_t>(pool->threads()) : 1;
}

}  // namespace

void spectral2d(std::span<double> grid, std::size_t nx, std::size_t ny,
                const SpectralPlan& planX, const SpectralPlan& planY,
                TrigOp opX, TrigOp opY, ThreadPool* pool,
                Spectral2dWorkspace* ws) {
  assert(grid.size() == nx * ny);
  assert(planX.size() == nx && planY.size() == ny);
  Spectral2dWorkspace local;
  if (ws == nullptr) ws = &local;
  const std::size_t nt = poolThreads(pool);
  if (ws->perThread.size() < nt) ws->perThread.resize(nt);

  // Rows (x direction, contiguous). Each row is an independent 1-D
  // transform; batches of rows go to distinct threads, and per-row
  // arithmetic never depends on the batch — bit-identical at any thread
  // count.
  auto rows = [&](std::size_t part, std::size_t b, std::size_t e) {
    auto& pt = ws->perThread[part];
    for (std::size_t iy = b; iy < e; ++iy) {
      planX.apply(opX, grid.subspan(iy * nx, nx), pt.s);
    }
  };
  // Columns (y direction, strided gather/scatter through a dense buffer).
  auto cols = [&](std::size_t part, std::size_t b, std::size_t e) {
    auto& pt = ws->perThread[part];
    pt.colA.resize(ny);
    for (std::size_t ix = b; ix < e; ++ix) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        pt.colA[iy] = grid[iy * nx + ix];
      }
      planY.apply(opY, pt.colA, pt.s);
      for (std::size_t iy = 0; iy < ny; ++iy) {
        grid[iy * nx + ix] = pt.colA[iy];
      }
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(ny, rows, 1);
    pool->parallelFor(nx, cols, 1);
  } else {
    rows(0, 0, ny);
    cols(0, 0, nx);
  }
}

void spectralFieldSynthesis2d(std::span<double> ex, std::span<double> ey,
                              std::size_t nx, std::size_t ny,
                              const SpectralPlan& planX,
                              const SpectralPlan& planY, ThreadPool* pool,
                              Spectral2dWorkspace* ws) {
  assert(ex.size() == nx * ny && ey.size() == nx * ny);
  assert(planX.size() == nx && planY.size() == ny);
  Spectral2dWorkspace local;
  if (ws == nullptr) ws = &local;
  const std::size_t nt = poolThreads(pool);
  if (ws->perThread.size() < nt) ws->perThread.resize(nt);

  // Pairing is by grid index (ex row iy with ey row iy), never by
  // partition, so the fused transforms keep the thread-count-determinism
  // contract. The row pass is a barrier before the column pass, which is
  // exactly the ordering the separable transform needs.
  auto rows = [&](std::size_t part, std::size_t b, std::size_t e) {
    auto& pt = ws->perThread[part];
    for (std::size_t iy = b; iy < e; ++iy) {
      planX.synthesisPair(ex.subspan(iy * nx, nx), TrigOp::kSinSynth,
                          ey.subspan(iy * nx, nx), TrigOp::kCosSynth, pt.s);
    }
  };
  auto cols = [&](std::size_t part, std::size_t b, std::size_t e) {
    auto& pt = ws->perThread[part];
    pt.colA.resize(ny);
    pt.colB.resize(ny);
    for (std::size_t ix = b; ix < e; ++ix) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        pt.colA[iy] = ex[iy * nx + ix];
        pt.colB[iy] = ey[iy * nx + ix];
      }
      planY.synthesisPair(pt.colA, TrigOp::kCosSynth, pt.colB,
                          TrigOp::kSinSynth, pt.s);
      for (std::size_t iy = 0; iy < ny; ++iy) {
        ex[iy * nx + ix] = pt.colA[iy];
        ey[iy * nx + ix] = pt.colB[iy];
      }
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(ny, rows, 1);
    pool->parallelFor(nx, cols, 1);
  } else {
    rows(0, 0, ny);
    cols(0, 0, nx);
  }
}

}  // namespace ep
