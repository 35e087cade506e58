#include "dsp/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "dsp/simd_impl.h"

namespace vihot::dsp::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels: the bit-contract. Every other table must reproduce
// these operation sequences exactly (see simd.h / DESIGN.md §5j).
// ---------------------------------------------------------------------------

double scalar_band_lower_bound(const double* seg, const double* lo,
                               const double* hi, std::size_t n,
                               double stop_above) noexcept {
  double acc = 0.0;
  std::size_t j = 0;
  while (j < n) {
    const std::size_t block_end = std::min(j + 4, n);
    for (; j < block_end; ++j) {
      acc += detail::band_cost_cell(seg[j], lo[j], hi[j]);
    }
    if (acc > stop_above) return acc;
  }
  return acc;
}

void scalar_envelope_update(double v, double* lo, double* hi,
                            std::size_t j_lo, std::size_t j_hi) noexcept {
  for (std::size_t j = j_lo; j <= j_hi; ++j) {
    lo[j] = std::min(lo[j], v);
    hi[j] = std::max(hi[j], v);
  }
}

void scalar_subtract_offset(const double* src, double shift, double* dst,
                            std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i] - shift;
  }
}

void scalar_conj_products(const std::complex<double>* a,
                          const std::complex<double>* b, double* re,
                          double* im, std::size_t n) noexcept {
  for (std::size_t f = 0; f < n; ++f) {
    const double ar = a[f].real();
    const double ai = a[f].imag();
    const double br = b[f].real();
    const double bi = b[f].imag();
    re[f] = ar * br + ai * bi;
    im[f] = ai * br - ar * bi;
  }
}

// The batch entry is detail::dtw_banded_batch_rowmajor itself: the
// per-lane loop over the row-major kernel that defines the batch contract.
constexpr KernelTable kScalarTable{
    Level::kScalar,
    detail::dtw_banded_batch_rowmajor,
    scalar_band_lower_bound,
    scalar_envelope_update,
    scalar_subtract_offset,
    scalar_conj_products,
};

// ---------------------------------------------------------------------------
// Dispatch resolution.
// ---------------------------------------------------------------------------

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const KernelTable* resolve() noexcept {
  const char* env = std::getenv("VIHOT_SIMD");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
       std::strcmp(env, "0") == 0)) {
    return &kScalarTable;
  }
  // "avx2"/"auto"/unset/anything else: take the best table the CPU can
  // run; an explicit "avx2" on a CPU without it degrades to scalar
  // rather than crashing on an illegal instruction.
  const KernelTable* avx2 = avx2_kernels();
  if (avx2 != nullptr && cpu_has_avx2()) return avx2;
  return &kScalarTable;
}

std::atomic<const KernelTable*> g_forced{nullptr};

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
    default:
      return "scalar";
  }
}

const KernelTable& scalar_kernels() noexcept { return kScalarTable; }

#if !VIHOT_HAVE_AVX2_TU
// Non-x86 build or a compiler without -mavx2: only the scalar table
// exists (the real definition lives in simd_avx2.cpp otherwise).
const KernelTable* avx2_kernels() noexcept { return nullptr; }
#endif

bool avx2_supported() noexcept {
  return avx2_kernels() != nullptr && cpu_has_avx2();
}

const KernelTable& active() noexcept {
  const KernelTable* forced = g_forced.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  // Resolved once; the probe and env read are race-free behind the
  // magic-static.
  static const KernelTable* resolved = resolve();
  return *resolved;
}

Level active_level() noexcept { return active().level; }

void force_kernels(const KernelTable* table) noexcept {
  g_forced.store(table, std::memory_order_release);
}

}  // namespace vihot::dsp::simd
