// Runtime-dispatched SIMD kernels for the matcher and sanitizer hot
// paths (DESIGN.md §5j).
//
// The contract that makes dispatch safe is BIT-IDENTITY: every kernel
// is specified as an exact sequence of rounded floating-point
// operations per output element, and every implementation — the
// portable scalar fallback and the AVX2 variant — executes that same
// sequence. No reassociation, no FMA contraction, no per-lane
// accumulation reshuffling. A kernel whose natural vectorization would
// require reassociating a serial reduction (prefix sums, the circular
// mean over subcarriers) is NOT dispatched here; it stays scalar by
// design and the vector units only ever see the element-wise part.
// That is what keeps the matcher-equivalence and replay-gate labels
// byte-identical whichever implementation runs, and it is why the
// dispatcher can be flipped at runtime (VIHOT_SIMD=off) without
// versioning the golden corpus.
//
// Adding a kernel (the checklist DESIGN.md §5j spells out):
//   1. write the scalar implementation as the bit-contract,
//   2. add a function pointer to KernelTable and wire it into
//      scalar_kernels() and the AVX2 table in simd_avx2.cpp,
//   3. prove the AVX2 lanes replay the scalar operation sequence
//      (memcmp test in tests/dsp/simd_kernels_test.cpp),
//   4. route the call site through simd::active().
#pragma once

#include <complex>
#include <cstddef>
#include <new>
#include <vector>

namespace vihot::dsp::simd {

/// Which implementation family a kernel table contains.
enum class Level {
  kScalar,  ///< portable fallback — the bit-contract itself
  kAvx2,    ///< AVX2 (4 x double lanes), x86-64 only
};

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Minimal 32-byte-aligned allocator so kernel operands sit on vector
/// register boundaries (AVX2 loads are issued unaligned-tolerant, but
/// aligned rows keep split-line penalties out of the hot loop).
template <typename T, std::size_t Alignment = 32>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// 32-byte-aligned double buffer; the element type of every per-candidate
/// scratch span in MatchWorkspace.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

/// Candidates one dtw_banded_batch call scores: two AVX2 vectors of
/// four doubles, whose independent DP chains hide each other's latency.
inline constexpr std::size_t kDtwBatchLanes = 8;

/// Scratch for the batched DTW kernel, carved by dsp::DtwBatchBuffers
/// out of one 32-byte-aligned block. INVARIANT between calls: every
/// `rows` cell is +infinity — each kernel restores the cells it dirtied
/// before returning (clearing only written spans, which keeps banded DTW
/// O(band) per row). `block` carries no invariant; a kernel may
/// overwrite it freely. The scalar kernel rolls its two DP rows in the
/// first two strides of `rows`; the AVX2 kernel rolls two DP rows of
/// kDtwBatchLanes interleaved lanes there and transposes the segments
/// into `block`.
struct DtwBatchScratch {
  double* rows = nullptr;   ///< 2 * kDtwBatchLanes * stride cells
  double* block = nullptr;  ///< kDtwBatchLanes * stride cells
  std::size_t stride = 0;   ///< multiple of 4; >= max(n, m) + 1
};

/// The dispatched kernels. One table per implementation family; all
/// tables are immutable after construction and safe to share across
/// threads. Inputs are required to be finite unless a kernel documents
/// otherwise (DP rows and envelopes may carry +/-infinity sentinels).
struct KernelTable {
  Level level = Level::kScalar;

  /// (a) Up to kDtwBatchLanes banded DTW evaluations of ONE shape, the
  /// matcher's entry (every start offset of a candidate length shares
  /// n, m, the band and the bar). This is the only dispatched DTW entry;
  /// dsp::dtw_distance runs the scalar row-major kernel directly.
  ///
  /// Each lane l in [0, count) scores the segment segs[l] (call it b)
  /// with the classic DP: dp[0][0] = 0, every other boundary cell
  /// +infinity, and for each row i in [1, n] and in-band column j in
  /// [j_lo[i], j_hi[i]] (1-based, inclusive, j_lo[i] <= j_hi[i]):
  ///
  ///   dp[i][j] = min(dp[i-1][j-1], dp[i-1][j], dp[i][j-1])
  ///              + (a[i-1] - b[j-1])^2
  ///
  /// i.e. one sub, one mul, an EXACT three-way min (min introduces no
  /// rounding, so its association/evaluation order is free), and exactly
  /// ONE rounded add — with `inf + finite == inf` covering unreachable
  /// predecessors. If min over dp[i][j_lo[i]..j_hi[i]] of any row i,
  /// taken in ascending i, exceeds abandon_above, out[l] = +infinity;
  /// otherwise out[l] = dp[n][m]. out[count..) is left untouched.
  ///
  /// The scalar table IS that definition: detail::dtw_banded_batch_rowmajor
  /// runs the row-major kernel once per live lane with the shared bar.
  /// The AVX2 table transposes the segments into an m x 8 block and runs
  /// the eight DPs in lockstep, four lanes per vector. Every lane
  /// executes exactly detail::dtw_cell (sub, mul, exact min, one rounded
  /// add) and the same per-row `row_min > abandon_above` test, so nothing
  /// is reassociated. A lane is dead from its first row over the bar (its
  /// result is +infinity, as the scalar kernel's early return); the
  /// batch stops once every live lane is dead. Lanes past `count`
  /// compute throwaway values and never hold the batch open.
  ///
  /// Preconditions: 1 <= count <= kDtwBatchLanes; n >= 1, m >= 1; each
  /// segs[l] holds m finite values; j_lo/j_hi are indexed [1, n] with
  /// 1 <= j_lo[i] <= j_hi[i] <= m and both nondecreasing in i (the
  /// Sakoe-Chiba geometry dtw_band_geometry yields); scratch.stride >=
  /// max(n, m) + 1; every scratch.rows cell is +infinity on entry. The
  /// kernel restores that invariant before returning.
  void (*dtw_banded_batch)(const double* a, std::size_t n,
                           const double* const* segs, std::size_t count,
                           std::size_t m, const std::size_t* j_lo,
                           const std::size_t* j_hi, double abandon_above,
                           const DtwBatchScratch& scratch,
                           double* out) noexcept;

  /// (b) LB_Keogh-style envelope lower bound with blocked early exit.
  ///
  /// acc starts at 0 and, in ascending j over [0, n), gains
  ///   below = lo[j] - v;  d1 = below > 0 ? below : 0
  ///   above = v - hi[j];  d2 = above > 0 ? above : 0
  ///   acc  += d1*d1 + d2*d2
  /// (per-element: two muls, one add between the squares, one add into
  /// acc — in that order). The early-exit check `acc > stop_above`
  /// happens once per 4-element block instead of per element; partial
  /// sums of non-negative terms are monotone, so the caller's
  /// `result > stop_above` decision is identical to a per-element exit,
  /// and the no-exit path returns the same in-order full sum.
  double (*band_lower_bound)(const double* seg, const double* lo,
                             const double* hi, std::size_t n,
                             double stop_above) noexcept;

  /// (b) Envelope min/max update over one DP row's column span:
  /// lo[j] = std::min(lo[j], v), hi[j] = std::max(hi[j], v) for j in
  /// [j_lo, j_hi] inclusive. Implemented with compare+select (not
  /// vminpd/vmaxpd) so the result matches std::min/std::max operand
  /// selection bit-for-bit, including signed zeros.
  void (*envelope_update)(double v, double* lo, double* hi,
                          std::size_t j_lo, std::size_t j_hi) noexcept;

  /// (c) Segment/query prep: dst[i] = src[i] - shift for i in [0, n).
  /// Element-wise, one rounded subtract per output.
  void (*subtract_offset)(const double* src, double shift, double* dst,
                          std::size_t n) noexcept;

  /// (d) Per-subcarrier conjugate products a[f] * conj(b[f]) into split
  /// re/im arrays:
  ///   re[f] = a_re*b_re + a_im*b_im
  ///   im[f] = a_im*b_re - a_re*b_im
  /// (two muls then one add/sub per component — exactly the main path
  /// of the compiler's complex multiply for finite, non-NaN operands,
  /// with conj(b)'s sign flip folded in exactly). The circular-mean
  /// accumulation over f stays with the caller, in scan order.
  void (*conj_products)(const std::complex<double>* a,
                        const std::complex<double>* b, double* re,
                        double* im, std::size_t n) noexcept;
};

/// The portable scalar table — the bit-contract every other table must
/// reproduce.
[[nodiscard]] const KernelTable& scalar_kernels() noexcept;

/// The AVX2 table, or nullptr when unavailable (non-x86 build, compiler
/// without -mavx2, or a CPU without AVX2 at runtime).
[[nodiscard]] const KernelTable* avx2_kernels() noexcept;

/// True when the running CPU supports AVX2 and the AVX2 table was
/// compiled in.
[[nodiscard]] bool avx2_supported() noexcept;

/// The table hot paths should use. Resolved once per process:
///   VIHOT_SIMD=off|scalar  -> scalar_kernels()
///   VIHOT_SIMD=avx2        -> AVX2 if available, else scalar
///   VIHOT_SIMD=auto|unset  -> AVX2 if available, else scalar
/// Unrecognized values behave like `auto`. A force_kernels() override
/// (tests/benches) takes precedence over the resolved table.
[[nodiscard]] const KernelTable& active() noexcept;

/// Level of the table active() currently returns.
[[nodiscard]] Level active_level() noexcept;

/// Test/bench hook: pin active() to a specific table (pass nullptr to
/// restore the env/probe resolution). Not for production call sites.
void force_kernels(const KernelTable* table) noexcept;

/// RAII guard around force_kernels for tests.
class ForcedKernels {
 public:
  explicit ForcedKernels(const KernelTable& table) { force_kernels(&table); }
  ~ForcedKernels() { force_kernels(nullptr); }
  ForcedKernels(const ForcedKernels&) = delete;
  ForcedKernels& operator=(const ForcedKernels&) = delete;
};

}  // namespace vihot::dsp::simd
