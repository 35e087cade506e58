// PhaseSanitizer: the backend interface of the sanitize stage.
//
// The sanitize stage turns one raw CSI frame into the scalar phase every
// later stage of ViHOT consumes. Two backends implement it:
//
//   * CsiSanitizer (kEqDiff, the paper's design, sanitizer.h): the
//     stateless Eq. 3 antenna difference + circular subcarrier mean.
//   * KalmanPhaseSanitizer (kKalman, kalman_sanitizer.h): a scalar
//     Kalman filter per subcarrier over the same antenna difference,
//     smoothing thermal noise before the circular-mean combine.
//
// Backends may hold per-session state (the Kalman one does), so
// sanitize() is non-const and a tracker owns its sanitizer exclusively.
// Construction goes through make_phase_sanitizer(TrackerConfig), keyed
// by TrackerConfig::sanitizer_backend.
#pragma once

#include <cstdint>
#include <memory>

#include "wifi/csi.h"

namespace vihot::obs {
struct TrackerStats;
}

namespace vihot::core {

struct TrackerConfig;

/// Which sanitize-stage backend turns raw CSI frames into the scalar
/// phase. Encoded into the .vrlog TrackerConfig chunk (layout v2), so
/// the numeric values are part of the recorded format — append only.
enum class SanitizerBackend : std::uint8_t {
  kEqDiff = 0,  ///< stateless Eq. 3 antenna difference (paper default)
  kKalman = 1,  ///< per-subcarrier Kalman phase recovery
};

/// Canonical CLI/report name ("eq3" / "kalman").
[[nodiscard]] const char* to_string(SanitizerBackend backend) noexcept;

/// Parses a CLI spelling; returns false (and leaves `out` untouched) on
/// an unknown name.
[[nodiscard]] bool parse_sanitizer_backend(const char* name,
                                           SanitizerBackend* out) noexcept;

/// The sanitize-stage backend interface.
class PhaseSanitizer {
 public:
  virtual ~PhaseSanitizer() = default;

  /// The sanitized scalar phase of one frame, in (-pi, pi]. Frames must
  /// arrive in time order (the tracker's feed contract).
  [[nodiscard]] virtual double sanitize(const wifi::CsiMeasurement& m) = 0;

  /// Reporting sink for per-backend counters (nullptr = off).
  virtual void set_stats(obs::TrackerStats* stats) = 0;

  [[nodiscard]] virtual SanitizerBackend backend() const noexcept = 0;
};

/// Builds the sanitize backend selected by `config.sanitizer_backend`.
[[nodiscard]] std::unique_ptr<PhaseSanitizer> make_phase_sanitizer(
    const TrackerConfig& config);

}  // namespace vihot::core
