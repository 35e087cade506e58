// Content-addressed profile interning (the fleet's memory tier).
//
// Fleet serving wants ONE copy of each distinct profile across all of its
// sessions, and a serving process that churns through millions of sessions
// must not pin every profile it ever saw (TrackerEngine::add_profile used
// to retain each one in a flat vector forever). The store does both:
//
//   * interning is by CONTENT HASH — the CRC32 of the profile's
//     canonical byte encoding (the same generalized from the flight
//     recorder's per-object profile interning in src/replay/recorder.cpp)
//     with a full structural-equality check on hash hits, so two
//     byte-identical profiles always share one allocation and a hash
//     collision can never alias distinct profiles;
//   * entries are WEAK — the store never keeps a profile alive. Sessions
//     and callers hold the shared_ptr; when the last reference dies the
//     profile is freed. intern() sweeps the dead entries of its own hash
//     bucket, and the whole index whenever it has doubled since the last
//     full sweep, so the index stays within about twice the live profiles
//     at amortized O(1) per intern (every sweep is counted in evicted).
//     A destroyed fleet therefore releases its profile memory.
//
// Stored profiles are immutable: a recalibrated profile is a new intern.
//
// Thread model: every member is safe to call concurrently (one mutex
// around the index; the index holds weak_ptrs, so the lock is never held
// across user code or profile destruction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/profile.h"
#include "obs/sink.h"

namespace vihot::engine {

/// Per-fleet content-addressed profile store.
class ProfileStore {
 public:
  /// `stats` may be null (counting off). Not owned; must outlive the
  /// store.
  explicit ProfileStore(obs::ProfileStoreStats* stats = nullptr)
      : stats_(stats) {}

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Interns `profile`: returns the one live shared instance with this
  /// content (dedup hit), or adopts `profile` as a fresh allocation.
  std::shared_ptr<const core::CsiProfile> intern(core::CsiProfile profile);

  /// Live (still-referenced) interned profiles.
  [[nodiscard]] std::size_t live_count() const;

  /// Index entries, including not-yet-swept expired ones (diagnostics).
  [[nodiscard]] std::size_t index_size() const;

  /// Canonical content hash: CRC32 over the profile's byte encoding
  /// (doubles as raw IEEE-754 bits, so hashing is exact — no epsilon).
  [[nodiscard]] static std::uint32_t content_hash(
      const core::CsiProfile& profile);

 private:
  /// Erases every expired entry; returns how many. Requires mu_.
  std::size_t sweep_locked();

  mutable std::mutex mu_;
  /// hash -> weak profile; multimap so a (vanishingly rare) collision
  /// keeps both profiles addressable.
  std::unordered_multimap<std::uint32_t,
                          std::weak_ptr<const core::CsiProfile>>
      index_;
  /// Index size that triggers the next full sweep (twice the size the
  /// last sweep left, and never below a small floor).
  std::size_t sweep_at_ = kMinSweepAt;
  static constexpr std::size_t kMinSweepAt = 64;
  obs::ProfileStoreStats* stats_ = nullptr;  ///< not owned; may be null
};

/// Exact structural equality (bit-level on doubles), the collision guard
/// behind content-hash interning.
[[nodiscard]] bool profiles_equal(const core::CsiProfile& a,
                                  const core::CsiProfile& b) noexcept;

}  // namespace vihot::engine
