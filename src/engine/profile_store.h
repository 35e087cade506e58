// Content-addressed profile interning (the fleet's memory tier).
//
// Fleet serving breaks the per-engine profile model twice over: engines
// sharing a store want ONE copy of each distinct profile across all of
// them, and a serving process that churns through millions of sessions must
// not pin every profile it ever saw (TrackerEngine::add_profile used to
// retain each one in a flat vector forever). The store fixes both:
//
//   * interning is by CONTENT HASH — the CRC32 of the profile's
//     canonical byte encoding (the same generalized from the flight
//     recorder's per-object profile interning in src/replay/recorder.cpp)
//     with a full structural-equality check on hash hits, so two
//     byte-identical profiles always share one allocation and a hash
//     collision can never alias distinct profiles;
//   * entries are WEAK — the store never keeps a profile alive. Sessions
//     and callers hold the shared_ptr; when the last reference dies the
//     profile is freed, and the dead entry is swept (and counted) by the
//     next intern or an explicit evict_expired(). A destroyed fleet
//     therefore releases its profile memory.
//
// Hot-swap is copy-on-write at the profile granularity: cow() clones a
// live profile, applies the caller's mutation, and interns the result as
// a NEW immutable profile. Sessions still serving the old snapshot keep
// it alive until they are swapped over (TrackerEngine::swap_profile); the
// old snapshot is freed once unreferenced. Stored profiles are never
// mutated in place.
//
// Thread model: every member is safe to call concurrently (one mutex
// around the index; the index holds weak_ptrs, so the lock is never held
// across user code or profile destruction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/profile.h"
#include "obs/sink.h"

namespace vihot::engine {

/// Process-wide (or per-fleet) content-addressed profile store.
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

  /// Copy-on-write update: clones `base`, lets `mutate` edit the clone,
  /// and interns the result. `base` is never touched; sessions holding
  /// it keep serving the old snapshot until swapped.
  template <typename Fn>
  std::shared_ptr<const core::CsiProfile> cow(const core::CsiProfile& base,
                                              Fn&& mutate) {
    core::CsiProfile next = base;
    std::forward<Fn>(mutate)(next);
    return intern(std::move(next));
  }

  /// Sweeps expired (unreferenced) entries out of the index; returns how
  /// many were removed. intern() also sweeps opportunistically, so this
  /// only bounds the index size between interns.
  std::size_t evict_expired();

  /// Live (still-referenced) interned profiles.
  [[nodiscard]] std::size_t live_count() const;

  /// Index entries, including not-yet-swept expired ones (diagnostics).
  [[nodiscard]] std::size_t index_size() const;

  /// Canonical content hash: CRC32 over the profile's byte encoding
  /// (doubles as raw IEEE-754 bits, so hashing is exact — no epsilon).
  [[nodiscard]] static std::uint32_t content_hash(
      const core::CsiProfile& profile);

  /// The process-wide store shared by default across fleets (no stats;
  /// point a fleet at its own store to count into a sink).
  [[nodiscard]] static ProfileStore& global();

 private:
  mutable std::mutex mu_;
  /// hash -> weak profile; multimap so a (vanishingly rare) collision
  /// keeps both profiles addressable.
  std::unordered_multimap<std::uint32_t,
                          std::weak_ptr<const core::CsiProfile>>
      index_;
  obs::ProfileStoreStats* stats_ = nullptr;  ///< not owned; may be null
};

/// Exact structural equality (bit-level on doubles), the collision guard
/// behind content-hash interning.
[[nodiscard]] bool profiles_equal(const core::CsiProfile& a,
                                  const core::CsiProfile& b) noexcept;

}  // namespace vihot::engine
