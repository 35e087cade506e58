#include "engine/profile_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/crc32.h"

namespace vihot::engine {

namespace {

// Streaming canonical encoder: feeds each field's raw bytes through the
// CRC in a fixed order, with explicit length prefixes so that two
// profiles whose flattened byte streams happen to line up (e.g. a value
// migrating between adjacent series) still hash differently. Doubles
// hash as raw IEEE-754 bits — exact, and the same canonicalization the
// flight recorder uses for its interned profile chunks.
class Crc32Stream {
 public:
  void feed_u64(std::uint64_t v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    crc_ = util::crc32(b, sizeof v, crc_);
  }
  void feed_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    feed_u64(bits);
  }
  void feed_doubles(const std::vector<double>& vs) {
    feed_u64(vs.size());
    if (!vs.empty()) {
      crc_ = util::crc32(reinterpret_cast<const unsigned char*>(vs.data()),
                         vs.size() * sizeof(double), crc_);
    }
  }
  [[nodiscard]] std::uint32_t value() const noexcept { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

void feed_series(Crc32Stream& s, const util::UniformSeries& u) {
  s.feed_double(u.t0);
  s.feed_double(u.dt);
  s.feed_doubles(u.values);
}

bool series_equal(const util::UniformSeries& a,
                  const util::UniformSeries& b) noexcept {
  return std::memcmp(&a.t0, &b.t0, sizeof a.t0) == 0 &&
         std::memcmp(&a.dt, &b.dt, sizeof a.dt) == 0 &&
         a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

bool vec3_equal(const geom::Vec3& a, const geom::Vec3& b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::uint32_t ProfileStore::content_hash(const core::CsiProfile& profile) {
  Crc32Stream s;
  s.feed_double(profile.sample_rate_hz);
  s.feed_double(profile.reference_phase);
  s.feed_u64(profile.positions.size());
  for (const core::PositionProfile& p : profile.positions) {
    s.feed_u64(p.position_index);
    s.feed_double(p.fingerprint_phase);
    feed_series(s, p.csi);
    feed_series(s, p.orientation);
    s.feed_double(p.true_position.x);
    s.feed_double(p.true_position.y);
    s.feed_double(p.true_position.z);
  }
  return s.value();
}

bool profiles_equal(const core::CsiProfile& a,
                    const core::CsiProfile& b) noexcept {
  if (std::memcmp(&a.sample_rate_hz, &b.sample_rate_hz,
                  sizeof a.sample_rate_hz) != 0 ||
      std::memcmp(&a.reference_phase, &b.reference_phase,
                  sizeof a.reference_phase) != 0 ||
      a.positions.size() != b.positions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    const core::PositionProfile& pa = a.positions[i];
    const core::PositionProfile& pb = b.positions[i];
    if (pa.position_index != pb.position_index ||
        std::memcmp(&pa.fingerprint_phase, &pb.fingerprint_phase,
                    sizeof pa.fingerprint_phase) != 0 ||
        !series_equal(pa.csi, pb.csi) ||
        !series_equal(pa.orientation, pb.orientation) ||
        !vec3_equal(pa.true_position, pb.true_position)) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const core::CsiProfile> ProfileStore::intern(
    core::CsiProfile profile) {
  const std::uint32_t hash = content_hash(profile);
  std::lock_guard<std::mutex> lk(mu_);
  auto [begin, end] = index_.equal_range(hash);
  std::size_t expired = 0;
  for (auto it = begin; it != end;) {
    if (std::shared_ptr<const core::CsiProfile> live = it->second.lock()) {
      if (profiles_equal(*live, profile)) {
        if (stats_ != nullptr) stats_->dedup_hits.inc();
        return live;  // the incoming copy dies here; one allocation stays
      }
      ++it;
    } else {
      // Opportunistic sweep of this bucket: the profile died with its
      // last external reference; the index entry is all that remains.
      it = index_.erase(it);
      ++expired;
    }
  }
  auto fresh = std::make_shared<const core::CsiProfile>(std::move(profile));
  index_.emplace(hash, fresh);
  if (stats_ != nullptr) stats_->interned.inc();
  // Distinct profiles land in distinct buckets, so the bucket sweep above
  // never reaches their corpses. A full sweep once the index has doubled
  // keeps it within ~2x the live profiles; its O(index) cost is paid for
  // by the index/2 interns since the last one.
  if (index_.size() >= sweep_at_) {
    expired += sweep_locked();
    sweep_at_ = std::max(2 * index_.size(), kMinSweepAt);
  }
  if (stats_ != nullptr && expired > 0) stats_->evicted.inc(expired);
  return fresh;
}

std::size_t ProfileStore::sweep_locked() {
  std::size_t removed = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.expired()) {
      it = index_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t ProfileStore::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [hash, weak] : index_) {
    if (!weak.expired()) ++n;
  }
  return n;
}

std::size_t ProfileStore::index_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.size();
}

}  // namespace vihot::engine
