#include "engine/tracker_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace vihot::engine {

TrackerEngine::TrackerEngine(const Config& config)
    : pool_(config.num_threads),
      parallel_single_session_(config.parallel_single_session),
      sink_(config.sink),
      tap_(config.tap),
      ingest_config_(config.ingest),
      router_(config.ingest.lanes != 0
                  ? config.ingest.lanes
                  : std::max<std::size_t>(config.num_threads, 1)),
      own_profile_store_(config.sink ? &config.sink->profile_store : nullptr),
      profile_store_(config.profiles != nullptr ? config.profiles
                                                : &own_profile_store_) {
  if (tap_ != nullptr) {
    tap_->on_engine_start(EngineDescriptor{
        config.num_threads, config.parallel_single_session, config.ingest});
  }
}

std::shared_ptr<const core::CsiProfile> TrackerEngine::add_profile(
    core::CsiProfile profile) {
  return profile_store_->intern(std::move(profile));
}

SessionId TrackerEngine::create_session(
    std::shared_ptr<const core::CsiProfile> profile,
    const core::TrackerConfig& config) {
  // Exclude batch ticks so roster_/results_ never reshape under a
  // running estimate_all().
  std::lock_guard<std::mutex> batch(batch_mu_);
  std::unique_lock<std::shared_mutex> lk(roster_mu_);
  const SessionId id = next_id_++;
  // Sessions without their own sink inherit the engine's, so one hub
  // aggregates both the serving metrics and the per-stage counters.
  core::TrackerConfig cfg = config;
  if (cfg.sink == nullptr) cfg.sink = sink_;
  // Point every session's matcher at the pool-lending adapter. It only
  // engages while estimate_all() arms it for a lone-session tick; at all
  // other times it declines and the matcher scans serially.
  if (parallel_single_session_ && cfg.matcher.parallel == nullptr) {
    cfg.matcher.parallel = &match_parallel_;
  }
  // Record the session under the exclusive roster lock, BEFORE any feed
  // hook can fire for it, with the resolved config (minus runtime-only
  // pointer wiring, which the serializer skips anyway).
  if (tap_ != nullptr) tap_->on_session_created(id, cfg, profile);
  auto session = std::make_unique<TrackerSession>(
      id, std::move(profile), cfg, sink_ ? &sink_->engine : nullptr,
      ingest_config_, sink_ ? &sink_->ingest : nullptr, tap_);
  roster_.push_back(session.get());
  roster_ids_.push_back(id);
  router_.assign(id, session.get());
  results_.resize(roster_.size());
  sessions_.emplace(id, std::move(session));
  if (sink_ != nullptr) sink_->engine.sessions_created.inc();
  return id;
}

bool TrackerEngine::destroy_session(SessionId id) {
  std::lock_guard<std::mutex> batch(batch_mu_);
  std::unique_lock<std::shared_mutex> lk(roster_mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (sink_ != nullptr) sink_->engine.unknown_session.inc();
    return false;
  }
  if (tap_ != nullptr) tap_->on_session_destroyed(id);
  roster_.erase(std::remove(roster_.begin(), roster_.end(), it->second.get()),
                roster_.end());
  roster_ids_.erase(
      std::remove(roster_ids_.begin(), roster_ids_.end(), id),
      roster_ids_.end());
  router_.remove(id, it->second.get());
  results_.resize(roster_.size());
  sessions_.erase(it);
  if (sink_ != nullptr) sink_->engine.sessions_destroyed.inc();
  return true;
}

std::size_t TrackerEngine::session_count() const {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  return sessions_.size();
}

std::vector<SessionId> TrackerEngine::session_ids() const {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  std::vector<SessionId> ids;
  ids.reserve(roster_.size());
  for (const TrackerSession* s : roster_) ids.push_back(s->id());
  return ids;
}

std::span<const SessionId> TrackerEngine::session_ids_span() const {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  return {roster_ids_.data(), roster_ids_.size()};
}

TrackerSession* TrackerEngine::find(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (sink_ != nullptr) sink_->engine.unknown_session.inc();
    return nullptr;
  }
  return it->second.get();
}

bool TrackerEngine::push_csi(SessionId id, const wifi::CsiMeasurement& m) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  return s->push_csi(m);
}

bool TrackerEngine::push_imu(SessionId id, const imu::ImuSample& sample) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  return s->push_imu(sample);
}

bool TrackerEngine::push_camera(
    SessionId id, const camera::CameraTracker::Estimate& estimate) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  return s->push_camera(estimate);
}

bool TrackerEngine::offer_csi(SessionId id, const wifi::CsiMeasurement& m) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  return s->offer_csi(m);
}

bool TrackerEngine::offer_imu(SessionId id, const imu::ImuSample& sample) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  return s->offer_imu(sample);
}

std::size_t TrackerEngine::drain() {
  std::lock_guard<std::mutex> batch(batch_mu_);
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  return drain_locked();
}

std::size_t TrackerEngine::drain_locked() {
  // Async tier off only when BOTH rings are disabled: {csi: 0, imu: N}
  // still runs the IMU stream async, so the drain must sweep (a CSI-only
  // gate here used to strand every queued IMU sample in that config).
  if ((ingest_config_.csi_capacity == 0 && ingest_config_.imu_capacity == 0) ||
      roster_.empty()) {
    return 0;
  }
  // Quick scan: a fleet fed through the synchronous path has nothing
  // queued, and must not pay a second pool dispatch per tick for it.
  bool any_queued = false;
  for (const TrackerSession* s : roster_) {
    if (s->csi_queue_depth() > 0 || s->imu_queue_depth() > 0) {
      any_queued = true;
      break;
    }
  }
  if (!any_queued) return 0;
  std::atomic<std::size_t> total{0};
  auto lane_job = [&](std::size_t l) {
    std::size_t n = 0;
    for (TrackerSession* s : router_.lane(l)) n += s->drain();
    if (n > 0) total.fetch_add(n, std::memory_order_relaxed);
  };
  pool_.run(router_.num_lanes(), lane_job);
  return total.load(std::memory_order_relaxed);
}

std::optional<core::TrackResult> TrackerEngine::estimate_one(SessionId id,
                                                             double t_now) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return std::nullopt;
  s->drain();
  return s->estimate(t_now);
}

std::optional<core::Forecast> TrackerEngine::forecast_one(SessionId id,
                                                          double horizon_s) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return std::nullopt;
  return s->forecast(horizon_s);
}

bool TrackerEngine::swap_profile(
    SessionId id, std::shared_ptr<const core::CsiProfile> profile) {
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  TrackerSession* s = find(id);
  if (!s) return false;
  s->swap_profile(std::move(profile));
  if (sink_ != nullptr) sink_->engine.profile_swaps.inc();
  return true;
}

std::span<const core::TrackResult> TrackerEngine::estimate_all(double t_now) {
  std::lock_guard<std::mutex> batch(batch_mu_);
  std::shared_lock<std::shared_mutex> lk(roster_mu_);
  // Apply everything the producers queued since the last tick, lanes
  // fanned out across the (currently idle) pool. The tick-begin marker
  // follows the drain: feed taps fire at application (inside the drain
  // for async samples), so everything this tick's estimates can see is
  // recorded before the marker and replays ahead of it.
  drain_locked();
  if (tap_ != nullptr) tap_->on_tick_begin(t_now);
  auto job = [&](std::size_t i) { results_[i] = roster_[i]->estimate(t_now); };
  // A fleet of one gets no inter-session parallelism, so lend the idle
  // pool to that session's own segment search instead: the session runs
  // inline on this thread (the pool must be idle — WorkerPool::run is
  // not re-entrant) with the parallelizer armed for the duration.
  const bool lend_pool = parallel_single_session_ && roster_.size() == 1 &&
                         pool_.size() > 0;
  const auto run_batch = [&] {
    if (lend_pool) {
      match_parallel_.set_enabled(true);
      job(0);
      match_parallel_.set_enabled(false);
    } else {
      pool_.run(roster_.size(), job);
    }
  };
  if (sink_ == nullptr) {
    run_batch();
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    run_batch();
    const auto t1 = std::chrono::steady_clock::now();
    obs::EngineStats& stats = sink_->engine;
    stats.batches.inc();
    stats.batch_estimates.inc(roster_.size());
    stats.batch_latency_us.observe(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  if (tap_ != nullptr) {
    tap_->on_tick_end(t_now, {roster_ids_.data(), roster_ids_.size()},
                      {results_.data(), results_.size()});
  }
  return {results_.data(), results_.size()};
}

}  // namespace vihot::engine
