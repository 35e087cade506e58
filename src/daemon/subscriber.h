// Subscriber fan-out: decouples the daemon's tick loop from its
// stream consumers.
//
// Each tick the daemon encodes ONE kResults frame and hands the hub a
// shared immutable buffer; the hub enqueues a reference into every
// live subscriber's bounded queue and a per-subscriber writer thread
// drains it onto the socket. A slow or stalled subscriber therefore
// costs the tick loop at most a bounded enqueue decision — never a
// blocking socket write — and the daemon's memory stays bounded at
// (subscribers x capacity) frame references.
//
// Overflow reuses the ingest-ring vocabulary (engine::OverloadPolicy):
//
//   kDropOldest  displace the oldest queued frame (freshest tick wins —
//                the default: a newer head pose supersedes a stale one)
//   kDropNewest  reject the incoming frame (contiguous oldest prefix)
//   kBlock       wait up to block_timeout_ms for the writer to free a
//                slot, then drop the incoming frame and count a
//                timeout — bounded, so one dead consumer can never
//                stall the tick loop for the rest of the fleet.
//
// Every decision is counted through obs::DaemonStats (drops per kind,
// block timeouts, queue depth at enqueue, send errors).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/socket.h"
#include "engine/ingest.h"
#include "obs/sink.h"

namespace vihot::daemon {

using FrameBytes = std::shared_ptr<const std::vector<unsigned char>>;

struct SubscriberOptions {
  engine::OverloadPolicy policy = engine::OverloadPolicy::kDropOldest;
  std::size_t capacity = 64;        ///< queued frames per subscriber
  int block_timeout_ms = 50;        ///< kBlock: bounded wait per enqueue
};

/// Owns every subscriber queue + writer thread. Thread-safe: add /
/// remove / broadcast may race with each other and with writer exits.
class SubscriberHub {
 public:
  explicit SubscriberHub(obs::Sink* sink = nullptr) : sink_(sink) {}
  ~SubscriberHub() { shutdown_all(0); }

  SubscriberHub(const SubscriberHub&) = delete;
  SubscriberHub& operator=(const SubscriberHub&) = delete;

  /// Registers a subscriber writing to `conn` (shared with the daemon's
  /// connection bookkeeping; the hub only ever calls send_all /
  /// shutdown_both on it). Returns its id. The subscriber's first frame
  /// is a kSubscribeAck, sent by its writer ahead of every broadcast
  /// frame, so a client that has read the ack misses no later tick.
  std::uint64_t add(std::shared_ptr<Stream> conn,
                    const SubscriberOptions& options);

  /// Unregisters and joins the writer. When `flush` is true the writer
  /// first drains whatever is queued (bounded by flush_timeout_ms) and
  /// appends a kBye frame; otherwise the queue is abandoned. Safe to
  /// call with an id already reaped by a send error.
  void remove(std::uint64_t id, bool flush, int flush_timeout_ms);

  /// Enqueues `frame` to every live subscriber (applying each one's
  /// overflow policy) and prunes subscribers whose writer died.
  void broadcast(const FrameBytes& frame);

  /// Drains and dismantles everything (daemon shutdown): each queue is
  /// flushed with the shared deadline, a kBye frame is sent, writers
  /// are joined. Idempotent.
  void shutdown_all(int flush_timeout_ms);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Sub {
    std::shared_ptr<Stream> conn;
    SubscriberOptions options;
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<FrameBytes> queue;
    bool closing = false;  ///< stop after draining the queue
    bool dead = false;     ///< send error / force-out: stop now
    bool exited = false;   ///< writer loop returned (join is instant)
    std::thread writer;
  };

  void enqueue(Sub& sub, const FrameBytes& frame);
  void writer_loop(Sub& sub);
  /// Drains (optionally) then joins `sub`'s writer. Not thread-safe per
  /// sub; callers must have removed it from the map first.
  void finish(Sub& sub, bool flush, int flush_timeout_ms);
  /// Joins + erases `it`'s subscriber. Caller holds subs_mu_.
  void reap_locked(std::unordered_map<std::uint64_t,
                                      std::shared_ptr<Sub>>::iterator it);

  obs::Sink* sink_;
  mutable std::mutex subs_mu_;
  /// Shared, not unique: broadcast() enqueues outside subs_mu_ (a kBlock
  /// enqueue may wait), so a concurrent remove() must not free a Sub
  /// that an enqueue is still waiting on.
  std::unordered_map<std::uint64_t, std::shared_ptr<Sub>> subs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace vihot::daemon
