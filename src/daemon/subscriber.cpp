#include "daemon/subscriber.h"

#include <chrono>

#include "daemon/protocol.h"

namespace vihot::daemon {

namespace {

FrameBytes empty_frame(MsgType type) {
  auto bytes = std::make_shared<std::vector<unsigned char>>();
  append_frame(*bytes, type, nullptr, 0);
  return bytes;
}

}  // namespace

std::uint64_t SubscriberHub::add(std::shared_ptr<Stream> conn,
                                 const SubscriberOptions& options) {
  auto sub = std::make_shared<Sub>();
  sub->conn = std::move(conn);
  sub->options = options;
  if (sub->options.capacity == 0) sub->options.capacity = 1;
  Sub* raw = sub.get();
  std::lock_guard<std::mutex> lk(subs_mu_);
  const std::uint64_t id = next_id_++;
  sub->writer = std::thread([this, raw] { writer_loop(*raw); });
  subs_.emplace(id, std::move(sub));
  if (sink_ != nullptr) sink_->daemon.subscribers_added.inc();
  return id;
}

void SubscriberHub::writer_loop(Sub& sub) {
  bool drained_clean = false;
  // The ack goes out before the first queued frame. It is not queued,
  // so no overload policy can displace it.
  FrameBytes frame = empty_frame(MsgType::kSubscribeAck);
  for (;;) {
    if (!sub.conn->send_all(frame->data(), frame->size())) {
      std::lock_guard<std::mutex> lk(sub.mu);
      sub.dead = true;
      if (sink_ != nullptr) sink_->daemon.sub_send_errors.inc();
      break;
    }
    if (sink_ != nullptr) sink_->daemon.bytes_tx.inc(frame->size());
    {
      std::unique_lock<std::mutex> lk(sub.mu);
      sub.not_empty.wait(lk, [&] {
        return !sub.queue.empty() || sub.closing || sub.dead;
      });
      if (sub.dead) break;
      if (sub.queue.empty()) {  // closing && drained
        drained_clean = true;
        break;
      }
      frame = std::move(sub.queue.front());
      sub.queue.pop_front();
      sub.not_full.notify_all();
    }
  }
  if (drained_clean) {
    // Graceful close: the queue drained inside the deadline, so the
    // stream ends with an explicit kBye marker.
    const FrameBytes bye = empty_frame(MsgType::kBye);
    if (sub.conn->send_all(bye->data(), bye->size()) && sink_ != nullptr) {
      sink_->daemon.bytes_tx.inc(bye->size());
    }
  }
  std::lock_guard<std::mutex> lk(sub.mu);
  sub.exited = true;
  sub.not_full.notify_all();
}

void SubscriberHub::enqueue(Sub& sub, const FrameBytes& frame) {
  using engine::OverloadPolicy;
  std::unique_lock<std::mutex> lk(sub.mu);
  if (sub.closing || sub.dead) return;
  if (sink_ != nullptr) {
    sink_->daemon.sub_queue_depth.observe(
        static_cast<double>(sub.queue.size()));
  }
  if (sub.queue.size() >= sub.options.capacity) {
    switch (sub.options.policy) {
      case OverloadPolicy::kDropOldest:
        sub.queue.pop_front();
        if (sink_ != nullptr) sink_->daemon.sub_dropped_oldest.inc();
        break;
      case OverloadPolicy::kDropNewest:
        if (sink_ != nullptr) sink_->daemon.sub_dropped_newest.inc();
        return;
      case OverloadPolicy::kBlock: {
        // Bounded wait for the writer to free a slot — one dead
        // consumer must never stall the tick loop indefinitely.
        const bool freed = sub.not_full.wait_for(
            lk, std::chrono::milliseconds(sub.options.block_timeout_ms),
            [&] {
              return sub.queue.size() < sub.options.capacity ||
                     sub.closing || sub.dead;
            });
        if (!freed || sub.closing || sub.dead ||
            sub.queue.size() >= sub.options.capacity) {
          if (sink_ != nullptr) sink_->daemon.sub_block_timeouts.inc();
          return;
        }
        break;
      }
    }
  }
  sub.queue.push_back(frame);
  sub.not_empty.notify_one();
  if (sink_ != nullptr) sink_->daemon.results_fanned_out.inc();
}

void SubscriberHub::broadcast(const FrameBytes& frame) {
  // Snapshot under the map lock, enqueue outside it: an enqueue may
  // wait (kBlock) and must not hold up add/remove on other subscribers.
  std::vector<std::shared_ptr<Sub>> live;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    live.reserve(subs_.size());
    for (auto& [id, sub] : subs_) live.push_back(sub);
  }
  for (const std::shared_ptr<Sub>& sub : live) enqueue(*sub, frame);
  // Prune subscribers whose writer died on a send error.
  std::lock_guard<std::mutex> lk(subs_mu_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    bool dead;
    {
      std::lock_guard<std::mutex> slk(it->second->mu);
      dead = it->second->dead;
    }
    if (dead) {
      auto doomed = it++;
      reap_locked(doomed);
    } else {
      ++it;
    }
  }
}

void SubscriberHub::remove(std::uint64_t id, bool flush,
                           int flush_timeout_ms) {
  std::shared_ptr<Sub> sub;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return;
    sub = std::move(it->second);
    subs_.erase(it);
  }
  finish(*sub, flush, flush_timeout_ms);
  if (sink_ != nullptr) sink_->daemon.subscribers_removed.inc();
}

void SubscriberHub::finish(Sub& sub, bool flush, int flush_timeout_ms) {
  {
    std::unique_lock<std::mutex> slk(sub.mu);
    if (flush && !sub.dead) {
      sub.closing = true;  // writer drains the queue, sends kBye, exits
      sub.not_empty.notify_all();
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(flush_timeout_ms);
      sub.not_full.wait_until(slk, deadline, [&] { return sub.exited; });
    }
    if (!sub.exited) {
      // Deadline passed (or no flush requested): force the writer out.
      // shutdown() unblocks a send_all stuck on a peer that stopped
      // reading; the fd itself stays open, so there is no close/reuse
      // race with the in-flight call.
      sub.dead = true;
      sub.not_empty.notify_all();
      sub.not_full.notify_all();
      sub.conn->shutdown_both();
    }
  }
  if (sub.writer.joinable()) sub.writer.join();
}

void SubscriberHub::reap_locked(
    std::unordered_map<std::uint64_t, std::shared_ptr<Sub>>::iterator it) {
  std::shared_ptr<Sub> sub = std::move(it->second);
  subs_.erase(it);
  finish(*sub, /*flush=*/false, 0);
  if (sink_ != nullptr) sink_->daemon.subscribers_removed.inc();
}

void SubscriberHub::shutdown_all(int flush_timeout_ms) {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    ids.reserve(subs_.size());
    for (const auto& [id, sub] : subs_) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    remove(id, /*flush=*/flush_timeout_ms > 0, flush_timeout_ms);
  }
}

std::size_t SubscriberHub::size() const {
  std::lock_guard<std::mutex> lk(subs_mu_);
  return subs_.size();
}

}  // namespace vihot::daemon
