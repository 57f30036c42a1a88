#include "netsim/link.hpp"

#include <algorithm>
#include <utility>

namespace kmsg::netsim {

Link::Link(sim::Simulator& sim, LinkConfig config, std::uint64_t key_base,
           ScheduleDeliveryFn schedule_delivery, Rng rng)
    : sim_(sim),
      config_(config),
      key_base_(key_base),
      schedule_delivery_(std::move(schedule_delivery)),
      rng_(rng),
      tokens_(config.udp_policer ? static_cast<double>(config.udp_policer->burst_bytes) : 0.0),
      tokens_updated_(sim.now()) {
  // The configured delay itself must respect the floor, or the sharded
  // engine's lookahead derivation would be unsound from t=0.
  config_.propagation_delay =
      std::max(config_.propagation_delay, config_.min_propagation_delay);
}

bool Link::policer_admit(const Datagram& dg) {
  if (!config_.udp_policer || dg.proto != IpProto::kUdp) return true;
  const auto& p = *config_.udp_policer;
  const Duration elapsed = sim_.now() - tokens_updated_;
  tokens_ = std::min(static_cast<double>(p.burst_bytes),
                     tokens_ + elapsed.as_seconds() * p.rate_bytes_per_sec);
  tokens_updated_ = sim_.now();
  const auto cost = static_cast<double>(dg.wire_bytes);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    // A dead cable loses whatever was queued behind it. The datagram
    // currently serialising (if any) made it onto the wire and still lands.
    stats_.drops_link_down += queue_.size();
    queue_.clear();
    queued_bytes_ = 0;
  }
}

void Link::drop_queued_host_down() {
  stats_.drops_host_down += queue_.size();
  queue_.clear();
  queued_bytes_ = 0;
}

void Link::send(Datagram&& dg) {
  ++stats_.datagrams_sent;
  if (!up_) {
    ++stats_.drops_link_down;
    return;
  }
  if ((config_.block_udp && dg.proto == IpProto::kUdp) ||
      (config_.block_tcp && dg.proto == IpProto::kTcp)) {
    ++stats_.drops_proto_blocked;
    return;
  }
  if (!policer_admit(dg)) {
    ++stats_.drops_policer;
    return;
  }
  if (config_.random_loss_rate > 0.0 && rng_.next_bool(config_.random_loss_rate)) {
    ++stats_.drops_random;
    return;
  }
  const std::size_t bytes = dg.wire_bytes;
  if (queued_bytes_ + bytes > config_.queue_capacity_bytes) {
    ++stats_.drops_queue_full;
    return;
  }
  if (config_.corrupt_rate > 0.0 && rng_.next_bool(config_.corrupt_rate)) {
    dg.corrupted = true;
    ++stats_.corrupted;
  }
  // A duplicate queues behind the original, so it needs room for both. The
  // two are equal, so which of them goes first does not matter.
  if (config_.duplicate_rate > 0.0 && rng_.next_bool(config_.duplicate_rate) &&
      queued_bytes_ + 2 * bytes <= config_.queue_capacity_bytes) {
    ++stats_.duplicated;
    queue_.push_back(dg);
    queued_bytes_ += bytes;
  }
  if (transmitting_) {
    queue_.push_back(std::move(dg));
    queued_bytes_ += bytes;
    return;
  }
  transmit(std::move(dg));
}

void Link::start_transmission() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  Datagram dg = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= dg.wire_bytes;
  transmit(std::move(dg));
}

void Link::transmit(Datagram&& dg) {
  transmitting_ = true;
  const Duration tx = Duration::seconds(static_cast<double>(dg.wire_bytes) /
                                        config_.bandwidth_bytes_per_sec);
  sim_.post_after(tx, [this, dg = std::move(dg)]() mutable {
    on_serialised(std::move(dg));
  });
}

void Link::on_serialised(Datagram&& dg) {
  // Serialisation finished: the datagram enters flight; the transmitter is
  // free for the next queued datagram.
  Duration prop = config_.propagation_delay;
  if (config_.reorder_rate > 0.0 && config_.reorder_jitter > Duration::zero() &&
      rng_.next_bool(config_.reorder_rate)) {
    // Extra uniform delay: datagrams serialised later can now land first.
    prop += Duration::nanos(static_cast<std::int64_t>(rng_.next_below(
        static_cast<std::uint64_t>(config_.reorder_jitter.as_nanos()) + 1)));
    ++stats_.reordered;
  }
  // Delivered-stats are bumped here, on the sender's shard, rather than at
  // arrival: the arrival may execute on another shard's thread, and LinkStats
  // is single-writer by design. Run-end totals are identical either way.
  ++stats_.datagrams_delivered;
  stats_.bytes_delivered += dg.wire_bytes;
  // Hand off to the Network with a sender-computed, layout-invariant
  // delivery key: same-instant arrivals sort the same way no matter which
  // shard (or thread) schedules them.
  const std::uint64_t key =
      key_base_ | (send_counter_++ & sim::kDeliveryCounterMask);
  schedule_delivery_(sim_.now() + prop, key, std::move(dg));
  start_transmission();
}

}  // namespace kmsg::netsim
