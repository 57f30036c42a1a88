// A directed point-to-point link with bandwidth, propagation delay, a finite
// drop-tail queue, optional random loss, and an optional token-bucket policer
// applied to UDP traffic (modelling EC2's artificial UDP rate limiting which
// the paper observed capping UDT at ~10 MB/s).
//
// Beyond the benign model, the link is a fault-injection point: datagrams can
// be duplicated, bit-corrupted, or reordered (delay-jitter model), and the
// link itself can be taken down and brought back up (flaps). All fault draws
// come from the link's private seeded Rng, so a fault scenario replays
// bit-identically. The ChaosSchedule (chaos.hpp) drives these knobs on a
// scripted timeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "netsim/datagram.hpp"
#include "sim/simulator.hpp"

namespace kmsg::netsim {

struct PolicerConfig {
  double rate_bytes_per_sec = 10e6;  ///< sustained rate allowed through
  std::size_t burst_bytes = 256 * 1024;
};

struct LinkConfig {
  double bandwidth_bytes_per_sec = 100e6;
  Duration propagation_delay = Duration::millis(0);
  /// Hard floor under propagation_delay: runtime delay changes (chaos
  /// delay_at events) clamp to at least this value, in every shard layout.
  /// The sharded engine derives its per-shard-pair conservative lookahead
  /// from this floor, so cross-shard links must declare a positive one —
  /// and because the clamp applies identically in unsharded runs, delay
  /// chaos cannot make a sharded run diverge from its sequential twin.
  Duration min_propagation_delay = Duration::zero();
  std::size_t queue_capacity_bytes = 2 * 1024 * 1024;
  double random_loss_rate = 0.0;  ///< per-datagram iid loss probability
  std::optional<PolicerConfig> udp_policer;

  // --- Fault injection (all off by default) ---
  /// Probability a datagram is delivered twice (the copy re-enters the queue
  /// behind the original and jitters independently).
  double duplicate_rate = 0.0;
  /// Probability a datagram arrives with bit errors (marked, not dropped:
  /// the receiver's checksum decides its fate).
  double corrupt_rate = 0.0;
  /// Probability a datagram receives extra propagation delay, letting later
  /// datagrams overtake it (delay-jitter reordering model).
  double reorder_rate = 0.0;
  /// Maximum extra one-way delay drawn uniformly for a jittered datagram.
  Duration reorder_jitter = Duration::millis(0);
  /// Protocol-selective blackholes: drop every UDP (resp. TCP) datagram
  /// while leaving the other protocol untouched. Models middlebox filtering
  /// (the paper's EC2 observations include UDP-hostile paths) and gives the
  /// chaos harness a way to kill one transport channel in isolation.
  bool block_udp = false;
  bool block_tcp = false;
};

struct LinkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_random = 0;
  std::uint64_t drops_policer = 0;
  std::uint64_t bytes_delivered = 0;
  // Per-fault counters (chaos observability).
  std::uint64_t drops_link_down = 0;  ///< offered or queued while down
  std::uint64_t drops_host_down = 0;  ///< queue cleared by an endpoint crash
  std::uint64_t drops_proto_blocked = 0;  ///< UDP/TCP selective blackhole
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
};

class Link {
 public:
  /// Hands a datagram that finished serialising to the owner (Network) for
  /// delivery at absolute time `at` with delivery key `key`. The link never
  /// schedules the arrival itself: in a sharded world the arrival may belong
  /// to another shard's simulator, and only the Network knows the routing.
  using ScheduleDeliveryFn =
      std::function<void(TimePoint at, std::uint64_t key, Datagram&&)>;

  /// `key_base` is sim::delivery_key_base(src, dst) for this directed link;
  /// the link ORs its monotone send counter into it so every delivery
  /// carries a unique, layout-invariant ordering key.
  Link(sim::Simulator& sim, LinkConfig config, std::uint64_t key_base,
       ScheduleDeliveryFn schedule_delivery, Rng rng);

  /// Offers a datagram to the link; may drop (down, policer, loss, queue
  /// overflow), corrupt, or duplicate it. An idle link starts serialising it
  /// at once; a busy one queues it.
  void send(Datagram&& dg);

  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }
  std::size_t queued_bytes() const { return queued_bytes_; }

  /// Runtime re-configuration hooks for experiments that vary the
  /// environment mid-run (e.g. RTT step changes for learner adaptivity)
  /// and for the chaos harness. Delay changes clamp to the configured
  /// min_propagation_delay floor in every mode, so the sharded engine's
  /// lookahead contract survives chaos.
  void set_propagation_delay(Duration d) {
    config_.propagation_delay = std::max(d, config_.min_propagation_delay);
  }
  void set_random_loss_rate(double p) { config_.random_loss_rate = p; }
  void set_duplicate_rate(double p) { config_.duplicate_rate = p; }
  void set_corrupt_rate(double p) { config_.corrupt_rate = p; }
  void set_reorder(double rate, Duration jitter) {
    config_.reorder_rate = rate;
    config_.reorder_jitter = jitter;
  }
  void set_block_udp(bool block) { config_.block_udp = block; }
  void set_block_tcp(bool block) { config_.block_tcp = block; }

  /// Takes the link down (queued datagrams are lost, as on a dead cable) or
  /// brings it back up. Datagrams already in flight still arrive.
  void set_up(bool up);
  bool is_up() const { return up_; }

  /// Clears the queue because an endpoint host crashed (the link stays up —
  /// the cable is fine, the process died). The datagram currently
  /// serialising already made it onto the wire and still lands; the
  /// receiving Host drops it if it is the crashed one. Counted separately
  /// from drops_link_down for chaos observability.
  void drop_queued_host_down();

 private:
  /// Serialises the next queued datagram, or marks the link idle.
  void start_transmission();
  /// Puts `dg` on the wire: it finishes serialising after wire_bytes /
  /// bandwidth, then propagates.
  void transmit(Datagram&& dg);
  /// `dg` left the transmitter: hands it to the Network, which schedules
  /// its arrival, and starts the next queued datagram.
  void on_serialised(Datagram&& dg);
  bool policer_admit(const Datagram& dg);

  sim::Simulator& sim_;
  LinkConfig config_;
  std::uint64_t key_base_;
  ScheduleDeliveryFn schedule_delivery_;
  Rng rng_;
  LinkStats stats_;
  std::uint64_t send_counter_ = 0;  ///< per-delivery key counter

  Fifo<Datagram> queue_;  ///< empty whenever transmitting_ is false
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool up_ = true;

  // Token bucket state for the UDP policer.
  double tokens_ = 0.0;
  TimePoint tokens_updated_ = TimePoint::zero();
};

}  // namespace kmsg::netsim
