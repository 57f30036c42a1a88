// Channel supervision primitives: the phi-accrual failure detector and the
// heartbeat message the network component exchanges over established
// sessions.
//
// The detector follows Hayashibara et al.'s phi-accrual design (the one CAF
// and Akka ship): instead of a binary timeout it maintains a sliding window
// of heartbeat inter-arrival times and reports a continuous suspicion score
//   phi(t) = -log10( P(next heartbeat arrives later than t) )
// under a normal model of the observed intervals. Callers pick thresholds:
// a low one to *suspect* a peer and a high one to declare it *dead*. Two
// deliberate robustness deviations from the textbook version:
//   - an `acceptable_pause` is added to the interval mean (Akka's knob), so
//     a legitimate latency step — e.g. the chaos harness jumping a link from
//     VPC to intercontinental RTT — does not read as death;
//   - connect/retransmit failures feed the score directly via penalize(),
//     because a channel that cannot even establish produces no heartbeat
//     stream for the statistics to observe.
// All state is plain arithmetic over sim timestamps, so supervision is as
// deterministic as the rest of the stack.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "messaging/msg.hpp"
#include "messaging/serialization.hpp"

namespace kmsg::messaging {

struct PhiConfig {
  /// Interval samples kept (sliding window).
  int window = 16;
  /// Grace added to the interval mean: pauses up to roughly this long are
  /// not suspicious (absorbs RTT steps, GC-style stalls, bursts of loss).
  Duration acceptable_pause = Duration::seconds(1.0);
};

class PhiAccrualDetector {
 public:
  explicit PhiAccrualDetector(PhiConfig config = {});

  /// Forgets all history and anchors the arrival clock at `now` (fresh
  /// channel, or first session to a dormant peer).
  void reset(TimePoint now);

  /// Records a liveness arrival (heartbeat, ack progress). Clears any
  /// accumulated penalty.
  void heartbeat(TimePoint now);

  /// Refreshes the arrival clock without recording an interval sample —
  /// out-of-band evidence (application messages, ack progress) proves the
  /// peer is alive but says nothing about heartbeat cadence, so it must not
  /// skew the interval statistics. Also clears any accumulated penalty.
  void touch(TimePoint now) {
    last_ = now;
    anchored_ = true;
    penalty_ = 0.0;
  }

  /// Adds suspicion directly (connect failure, retransmit exhaustion).
  void penalize(double phi_bonus) { penalty_ += phi_bonus; }

  /// The suspicion score at `now`; 0 while fresh evidence is recent, grows
  /// without bound during silence. Capped at kPhiCap.
  double phi(TimePoint now) const;

  TimePoint last_heartbeat() const { return last_; }
  int samples() const { return count_; }
  double mean_interval_seconds() const;

  static constexpr double kPhiCap = 32.0;

 private:
  PhiConfig config_;
  std::vector<double> intervals_;  // seconds, ring buffer of size window
  int next_ = 0;
  int count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  TimePoint last_ = TimePoint::zero();
  bool anchored_ = false;
  double penalty_ = 0.0;
};

// --- Heartbeat wire message -------------------------------------------------

/// Reserved type id for the supervision heartbeat (top of the id space so it
/// can never collide with application registrations).
inline constexpr std::uint32_t kHeartbeatTypeId = 0xFFFFFF01;

/// Internal liveness probe exchanged between network components over an
/// established stream session. `request` heartbeats are answered with a
/// non-request echo carrying the same sequence number; both directions count
/// as liveness evidence. Never surfaced on the Network port.
class HeartbeatMsg final : public Msg {
 public:
  HeartbeatMsg(BasicHeader header, bool request, std::uint64_t seq)
      : header_(header), request_(request), seq_(seq) {}

  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kHeartbeatTypeId; }
  std::size_t serialized_size_hint() const override { return 48; }

  bool request() const { return request_; }
  std::uint64_t seq() const { return seq_; }

 private:
  BasicHeader header_;
  bool request_;
  std::uint64_t seq_;
};

// --- Session hello (incarnation handshake) ----------------------------------

/// Reserved type id for the session handshake, beside the heartbeat at the
/// top of the id space.
inline constexpr std::uint32_t kSessionHelloTypeId = 0xFFFFFF02;

/// Session handshake: the first frame a network component writes on every
/// outbound stream connection, announcing the sender's process incarnation
/// (netsim::Host::incarnation(), bumped on crash-recovery). The receiver
/// fences frames arriving on connections whose hello announced an older
/// incarnation than the peer's newest known one — those are zombies the
/// pre-crash process left in flight — and surfaces PeerRestarted when the
/// incarnation advances. Never surfaced on the Network port.
class SessionHelloMsg final : public Msg {
 public:
  SessionHelloMsg(BasicHeader header, std::uint64_t incarnation)
      : header_(header), incarnation_(incarnation) {}

  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kSessionHelloTypeId; }
  std::size_t serialized_size_hint() const override { return 48; }

  std::uint64_t incarnation() const { return incarnation_; }

 private:
  BasicHeader header_;
  std::uint64_t incarnation_;
};

// --- Delta reset (keyframe request) ------------------------------------------

/// Reserved type id for the delta-codec keyframe request.
inline constexpr std::uint32_t kDeltaResetTypeId = 0xFFFFFF03;

/// Receiver -> sender control message of the delta codec: "I cannot decode
/// diffs for `reset_type_id` (0 = any type) — send a keyframe next". Emitted
/// when a diff arrives with no cached base (e.g. after the receiver's state
/// was fenced away); the sender drops the affected base so its next message
/// of that type travels in full. Never surfaced on the Network port.
class DeltaResetMsg final : public Msg {
 public:
  DeltaResetMsg(BasicHeader header, std::uint32_t reset_type_id)
      : header_(header), reset_type_id_(reset_type_id) {}

  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kDeltaResetTypeId; }
  std::size_t serialized_size_hint() const override { return 48; }

  std::uint32_t reset_type_id() const { return reset_type_id_; }

 private:
  BasicHeader header_;
  std::uint32_t reset_type_id_;
};

/// Registers the heartbeat, session-hello and delta-reset codecs. Idempotent:
/// registries are commonly shared between the network components of
/// co-simulated nodes.
void register_supervision_serializers(SerializerRegistry& registry);

}  // namespace kmsg::messaging
