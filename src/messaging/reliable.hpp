// Reliable delivery on top of at-most-once messaging.
//
// KompicsMessaging deliberately provides only at-most-once network semantics:
// "If message delivery is a concern for an application, it may implement
// resending and acknowledgements itself" (paper §III-B). This component is
// that implementation, packaged once so applications don't each rebuild it:
//
//   consumer  <-> [ReliableChannel] <-> Network port
//
// It wraps outgoing messages that implement the ReliableMsg interface in
// sequence-numbered envelopes per destination, retransmits on an RTO until
// acknowledged (at-least-once), and suppresses duplicates by sequence number
// on the receiving side (together: exactly-once delivery to the consumer, as
// long as endpoints don't restart). Messages that are not ReliableMsg pass
// through untouched.
//
// The envelope/ack message types are ordinary Msgs with their own serializer
// ids, so reliability works across the wire like any other traffic.
#pragma once

#include <deque>
#include <map>
#include <set>

#include "kompics/system.hpp"
#include "messaging/network_component.hpp"

namespace kmsg::messaging {

inline constexpr std::uint32_t kReliableEnvelopeTypeId = 0x30;
inline constexpr std::uint32_t kReliableAckTypeId = 0x31;

/// Envelope: carries the application payload's serialised bytes plus the
/// (flow, sequence) pair used for retransmission and deduplication. The
/// payload is a ref-counted slice of the inner message's serialise slab —
/// wrapping does not copy it, and on receive it stays a view of the frame.
class ReliableEnvelope final : public Msg {
 public:
  ReliableEnvelope(BasicHeader header, std::uint64_t seq,
                   wire::BufSlice payload_bytes)
      : header_(header), seq_(seq), payload_(std::move(payload_bytes)) {}

  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kReliableEnvelopeTypeId; }
  std::size_t serialized_size_hint() const override {
    return payload_.size() + 64;
  }
  std::uint64_t seq() const { return seq_; }
  const wire::BufSlice& payload() const { return payload_; }

 private:
  BasicHeader header_;
  std::uint64_t seq_;
  wire::BufSlice payload_;  ///< serialised inner message
};

class ReliableAck final : public Msg {
 public:
  ReliableAck(BasicHeader header, std::uint64_t cumulative_seq)
      : header_(header), cum_(cumulative_seq) {}
  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kReliableAckTypeId; }
  /// All sequence numbers <= this value have been delivered.
  std::uint64_t cumulative_seq() const { return cum_; }

 private:
  BasicHeader header_;
  std::uint64_t cum_;
};

/// Registers the envelope/ack serializers (call once per registry).
void register_reliable_serializers(SerializerRegistry& registry);

struct ReliableConfig {
  Address self;
  Duration retransmit_timeout = Duration::millis(500);
  int max_retries = 20;
  /// Transport used for acknowledgements.
  Transport ack_protocol = Transport::kTcp;
  /// Ceiling on the RTO, which doubles with each unacknowledged
  /// retransmission (exponential backoff), so retries survive long
  /// partitions without flooding the recovering link.
  Duration max_retransmit_timeout = Duration::seconds(8.0);
};

struct ReliableStats {
  std::uint64_t sent = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t gave_up = 0;
};

/// Component sitting between a consumer and a network stack. Provides
/// Network to the consumer and requires Network from the stack; messages
/// the consumer sends are made reliable transparently.
class ReliableChannel final : public kompics::ComponentDefinition {
 public:
  ReliableChannel(ReliableConfig config,
                  std::shared_ptr<SerializerRegistry> registry)
      : config_(config), registry_(std::move(registry)) {}
  ~ReliableChannel() override;

  void setup() override;

  kompics::PortInstance& consumer_port() { return *up_; }
  kompics::PortInstance& network_port() { return *down_; }
  const ReliableStats& reliable_stats() const { return stats_; }

 private:
  struct Pending {
    MsgPtr envelope;
    int retries = 0;
    kompics::TimerHandle timer;
  };
  struct Flow {
    std::uint64_t next_seq = 1;               // sender side
    std::map<std::uint64_t, Pending> pending; // unacked envelopes
    std::uint64_t delivered_up_to = 0;        // receiver side (cumulative)
    std::set<std::uint64_t> delivered_ahead;  // out-of-order deliveries
  };

  void on_outgoing(MsgPtr msg);
  void on_incoming(MsgPtr msg);
  void handle_envelope(kompics::EventRef<ReliableEnvelope> env);
  void handle_ack(const ReliableAck& ack);
  void arm_retransmit(const Address& peer, std::uint64_t seq);
  void send_ack(const Address& peer, std::uint64_t cum);

  ReliableConfig config_;
  std::shared_ptr<SerializerRegistry> registry_;
  kompics::PortInstance* up_ = nullptr;
  kompics::PortInstance* down_ = nullptr;
  std::map<Address, Flow> flows_;
  ReliableStats stats_;
};

}  // namespace kmsg::messaging
