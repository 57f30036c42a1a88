// The Network port (paper listing 1) plus delivery notifications and the
// periodic session-status indication that feeds the adaptive learner.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "kompics/port_type.hpp"
#include "messaging/msg.hpp"

namespace kmsg::messaging {

using NotifyId = std::uint64_t;

/// Requests notification of a message's delivery status ("fire and forget"
/// otherwise). Answered with MessageNotifyResp.
struct MessageNotifyReq final : kompics::KompicsEvent {
  MessageNotifyReq(MsgPtr m, NotifyId id_) : msg(std::move(m)), id(id_) {}
  MsgPtr msg;
  NotifyId id;
};

enum class DeliveryStatus : std::uint8_t {
  /// All bytes were accepted by the transport (stream) / emitted (UDP).
  kSent,
  /// Rejected locally before transmission: serialisation error, unsupported
  /// transport, a UDP send the endpoint refused, a message larger than the
  /// whole session queue cap, or the component stopping. A full session
  /// queue is not a failure: the message waits for room and its notify is
  /// answered when it is written.
  kFailed,
  /// The destination peer was declared Dead by the supervision layer after
  /// channel reconnect attempts were exhausted.
  kPeerFailed,
  /// The message was still queued when heartbeat suspicion (phi accrual)
  /// declared the peer Dead — the path timed out rather than hard-failed.
  kTimedOut,
};

constexpr const char* to_string(DeliveryStatus s) {
  switch (s) {
    case DeliveryStatus::kSent: return "Sent";
    case DeliveryStatus::kFailed: return "Failed";
    case DeliveryStatus::kPeerFailed: return "PeerFailed";
    case DeliveryStatus::kTimedOut: return "TimedOut";
  }
  return "?";
}

struct MessageNotifyResp final : kompics::KompicsEvent {
  MessageNotifyResp(NotifyId id_, DeliveryStatus status_, Transport via_,
                    std::size_t bytes_)
      : id(id_), status(status_), via(via_), bytes(bytes_) {}
  NotifyId id;
  DeliveryStatus status;
  Transport via;       ///< the concrete transport used
  std::size_t bytes;   ///< serialised size on the wire (pre-framing)
};

/// Snapshot of one transport session's progress, emitted periodically by the
/// network component. The adaptive interceptor uses the byte-acknowledgement
/// deltas as its reward signal.
struct SessionStatus {
  Address peer;
  Transport transport = Transport::kTcp;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_unacked = 0;
  bool connected = false;
};

struct NetworkStatus final : kompics::KompicsEvent {
  explicit NetworkStatus(std::vector<SessionStatus> s) : sessions(std::move(s)) {}
  std::vector<SessionStatus> sessions;
};

// --- Channel supervision (peer-health FSM) ---------------------------------

/// Health of a peer (aggregated over its channels) or of one channel.
enum class PeerHealth : std::uint8_t {
  kHealthy,     ///< recent liveness evidence (heartbeats / ack progress)
  kSuspected,   ///< phi accrual crossed the suspicion threshold
  kDead,        ///< suspicion expired or reconnects exhausted; queues drained
  kRecovering,  ///< evidence of life after Dead; dead letters flushing
};

constexpr const char* to_string(PeerHealth h) {
  switch (h) {
    case PeerHealth::kHealthy: return "Healthy";
    case PeerHealth::kSuspected: return "Suspected";
    case PeerHealth::kDead: return "Dead";
    case PeerHealth::kRecovering: return "Recovering";
  }
  return "?";
}

/// Why a health transition happened.
enum class HealthReason : std::uint8_t {
  kConnected,           ///< channel (re-)established
  kEvidence,            ///< heartbeat / ack progress arrived
  kSuspicion,           ///< phi crossed the suspect threshold
  kSuspicionExpired,    ///< phi crossed the dead threshold
  kReconnectExhausted,  ///< channel died after all reconnect attempts failed
  kProbeSucceeded,      ///< probe connect to a Dead peer came back
  kPeerRestarted,       ///< session hello announced a higher incarnation
};

constexpr const char* to_string(HealthReason r) {
  switch (r) {
    case HealthReason::kConnected: return "connected";
    case HealthReason::kEvidence: return "evidence";
    case HealthReason::kSuspicion: return "suspicion";
    case HealthReason::kSuspicionExpired: return "suspicion-expired";
    case HealthReason::kReconnectExhausted: return "reconnect-exhausted";
    case HealthReason::kProbeSucceeded: return "probe-succeeded";
    case HealthReason::kPeerRestarted: return "peer-restarted";
  }
  return "?";
}

/// Supervision indication: a peer- or channel-health transition. Emitted by
/// the network component whenever the per-peer FSM (transport == nullopt) or
/// a single (peer, transport) channel (transport set) changes state. The
/// adaptive interceptor uses channel-scope transitions for transport
/// fallback; applications can react to peer-scope ones.
struct ConnectionStatus final : kompics::KompicsEvent {
  ConnectionStatus(Address p, std::optional<Transport> t, PeerHealth o,
                   PeerHealth n, HealthReason r, double phi_)
      : peer(p), transport(t), old_state(o), new_state(n), reason(r),
        phi(phi_) {}
  Address peer;
  std::optional<Transport> transport;  ///< nullopt = peer-scope transition
  PeerHealth old_state;
  PeerHealth new_state;
  HealthReason reason;
  double phi;  ///< suspicion score at transition time
};

/// Indication that a peer *process* restarted: a session hello announced a
/// higher incarnation than the one previously recorded for the peer. The
/// network component has already fenced the old incarnation's in-flight
/// frames and replayed any dead letters to the new one; applications react
/// to this to reconcile state derived from the old process (re-advertise
/// rumors, restart transfers, invalidate caches).
struct PeerRestarted final : kompics::KompicsEvent {
  PeerRestarted(Address p, std::uint64_t old_inc, std::uint64_t new_inc)
      : peer(p), old_incarnation(old_inc), new_incarnation(new_inc) {}
  Address peer;
  std::uint64_t old_incarnation;  ///< 0 if the peer was first seen restarted
  std::uint64_t new_incarnation;
};

struct Network : kompics::PortType {
  Network() {
    set_name("Network");
    request<Msg>();
    request<MessageNotifyReq>();
    indication<Msg>();
    indication<MessageNotifyResp>();
    indication<NetworkStatus>();
    indication<ConnectionStatus>();
    indication<PeerRestarted>();
  }
};

/// Allocates process-unique notification ids.
NotifyId next_notify_id();

}  // namespace kmsg::messaging
