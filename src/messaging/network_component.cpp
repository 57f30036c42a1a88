#include "messaging/network_component.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"
#include "wire/codec.hpp"

namespace kmsg::messaging {

NotifyId next_notify_id() {
  static std::atomic<NotifyId> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// Session policy that every deployment shares.
/// Cadence of NetworkStatus indications (reward signal for the learner).
constexpr Duration kStatusInterval = Duration::millis(100);
/// Heartbeat cadence on idle established sessions (busy sessions derive
/// liveness evidence from acknowledgement progress instead).
constexpr Duration kHeartbeatInterval = Duration::millis(100);
/// Suspicion score at which a peer transitions Healthy -> Suspected.
constexpr double kPhiSuspect = 1.0;
/// Suspicion score at which a Suspected peer is declared Dead.
constexpr double kPhiDead = 8.0;
/// Latency budget a message may wait for coalescing frame-mates.
constexpr Duration kCoalesceDelay = Duration::micros(500);
/// Byte ceiling on the serialised payload of one coalesced frame.
constexpr std::size_t kCoalesceMaxBytes = 8 * 1024;

/// Prepends the length/CRC frame header. Debug builds audit the headroom:
/// whenever the payload starts at its slab's front mark with room for the
/// header, the header must land in place — a copy here means some layer's
/// headroom budget is wrong.
wire::BufSlice frame(wire::BufSlice payload, bool coalesced = false) {
#ifndef NDEBUG
  const std::uint8_t* payload_before = payload.data();
  const bool must_prepend_in_place =
      payload.headroom() >= wire::kFrameHeaderBytes;
#endif
  wire::BufSlice bytes =
      wire::encode_frame_slice(std::move(payload), coalesced);
#ifndef NDEBUG
  assert(!must_prepend_in_place ||
         bytes.data() + wire::kFrameHeaderBytes == payload_before);
#endif
  return bytes;
}

/// Calls fn(engine, port, engine_config) for stream transport `t` dialled or
/// listened to on the announced `port`: the engine type as a
/// std::type_identity, the engine's own wire port, and its config.
template <typename Fn>
auto with_stream(const NetworkConfig& config, Transport t, netsim::Port port,
                 Fn&& fn) {
  switch (t) {
    case Transport::kUdt:
      return fn(std::type_identity<transport::UdtConnection>{},
                static_cast<netsim::Port>(port + 1), config.udt);
    case Transport::kLedbat:
      return fn(std::type_identity<transport::LedbatConnection>{},
                static_cast<netsim::Port>(port + 2), config.ledbat);
    default:  // kTcp: sessions only ever carry the three stream transports
      return fn(std::type_identity<transport::TcpConnection>{}, port,
                config.tcp);
  }
}

std::shared_ptr<transport::StreamConnection> connect_stream(
    netsim::Host& host, const NetworkConfig& config, Transport t,
    const Address& peer) {
  return with_stream(
      config, t, peer.port,
      [&](auto engine, netsim::Port port, const auto& engine_config)
          -> std::shared_ptr<transport::StreamConnection> {
        return decltype(engine)::type::connect(host, peer.host, port,
                                               engine_config);
      });
}

}  // namespace

NetworkComponent::NetworkComponent(netsim::Host& host, NetworkConfig config,
                                   std::shared_ptr<SerializerRegistry> registry)
    : host_(host),
      config_(config),
      registry_(std::move(registry)) {
  register_supervision_serializers(*registry_);
}

NetworkComponent::~NetworkComponent() {
  status_cancel_.cancel();
  supervision_cancel_.cancel();
  for (auto& [key, s] : sessions_) {
    s->reconnect_timer.cancel();
    s->coalesce_timer.cancel();
  }
  for (auto& [addr, ps] : peers_) {
    ps->probe_timer.cancel();
  }
}

void NetworkComponent::setup() {
  net_port_ = &provides<Network>();
  subscribe_ptr<Msg>(*net_port_,
                     [this](MsgPtr m) { handle_outgoing(std::move(m), {}); });
  subscribe<MessageNotifyReq>(*net_port_, [this](const MessageNotifyReq& req) {
    handle_outgoing(req.msg, req.id);
  });
  subscribe<kompics::Start>(control(), [this](const kompics::Start&) {
    if (started_) return;
    started_ = true;
    start_listeners();
    status_tick();
    supervision_tick();
  });
  // A stopped or killed process must release the simulated host's resources
  // (port bindings, timers, connections) so a restarted incarnation can
  // re-bind them — and so a killed subtree leaks nothing.
  subscribe<kompics::Stop>(control(), [this](const kompics::Stop&) { teardown(); });
  subscribe<kompics::Kill>(control(), [this](const kompics::Kill&) { teardown(); });
}

void NetworkComponent::teardown() {
  if (!started_) return;
  started_ = false;
  status_cancel_.cancel();
  supervision_cancel_.cancel();
  // Same discipline as declare_dead: empty the maps first, abort after, so
  // each connection's deferred on_closed teardown finds nothing to re-erase.
  std::vector<std::shared_ptr<transport::StreamConnection>> doomed;
  while (!sessions_.empty()) {
    const auto it = sessions_.begin();
    dispose_queue(*it->second, DeliveryStatus::kFailed, nullptr);
    if (auto conn = close_session(it)) doomed.push_back(std::move(conn));
  }
  for (auto& [addr, ps] : peers_) {
    ps->probe_timer.cancel();
    if (ps->probe_conn) {
      doomed.push_back(ps->probe_conn);
      ps->probe_conn = nullptr;
    }
  }
  for (auto& in : inbound_) {
    if (in->conn) doomed.push_back(in->conn);
  }
  listeners_.clear();
  udp_.reset();
  // Inbound records are reaped by the aborts' deferred on_closed handlers —
  // freeing them here would leave each connection's on_data callback with a
  // dangling pointer while its teardown is still in flight.
  for (auto& conn : doomed) conn->abort();
}

void NetworkComponent::start_listeners() {
  const auto self = config_.self;
  for (const Transport t :
       {Transport::kTcp, Transport::kUdt, Transport::kLedbat}) {
    const auto accept = [this, t](std::shared_ptr<transport::StreamConnection> conn) {
      ++stats_.sessions_accepted;
      attach_inbound(std::move(conn), t);
    };
    listeners_[t] = with_stream(
        config_, t, self.port,
        [&](auto engine, netsim::Port port,
            const auto& engine_config) -> std::shared_ptr<void> {
          using Conn = typename decltype(engine)::type;
          return std::make_shared<transport::StreamListener<Conn>>(
              host_, port, engine_config, accept);
        });
  }
  udp_ = transport::UdpEndpoint::open(host_, self.port, config_.udp);
  if (udp_) {
    udp_->set_on_message(
        [this](netsim::HostId, netsim::Port, wire::BufSlice payload) {
          deliver_udp(std::move(payload));
        });
  } else {
    KMSG_ERROR("network") << "UDP bind failed on port " << self.port;
  }
}

void NetworkComponent::status_tick() {
  // Conservative idle reclamation (paper §III-C): close outbound sessions
  // that have been idle (nothing queued, nothing unacknowledged) beyond the
  // configured timeout.
  if (config_.idle_session_timeout > Duration::zero()) {
    const TimePoint now = system().clock().now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      const bool idle = s.queue.empty() && !s.wire && s.conn && s.connected &&
                        s.conn->unacked_bytes() == 0;
      if (idle && now - s.last_activity > config_.idle_session_timeout) {
        // close() triggers on_closed asynchronously, which erases the
        // session; remove it from the map first so the callback's deferred
        // erase finds nothing and the connection drains out gracefully.
        close_session(it++)->close();
      } else {
        ++it;
      }
    }
  }

  std::vector<SessionStatus> statuses;
  statuses.reserve(sessions_.size());
  for (const auto& [key, s] : sessions_) {
    SessionStatus st;
    st.peer = s->peer;
    st.transport = s->transport;
    st.connected = s->connected;
    if (s->conn) {
      const auto& cs = s->conn->stats();
      st.bytes_written = cs.bytes_written;
      st.bytes_acked = cs.bytes_acked;
      st.bytes_unacked = s->conn->unacked_bytes() + s->queued_bytes;
    }
    statuses.push_back(st);
  }
  trigger(kompics::make_event<NetworkStatus>(std::move(statuses)), *net_port_);
  status_cancel_ = system().scheduler().schedule_delayed(
      kStatusInterval, [this] { status_tick(); });
}

void NetworkComponent::notify_result(NotifyId id, DeliveryStatus status,
                                     Transport via, std::size_t bytes) {
  trigger(kompics::make_event<MessageNotifyResp>(id, status, via, bytes),
          *net_port_);
}

void NetworkComponent::reflect_local(MsgPtr msg, std::optional<NotifyId> notify) {
  ++stats_.msgs_reflected;
  trigger(msg, *net_port_);
  if (notify) notify_result(*notify, DeliveryStatus::kSent,
                            msg->header().protocol(), 0);
}

void NetworkComponent::handle_outgoing(MsgPtr msg, std::optional<NotifyId> notify) {
  const Header& h = msg->header();
  if (h.destination().same_host_as(config_.self)) {
    reflect_local(std::move(msg), notify);
    return;
  }
  Transport proto = h.protocol();
  if (proto == Transport::kData) {
    // An unresolved DATA message reached the raw network component (no
    // interceptor in front); fall back to TCP, which gives DATA's reliability
    // guarantees.
    KMSG_WARN("network") << "unresolved DATA message; falling back to TCP";
    proto = Transport::kTcp;
  }
  if (proto == Transport::kUdp) {
    send_udp(*msg, notify);
    return;
  }
  if (proto != Transport::kTcp && proto != Transport::kUdt &&
      proto != Transport::kLedbat) {
    // A header carrying an out-of-range transport value (corrupted or
    // miscast) must still answer its notify — ids may never leak.
    ++stats_.unsupported_transport;
    ++stats_.msgs_dropped;
    KMSG_WARN("network") << "unsupported transport "
                         << static_cast<int>(proto) << "; dropping message";
    if (notify) notify_result(*notify, DeliveryStatus::kFailed, proto, 0);
    return;
  }

  // If the protocol was rewritten (DATA fallback), the wire envelope must
  // carry the resolved protocol so the receiver sees what was actually used.
  std::optional<Transport> override;
  if (proto != h.protocol()) override = proto;
  auto serialized = registry_->serialize(*msg, override);
  if (!serialized) {
    ++stats_.serialize_failures;
    ++stats_.msgs_dropped;
    if (notify) notify_result(*notify, DeliveryStatus::kFailed, proto, 0);
    return;
  }
  const std::size_t payload_bytes = serialized->size();
  // Delta encoding, compression and framing all run lazily at drain time
  // (encode_submsg / build_wire_frame): their output depends on the specific
  // connection the message ends up on.

  const Address peer = h.destination().with_vnode(0);
  if (auto it = peers_.find(peer);
      it != peers_.end() && it->second->health == PeerHealth::kDead) {
    // The supervisor has declared this peer Dead: fail notifies immediately
    // rather than letting them age in a queue, and park fire-and-forget
    // messages for replay if the peer recovers in time.
    if (notify) {
      ++stats_.msgs_dropped;
      notify_result(*notify, DeliveryStatus::kPeerFailed, proto,
                    payload_bytes);
    } else {
      park_dead_letter(*it->second, std::move(*serialized), msg->type_id(),
                       proto);
    }
    return;
  }

  PendingMsg m;
  m.serialized = std::move(*serialized);
  m.type_id = msg->type_id();
  m.notify = notify;
  m.payload_bytes = payload_bytes;
  enqueue(session_for(peer, proto), std::move(m));
}

bool NetworkComponent::enqueue(Session& s, PendingMsg m) {
  const std::size_t cap = config_.session_queue_limit_bytes;
  const bool fits = s.queued_bytes + m.payload_bytes <= cap;
  if (m.notify && m.payload_bytes <= cap && (!fits || !s.waiting.empty())) {
    // Backpressure: the notify stays unanswered until the message is
    // written, which is what paces a sender bounding its notifies.
    s.waiting.push_back(std::move(m));
    s.last_activity = system().clock().now();
    return true;
  }
  if (!fits) {
    ++stats_.queue_overflow;
    ++stats_.msgs_dropped;
    if (m.notify) {
      notify_result(*m.notify, DeliveryStatus::kFailed, s.transport,
                    m.payload_bytes);
    }
    return false;
  }
  s.queued_bytes += m.payload_bytes;
  s.queue.push_back(std::move(m));
  s.last_activity = system().clock().now();
  if (s.connected) drain(s);
  return true;
}

void NetworkComponent::send_udp(const Msg& msg, std::optional<NotifyId> notify) {
  if (!udp_) {
    ++stats_.msgs_dropped;
    if (notify) notify_result(*notify, DeliveryStatus::kFailed, Transport::kUdp, 0);
    return;
  }
  auto serialized = registry_->serialize(msg);
  if (!serialized) {
    ++stats_.serialize_failures;
    ++stats_.msgs_dropped;
    if (notify) notify_result(*notify, DeliveryStatus::kFailed, Transport::kUdp, 0);
    return;
  }
  const std::size_t payload_bytes = serialized->size();
  wire::BufSlice bytes = std::move(*serialized);
  if (config_.enable_compression) bytes = wire::compress(std::move(bytes));
  const auto& dst = msg.header().destination();
  const bool ok = udp_->send(dst.host, dst.port, std::move(bytes));
  if (ok) {
    ++stats_.msgs_sent;
    stats_.bytes_sent += payload_bytes;
  } else {
    ++stats_.msgs_dropped;
  }
  if (notify) {
    notify_result(*notify, ok ? DeliveryStatus::kSent : DeliveryStatus::kFailed,
                  Transport::kUdp, payload_bytes);
  }
}

NetworkComponent::Session& NetworkComponent::session_for(const Address& peer,
                                                         Transport t) {
  const auto key = std::make_pair(peer, t);
  if (auto it = sessions_.find(key); it != sessions_.end()) return *it->second;

  auto s = std::make_unique<Session>();
  s->peer = peer;
  s->transport = t;
  Session& ref = *s;
  sessions_.emplace(key, std::move(s));
  ++stats_.sessions_opened;
  peer_state(peer);
  open_session(ref);
  return ref;
}

void NetworkComponent::open_session(Session& s) {
  if (config_.enable_delta) {
    // Delta state is strictly per-connection: a replacement connection means
    // the peer allocates a fresh decoder, so the encoder must forget every
    // base and start the new stream on keyframes. This is the fencing rule —
    // no message is ever diffed against a base from a previous connection
    // (and therefore never against a pre-restart one).
    if (s.delta) {
      s.delta->reset(0);
    } else {
      s.delta = std::make_unique<DeltaEncoder>(registry_.get(),
                                               config_.delta_keyframe_interval);
    }
  }
  auto conn = connect_stream(host_, config_, s.transport, s.peer);
  s.conn = conn;
  const Address peer = s.peer;
  const Transport t = s.transport;
  conn->set_on_connected([this, peer, t] {
    auto it = sessions_.find({peer, t});
    if (it == sessions_.end()) return;
    Session& s = *it->second;
    s.connected = true;
    s.reconnect_attempts = 0;
    s.acked_snapshot = 0;
    send_hello(s);
    if (s.channel_health != PeerHealth::kHealthy) {
      emit_channel_status(peer, t, s.channel_health, PeerHealth::kHealthy,
                          HealthReason::kConnected, 0.0);
      s.channel_health = PeerHealth::kHealthy;
    }
    record_alive(peer, HealthReason::kConnected);
    drain(s);
  });
  conn->set_on_writable([this, peer, t] {
    auto it = sessions_.find({peer, t});
    if (it != sessions_.end() && it->second->connected) drain(*it->second);
  });
  // Outbound connections can also receive data (full-duplex sessions); the
  // Inbound record installed here must not steal on_closed, so the session's
  // close handler (below) both tears down the session and reaps the record.
  attach_inbound(conn, t, /*manage_close=*/false);
  auto* raw_conn = conn.get();
  conn->set_on_closed([this, peer, t, raw_conn] {
    defer([this, peer, t, raw_conn] {
      remove_inbound(raw_conn);
      on_session_closed(peer, t);
    });
  });
}

void NetworkComponent::defer(SmallFn fn) {
  host_.network_simulator().schedule_after(Duration::zero(), std::move(fn));
}

void NetworkComponent::drain(Session& s) {
  if (!s.conn || !s.connected) return;
  for (;;) {
    if (!s.wire) {
      if (s.queue.empty()) break;
      if (!should_build(s)) break;  // coalescer holding the queue open
      build_wire_frame(s);
    }
    WireFrame& w = *s.wire;
    const std::size_t n =
        s.conn->write(w.bytes.slice(w.offset, w.bytes.size() - w.offset));
    w.offset += n;
    if (w.offset < w.bytes.size()) return;  // transport backpressure
    stats_.wire_bytes_sent += w.bytes.size();
    for (PendingMsg& m : w.msgs) {
      if (!m.internal) {
        ++stats_.msgs_sent;
        stats_.bytes_sent += m.payload_bytes;
      }
      if (m.notify) {
        notify_result(*m.notify, DeliveryStatus::kSent, s.transport,
                      m.payload_bytes);
      }
      s.queued_bytes -= m.payload_bytes;
    }
    s.spare_msgs = std::move(w.msgs);
    s.spare_msgs.clear();
    s.wire.reset();
    // The completed frame freed room: waiting messages enter in order.
    while (!s.waiting.empty() &&
           s.queued_bytes + s.waiting.front().payload_bytes <=
               config_.session_queue_limit_bytes) {
      s.queued_bytes += s.waiting.front().payload_bytes;
      s.queue.push_back(std::move(s.waiting.front()));
      s.waiting.pop_front();
    }
  }
}

bool NetworkComponent::should_build(Session& s) {
  if (!config_.enable_coalescing || s.flush_now) return true;
  // Build immediately when an internal message would otherwise wait, or the
  // queue already fills the frame's byte ceiling; otherwise hold the queue
  // open for frame-mates until the latency budget expires.
  std::size_t bytes = 0;
  for (const PendingMsg& m : s.queue) {
    if (m.internal) return true;
    bytes += m.serialized.size();
    if (bytes >= kCoalesceMaxBytes) return true;
  }
  if (!s.coalesce_timer) {
    const Address peer = s.peer;
    const Transport t = s.transport;
    s.coalesce_timer = system().scheduler().schedule_delayed(
        kCoalesceDelay, [this, peer, t] {
          auto it = sessions_.find({peer, t});
          if (it == sessions_.end()) return;
          Session& ss = *it->second;
          ss.coalesce_timer = {};
          ss.flush_now = true;
          if (ss.connected) drain(ss);
          ss.flush_now = false;
        });
  }
  return false;
}

void NetworkComponent::build_wire_frame(Session& s) {
  s.coalesce_timer.cancel();
  std::vector<PendingMsg> msgs = std::move(s.spare_msgs);
  msgs.push_back(std::move(s.queue.front()));
  s.queue.pop_front();
  if (config_.enable_coalescing) {
    std::size_t bytes = msgs.front().serialized.size();
    while (!s.queue.empty() &&
           bytes + s.queue.front().serialized.size() <= kCoalesceMaxBytes) {
      bytes += s.queue.front().serialized.size();
      msgs.push_back(std::move(s.queue.front()));
      s.queue.pop_front();
    }
  }

  WireFrame w;
  if (msgs.size() > 1) {
    std::vector<wire::BufSlice> subs;
    subs.reserve(msgs.size());
    for (PendingMsg& m : msgs) subs.push_back(encode_submsg(s.delta.get(), m));
    w.bytes = frame(wire::encode_wire_coalesced(subs), /*coalesced=*/true);
    ++stats_.coalesced_frames_sent;
    stats_.coalesced_msgs_sent += msgs.size();
  } else {
    w.bytes = frame_single(s.delta.get(), msgs.front());
  }
  w.msgs = std::move(msgs);
  s.wire.emplace(std::move(w));
}

wire::BufSlice NetworkComponent::encode_submsg(DeltaEncoder* delta,
                                               PendingMsg& m) {
  wire::BufSlice bytes;
  if (delta != nullptr) {
    // Pass a shared copy and keep m.serialized: if this connection dies
    // before the frame completes, the reconnect path re-encodes the message
    // against the replacement connection's fresh encoder state. The first
    // keyframe claims the headroom for its tag; a re-encoded one pays one
    // small counted copy (the bytes below m.serialized are claimed); diffs
    // build fresh buffers anyway.
    const std::uint64_t deltas0 = delta->deltas_sent();
    const std::uint64_t keys0 = delta->keyframes_sent();
    const std::uint64_t saved0 = delta->bytes_saved();
    bytes = delta->encode(m.type_id, m.serialized);
    stats_.deltas_sent += delta->deltas_sent() - deltas0;
    stats_.delta_keyframes_sent += delta->keyframes_sent() - keys0;
    stats_.delta_bytes_saved += delta->bytes_saved() - saved0;
  } else {
    // No re-encode possible or needed: move the serialised bytes out so the
    // frame header lands in the serialise slab's headroom — the zero-copy
    // path.
    bytes = std::move(m.serialized);
  }
  if (config_.enable_compression) bytes = wire::compress(std::move(bytes));
  return bytes;
}

wire::BufSlice NetworkComponent::frame_single(DeltaEncoder* delta,
                                              PendingMsg& m) {
  return frame(encode_submsg(delta, m));
}

void NetworkComponent::on_session_closed(const Address& peer, Transport t) {
  auto it = sessions_.find({peer, t});
  if (it == sessions_.end()) return;
  Session& s = *it->second;
  PeerState& ps = peer_state(peer);

  if (!s.connected) {
    // The channel never established: no heartbeat stream exists for the phi
    // statistics to observe, so the failed connect feeds suspicion directly.
    ps.phi.penalize(config_.phi_connect_fail_penalty);
  }
  if (s.queue.empty() && !s.wire) {
    close_session(it);
    return;
  }

  // Session re-establishment: messages are still queued (the connection was
  // aborted by a poisoned frame stream, or collapsed mid-partition), so
  // retry with backoff rather than dropping them.
  if (s.reconnect_attempts < config_.session_reconnect_attempts) {
    ++stats_.sessions_closed;
    ++s.reconnect_attempts;
    ++stats_.session_reconnects;
    s.connected = false;
    s.conn = nullptr;
    s.coalesce_timer.cancel();
    if (s.wire) {
      if (config_.enable_delta) {
        // The in-flight frame was encoded against the dead connection's
        // delta state, which the replacement connection's fresh decoder will
        // not share; dissolve it back into the queue so open_session's
        // encoder reset re-encodes every message as keyframe-rooted traffic.
        for (auto rit = s.wire->msgs.rbegin(); rit != s.wire->msgs.rend();
             ++rit) {
          s.queue.push_front(std::move(*rit));
        }
        s.wire.reset();
      } else {
        // The built frame is connection-independent; replay it from its
        // first byte — the peer's old decoder died with the old connection,
        // so the replacement stream starts on a clean frame boundary. It
        // lands ahead of the reconnect hello, which is safe: pre-hello
        // frames (incarnation 0) on a fresh connection are never fenced and
        // always belong to the current live process — a zombie would have
        // announced itself when *its* connection opened.
        s.wire->offset = 0;
      }
    }
    if (s.channel_health == PeerHealth::kHealthy) {
      s.channel_health = PeerHealth::kSuspected;
      emit_channel_status(peer, t, PeerHealth::kHealthy,
                          PeerHealth::kSuspected, HealthReason::kSuspicion,
                          ps.phi.phi(system().clock().now()));
    }
    const Duration delay = Duration::nanos(
        config_.session_reconnect_backoff.as_nanos() << (s.reconnect_attempts - 1));
    KMSG_INFO("network") << "session to " << peer.to_string()
                         << " died with queued frames; reconnect attempt "
                         << s.reconnect_attempts << " in " << to_string(delay);
    s.reconnect_timer = system().scheduler().schedule_delayed(
        delay, [this, peer, t] {
          auto sit = sessions_.find({peer, t});
          if (sit == sessions_.end()) return;
          sit->second->reconnect_timer = {};
          open_session(*sit->second);
        });
    return;
  }

  // Reconnects exhausted with messages still queued: the channel is dead.
  // Notify-requested messages get a definitive PeerFailed; fire-and-forget
  // messages are parked as dead letters for a possible recovery flush.
  const double score = ps.phi.phi(system().clock().now());
  dispose_queue(s, DeliveryStatus::kPeerFailed, &ps);
  emit_channel_status(peer, t, s.channel_health, PeerHealth::kDead,
                      HealthReason::kReconnectExhausted, score);
  close_session(it);
  // If no other channel to the peer is alive, the peer itself is Dead —
  // declare it so remaining (still-connecting) sessions are torn down and
  // the probe cycle starts.
  bool any_connected = false;
  for (const auto& [key, other] : sessions_) {
    if (key.first == peer && other->connected) { any_connected = true; break; }
  }
  if (!any_connected) {
    declare_dead(peer, HealthReason::kReconnectExhausted,
                 DeliveryStatus::kPeerFailed);
  }
}

std::shared_ptr<transport::StreamConnection> NetworkComponent::close_session(
    SessionMap::iterator it) {
  Session& s = *it->second;
  s.reconnect_timer.cancel();
  s.coalesce_timer.cancel();
  ++stats_.sessions_closed;
  auto conn = std::move(s.conn);
  sessions_.erase(it);
  return conn;
}

void NetworkComponent::dispose_queue(Session& s, DeliveryStatus status,
                                     PeerState* letters) {
  auto dispose = [&](PendingMsg& m) {
    if (m.internal) return;
    // A message already encoded into the in-flight frame with its
    // serialised form moved out (delta off) has nothing left to replay.
    if (letters != nullptr && !m.notify && !m.serialized.empty()) {
      park_dead_letter(*letters, std::move(m.serialized), m.type_id,
                       s.transport);
      return;
    }
    ++stats_.msgs_dropped;
    if (m.notify) notify_result(*m.notify, status, s.transport, m.payload_bytes);
  };
  if (s.wire) {
    for (auto& m : s.wire->msgs) dispose(m);
  }
  for (auto& m : s.queue) dispose(m);
  for (auto& m : s.waiting) dispose(m);
}

void NetworkComponent::attach_inbound(
    std::shared_ptr<transport::StreamConnection> conn, Transport t,
    bool manage_close) {
  auto in = std::make_unique<Inbound>();
  in->conn = conn;
  in->transport = t;
  in->decoder = std::make_unique<wire::FrameDecoder>();
  Inbound* raw = in.get();
  in->decoder->set_on_frame(
      [this, raw](wire::BufSlice frame) { deliver_frame(std::move(frame), raw); });
  // Each run arrives as a view of the sender's written frame, so the decoder
  // cuts frames out of it in place. A segment may hand over two runs: once
  // one of them poisons the stream, the rest of it is ignored, so a poisoned
  // stream is counted and aborted once.
  conn->set_on_data([this, raw](const wire::BufSlice& chunk) {
    if (raw->decoder->poisoned()) return;
    if (!raw->decoder->feed(chunk)) {
      stats_.frames_corrupt += raw->decoder->frames_corrupt();
      KMSG_ERROR("network") << "poisoned frame stream; aborting connection";
      raw->conn->abort();
    }
  });
  if (manage_close) {
    // Accepted (passive) connections have no Session record; reap on close.
    auto* raw_conn = conn.get();
    conn->set_on_closed([this, raw_conn] {
      defer([this, raw_conn] { remove_inbound(raw_conn); });
    });
  }
  inbound_.push_back(std::move(in));
}

void NetworkComponent::remove_inbound(transport::StreamConnection* conn) {
  inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(),
                                [conn](const std::unique_ptr<Inbound>& p) {
                                  return p->conn.get() == conn;
                                }),
                 inbound_.end());
}

void NetworkComponent::deliver_frame(wire::BufSlice bytes, Inbound* from) {
  // The message names its own encoding (wire/codec.hpp): undo compression,
  // then delta coding, each only when its tag is present.
  if (!bytes.empty() && bytes[0] == wire::kSnappyTag) {
    auto inflated = wire::decompress(bytes);
    if (!inflated) {
      ++stats_.deserialize_failures;
      return;
    }
    bytes = std::move(*inflated);
  }
  // Delta coding keys on a connection, so UDP (from == nullptr) never
  // carries it; a stray delta tag there fails as an unknown type id below.
  if (from != nullptr && !bytes.empty() && bytes[0] <= wire::kDeltaDiffTag) {
    // A diff we hold no base for is not a stream error — the message is
    // dropped (at-most-once) and the sender asked to keyframe that type.
    if (!from->delta) {
      from->delta = std::make_unique<DeltaDecoder>(registry_.get());
    }
    const std::uint64_t deltas0 = from->delta->deltas_received();
    auto res = from->delta->decode(std::move(bytes));
    if (res.status == DeltaDecoder::Status::kNeedReset) {
      send_delta_reset(from, res.type_id);
      return;
    }
    if (res.status == DeltaDecoder::Status::kMalformed) {
      ++stats_.deserialize_failures;
      send_delta_reset(from, res.type_id);
      return;
    }
    stats_.deltas_received += from->delta->deltas_received() - deltas0;
    bytes = std::move(res.msg);
  }
  const std::size_t inbound_bytes = bytes.size();
  // The deserialised message's payload stays a view of this same slab.
  auto msg = registry_->deserialize(std::move(bytes));
  if (!msg) {
    ++stats_.deserialize_failures;
    return;
  }
  if (msg->type_id() == kSessionHelloTypeId) {
    handle_hello(static_cast<const SessionHelloMsg&>(*msg), from);
    return;
  }
  if (from != nullptr && from->incarnation != 0) {
    // Incarnation fence: a connection whose hello announced an older
    // incarnation than the peer's newest known one belongs to the pre-crash
    // process — anything still arriving on it is a zombie frame that was in
    // flight when the process died. At-most-once semantics let us drop it;
    // delivering would resurrect state the new incarnation no longer owns.
    const auto pit = peers_.find(msg->header().source().with_vnode(0));
    if (pit != peers_.end() &&
        from->incarnation < pit->second->remote_incarnation) {
      ++stats_.stale_frames_fenced;
      return;
    }
  }
  if (msg->type_id() == kHeartbeatTypeId) {
    handle_heartbeat(static_cast<const HeartbeatMsg&>(*msg), from);
    return;
  }
  if (msg->type_id() == kDeltaResetTypeId) {
    handle_delta_reset(static_cast<const DeltaResetMsg&>(*msg));
    return;
  }
  ++stats_.msgs_received;
  stats_.bytes_received += inbound_bytes;
  // Any inbound message proves the sender alive.
  record_alive(msg->header().source().with_vnode(0), HealthReason::kEvidence);
  trigger(msg, *net_port_);
}

void NetworkComponent::deliver_udp(wire::BufSlice payload) {
  deliver_frame(std::move(payload), nullptr);
}

// --- Supervision ------------------------------------------------------------

NetworkComponent::PeerState& NetworkComponent::peer_state(const Address& peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    auto ps = std::make_unique<PeerState>(config_.phi);
    ps->phi.reset(system().clock().now());
    it = peers_.emplace(peer, std::move(ps)).first;
  }
  return *it->second;
}

PeerHealth NetworkComponent::peer_health(const Address& peer) const {
  const auto it = peers_.find(peer.with_vnode(0));
  return it == peers_.end() ? PeerHealth::kHealthy : it->second->health;
}

std::size_t NetworkComponent::queued_bytes_total() const {
  std::size_t total = 0;
  for (const auto& [key, s] : sessions_) total += s->queued_bytes;
  return total;
}

std::size_t NetworkComponent::dead_letter_bytes_total() const {
  std::size_t total = 0;
  for (const auto& [addr, ps] : peers_) total += ps->dead_letter_bytes;
  return total;
}

void NetworkComponent::supervision_tick() {
  const TimePoint now = system().clock().now();

  // Acknowledgement progress counts as liveness evidence: during a bulk
  // transfer the session queue never empties, so no heartbeats flow — but a
  // peer that keeps acking bytes is self-evidently alive.
  for (auto& [key, s] : sessions_) {
    if (!s->connected || !s->conn) continue;
    const std::uint64_t acked = s->conn->stats().bytes_acked;
    if (acked > s->acked_snapshot) {
      s->acked_snapshot = acked;
      record_alive(key.first, HealthReason::kEvidence);
    }
  }

  // Heartbeat pings on idle established channels. Busy channels are skipped:
  // a heartbeat queued behind megabytes of backlog would measure queue depth,
  // not liveness, and ack progress above already covers them.
  for (auto& [key, s] : sessions_) {
    if (s->connected && s->conn && s->queue.empty() && !s->wire) {
      send_heartbeat(*s, peer_state(key.first));
    }
  }

  // Evaluate suspicion for every peer with at least one channel. Peers with
  // no sessions are dormant, not dead — nothing is expected from them.
  for (auto& [addr, ps] : peers_) {
    if (ps->health == PeerHealth::kDead) continue;
    bool has_session = false;
    for (const auto& [key, s] : sessions_) {
      if (key.first == addr) { has_session = true; break; }
    }
    if (!has_session) continue;
    const double score = ps->phi.phi(now);
    if (ps->health == PeerHealth::kSuspected && score >= kPhiDead) {
      declare_dead(addr, HealthReason::kSuspicionExpired,
                   DeliveryStatus::kTimedOut);
    } else if (ps->health != PeerHealth::kSuspected && score >= kPhiSuspect) {
      set_peer_health(addr, *ps, PeerHealth::kSuspected,
                      HealthReason::kSuspicion);
    }
  }

  supervision_cancel_ = system().scheduler().schedule_delayed(
      kHeartbeatInterval, [this] { supervision_tick(); });
}

void NetworkComponent::send_heartbeat(Session& s, PeerState& ps) {
  HeartbeatMsg hb(BasicHeader(config_.self, s.peer, s.transport),
                  /*request=*/true, ps.hb_seq++);
  if (!enqueue_internal(s, hb)) return;
  ++stats_.heartbeats_sent;
  drain(s);
}

void NetworkComponent::handle_heartbeat(const HeartbeatMsg& hb, Inbound* from) {
  ++stats_.heartbeats_received;
  record_alive(hb.header().source().with_vnode(0), HealthReason::kEvidence,
               /*interval_sample=*/true);
  if (!hb.request()) return;

  // Echo the heartbeat. Prefer an existing outbound session (keeps FIFO with
  // our own pings); otherwise answer straight down the connection it arrived
  // on. Never dial a new session just to ack a ping.
  const Address src = hb.header().source().with_vnode(0);
  const Transport t = from ? from->transport : hb.header().protocol();
  HeartbeatMsg echo(BasicHeader(config_.self, hb.header().source(), t),
                    /*request=*/false, hb.seq());
  if (auto it = sessions_.find({src, t});
      it != sessions_.end() && it->second->connected) {
    Session& s = *it->second;
    if (!enqueue_internal(s, echo)) return;
    ++stats_.heartbeats_sent;
    drain(s);
  } else if (from && from->conn) {
    // Accepted connections are otherwise never written to; a heartbeat echo
    // is the one exception. No delta state exists for this direction, so
    // it goes out plain (compressed at most), which every receiver decodes.
    // It is written whole or not at all: a short write would leave a frame
    // prefix on the stream for the next frame to be misread against. Echoes
    // are cheap and the next ping retries.
    auto serialized = registry_->serialize(echo);
    if (!serialized) return;
    PendingMsg m;
    m.serialized = std::move(*serialized);
    const wire::BufSlice framed = frame_single(nullptr, m);
    if (from->conn->writable_bytes() < framed.size()) return;
    from->conn->write(framed);
    ++stats_.heartbeats_sent;
  }
}

void NetworkComponent::send_hello(Session& s) {
  SessionHelloMsg hello(BasicHeader(config_.self, s.peer, s.transport),
                        host_.incarnation());
  // Front of the queue: the receiver must learn our incarnation before any
  // payload, or a frame raced ahead of the hello could not be classified.
  if (enqueue_internal(s, hello, /*front=*/true)) ++stats_.hellos_sent;
}

bool NetworkComponent::enqueue_internal(Session& s, const Msg& msg,
                                        bool front) {
  auto serialized = registry_->serialize(msg);
  if (!serialized) return false;
  PendingMsg m;
  m.type_id = msg.type_id();
  m.internal = true;
  m.payload_bytes = serialized->size();
  m.serialized = std::move(*serialized);
  s.queued_bytes += m.payload_bytes;
  if (front) {
    s.queue.push_front(std::move(m));
  } else {
    s.queue.push_back(std::move(m));
  }
  return true;
}

void NetworkComponent::handle_hello(const SessionHelloMsg& hello,
                                    Inbound* from) {
  ++stats_.hellos_received;
  const Address src = hello.header().source().with_vnode(0);
  if (from != nullptr) {
    from->incarnation = hello.incarnation();
    // Learn who is on the other end: a DeltaResetMsg for this connection's
    // decoder must be addressed somewhere, and the hello is the first (and
    // authoritative) statement of the sender's identity.
    from->peer = src;
    from->has_peer = true;
  }
  PeerState& ps = peer_state(src);
  if (hello.incarnation() < ps.remote_incarnation) {
    // A zombie connection introducing its pre-crash incarnation; every frame
    // it carries (including this hello) is stale.
    ++stats_.stale_frames_fenced;
    return;
  }
  const std::uint64_t prev = ps.remote_incarnation;
  ps.remote_incarnation = hello.incarnation();
  if (prev != 0 && hello.incarnation() > prev) {
    ++stats_.peer_restarts;
    KMSG_INFO("network") << "peer " << src.to_string() << " restarted ("
                         << prev << " -> " << hello.incarnation() << ")";
    // The old process's heartbeat cadence died with it; restart the detector
    // alongside the peer so stale statistics cannot smear the new stream.
    ps.phi.reset(system().clock().now());
    trigger(kompics::make_event<PeerRestarted>(src, prev, hello.incarnation()),
            *net_port_);
    // Drives Dead -> Recovering and replays the dead-letter buffer to the
    // new incarnation (record_alive's health transitions flush it).
    record_alive(src, HealthReason::kPeerRestarted);
  } else {
    record_alive(src, HealthReason::kEvidence);
  }
}

void NetworkComponent::send_delta_reset(Inbound* from, std::uint32_t type_id) {
  // Without a hello we do not know who sent the undecodable diff; nothing to
  // do but drop it — the sender's periodic keyframe bounds the dark window.
  if (from == nullptr || !from->has_peer) return;
  DeltaResetMsg reset(BasicHeader(config_.self, from->peer, from->transport),
                      type_id);
  Session& s = session_for(from->peer, from->transport);
  if (!enqueue_internal(s, reset)) return;
  ++stats_.delta_resets_sent;
  drain(s);
}

void NetworkComponent::handle_delta_reset(const DeltaResetMsg& reset) {
  ++stats_.delta_resets_received;
  const Address src = reset.header().source().with_vnode(0);
  // The requester's decoder lost its bases; every one of our encoders
  // feeding that peer must forget its own so the next messages keyframe.
  for (auto& [key, s] : sessions_) {
    if (key.first == src && s->delta) {
      s->delta->reset(reset.reset_type_id());
    }
  }
  record_alive(src, HealthReason::kEvidence);
}

void NetworkComponent::record_alive(const Address& peer, HealthReason reason,
                                    bool interval_sample) {
  PeerState& ps = peer_state(peer);
  const TimePoint now = system().clock().now();
  if (interval_sample) {
    ps.phi.heartbeat(now);
  } else {
    ps.phi.touch(now);
  }
  switch (ps.health) {
    case PeerHealth::kHealthy:
      // Letters parked by a single-channel exhaustion (peer alive via other
      // transports) retry while evidence keeps flowing; the TTL bounds how
      // long a hopeless channel is re-dialled.
      flush_dead_letters(peer, ps);
      break;
    case PeerHealth::kSuspected:
      set_peer_health(peer, ps, PeerHealth::kHealthy, reason);
      break;
    case PeerHealth::kDead: {
      ps.probe_timer.cancel();
      set_peer_health(peer, ps, PeerHealth::kRecovering, reason);
      flush_dead_letters(peer, ps);
      // Recovering normally completes on the next evidence (heartbeats over
      // the sessions the flush re-opened). With nothing queued and nothing
      // flushed there is no traffic to produce that evidence — the probe
      // connect itself was the end-to-end proof, so complete immediately.
      bool any_session = false;
      for (const auto& [key, s] : sessions_) {
        if (key.first == peer) { any_session = true; break; }
      }
      if (!any_session) {
        set_peer_health(peer, ps, PeerHealth::kHealthy, reason);
      }
      break;
    }
    case PeerHealth::kRecovering:
      set_peer_health(peer, ps, PeerHealth::kHealthy, reason);
      break;
  }
}

void NetworkComponent::park_dead_letter(PeerState& ps,
                                        wire::BufSlice serialized,
                                        std::uint32_t type_id, Transport t) {
  ps.dead_letter_bytes += serialized.size();
  ps.dead_letters.push_back(
      DeadLetter{std::move(serialized), type_id, t, system().clock().now()});
  ++stats_.dead_letters_buffered;
  while (ps.dead_letter_bytes > config_.dead_letter_limit_bytes &&
         !ps.dead_letters.empty()) {
    ps.dead_letter_bytes -= ps.dead_letters.front().serialized.size();
    ps.dead_letters.pop_front();
    ++stats_.dead_letters_dropped;
    ++stats_.msgs_dropped;
  }
}

void NetworkComponent::declare_dead(const Address& peer, HealthReason reason,
                                    DeliveryStatus status) {
  PeerState& ps = peer_state(peer);
  if (ps.health == PeerHealth::kDead) return;
  const TimePoint now = system().clock().now();
  const double score = ps.phi.phi(now);

  // Tear down every channel to the peer. Sessions leave the map before their
  // connections are aborted so the deferred on_closed teardown finds nothing
  // (same discipline as idle reclamation).
  std::vector<std::shared_ptr<transport::StreamConnection>> doomed;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->first.first != peer) {
      ++it;
      continue;
    }
    Session& s = *it->second;
    dispose_queue(s, status, &ps);
    if (s.channel_health != PeerHealth::kDead) {
      emit_channel_status(peer, s.transport, s.channel_health,
                          PeerHealth::kDead, reason, score);
    }
    if (auto conn = close_session(it++)) doomed.push_back(std::move(conn));
  }
  for (auto& conn : doomed) conn->abort();

  set_peer_health(peer, ps, PeerHealth::kDead, reason);

  ps.probe_timer = system().scheduler().schedule_delayed(
      config_.dead_peer_probe_interval, [this, peer] { probe_dead_peer(peer); });
}

void NetworkComponent::probe_dead_peer(const Address& peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second->health != PeerHealth::kDead) return;
  PeerState& ps = *it->second;
  ps.probe_timer = {};

  // TCP probe: the cheapest channel to establish, and success is evidence
  // enough for the whole peer (Recovering re-opens per-transport sessions on
  // demand anyway).
  auto conn = connect_stream(host_, config_, Transport::kTcp, peer);
  ps.probe_conn = conn;
  auto* raw = conn.get();
  conn->set_on_connected([this, peer, raw] {
    record_alive(peer, HealthReason::kProbeSucceeded);
    defer([this, peer, raw] {
      auto pit = peers_.find(peer);
      if (pit != peers_.end() && pit->second->probe_conn.get() == raw) {
        auto doomed = pit->second->probe_conn;
        pit->second->probe_conn = nullptr;
        doomed->close();
      }
    });
  });
  conn->set_on_closed([this, peer, raw] {
    defer([this, peer, raw] {
      auto pit = peers_.find(peer);
      if (pit == peers_.end() || pit->second->probe_conn.get() != raw) return;
      PeerState& state = *pit->second;
      state.probe_conn = nullptr;
      if (state.health == PeerHealth::kDead && !state.probe_timer) {
        state.probe_timer = system().scheduler().schedule_delayed(
            config_.dead_peer_probe_interval,
            [this, peer] { probe_dead_peer(peer); });
      }
    });
  });
}

void NetworkComponent::flush_dead_letters(const Address& peer, PeerState& ps) {
  if (ps.dead_letters.empty()) return;
  const TimePoint now = system().clock().now();
  std::deque<DeadLetter> letters;
  letters.swap(ps.dead_letters);
  ps.dead_letter_bytes = 0;
  for (std::size_t i = 0; i < letters.size(); ++i) {
    // Re-check per letter: draining a flushed frame runs transport code that
    // can collapse the very channel we are flushing into, flipping the peer
    // back to Suspected/Dead mid-loop. Re-queueing the remainder onto a peer
    // already known unhealthy would just bounce them straight back here (or
    // lose them); re-park them instead and let the next recovery retry.
    // Re-parking bypasses park_dead_letter so the letters keep their original
    // timestamps and are not counted as buffered twice.
    if (ps.health == PeerHealth::kDead || ps.health == PeerHealth::kSuspected) {
      for (std::size_t j = i; j < letters.size(); ++j) {
        ps.dead_letter_bytes += letters[j].serialized.size();
        ps.dead_letters.push_back(std::move(letters[j]));
      }
      return;
    }
    DeadLetter& dl = letters[i];
    if (now - dl.at > config_.dead_letter_ttl) {
      ++stats_.dead_letters_dropped;
      ++stats_.msgs_dropped;
      continue;
    }
    PendingMsg m;
    m.payload_bytes = dl.serialized.size();
    m.serialized = std::move(dl.serialized);
    m.type_id = dl.type_id;
    // A letter is fire-and-forget: over the cap it is dropped for good.
    if (enqueue(session_for(peer, dl.transport), std::move(m))) {
      ++stats_.dead_letters_flushed;
    } else {
      ++stats_.dead_letters_dropped;
    }
  }
}

void NetworkComponent::set_peer_health(const Address& peer, PeerState& ps,
                                       PeerHealth next, HealthReason reason) {
  if (ps.health == next) return;
  const PeerHealth old = ps.health;
  ps.health = next;
  if (next == PeerHealth::kSuspected) ++stats_.peers_suspected;
  if (next == PeerHealth::kDead) ++stats_.peers_died;
  if (old == PeerHealth::kRecovering && next == PeerHealth::kHealthy) {
    ++stats_.peers_recovered;
  }
  const double score = ps.phi.phi(system().clock().now());
  KMSG_INFO("network") << "peer " << peer.to_string() << " "
                       << to_string(old) << " -> " << to_string(next) << " ("
                       << to_string(reason) << ", phi=" << score << ")";
  trigger(kompics::make_event<ConnectionStatus>(peer, std::nullopt, old, next,
                                                reason, score),
          *net_port_);
}

void NetworkComponent::emit_channel_status(const Address& peer, Transport t,
                                           PeerHealth old_h, PeerHealth new_h,
                                           HealthReason reason, double phi) {
  trigger(kompics::make_event<ConnectionStatus>(
              peer, std::optional<Transport>(t), old_h, new_h, reason, phi),
          *net_port_);
}

}  // namespace kmsg::messaging
