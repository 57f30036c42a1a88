// NetworkComponent: the NettyNetwork analogue (paper §III).
//
// Provides the Network port. Outbound Msg requests are serialised through
// the registry, encoded as this component's config chooses (delta coding,
// compression, coalescing), framed, and written to a transport session
// selected by the message header's (destination, protocol) pair —
// sessions are created lazily, messages queue while a session connects, and
// established sessions are kept open conservatively (channel establishment
// may be expensive, e.g. NAT hole punching). Inbound frames are decoded,
// deserialised and triggered as Msg indications. Every frame and message
// names its own encoding (wire/framing.hpp, wire/codec.hpp), so the receive
// path reads no encoding setting and decodes any mix of senders.
//
// Messages whose destination sameHostAs the local endpoint are *reflected*:
// delivered straight back up the network port without serialisation. The
// virtual-network package routes such messages to the right vnode via
// channel selectors (see virtual_network.hpp).
//
// Delivery semantics: at-most-once (frames already handed to a connection
// that dies are lost; queued ones ride a re-established connection or, once
// reconnects run out, are answered PeerFailed or parked as dead letters);
// FIFO per (destination, transport) over TCP/UDT, unordered over UDP —
// exactly the semantics table of paper §III-B.
//
// Overload: each session's queue is capped (session_queue_limit_bytes). A
// notify-requested message that does not fit waits in its session, behind
// any notified message already waiting, and enters the queue as completed
// frames free room, so notified messages keep their order. Its notify is
// answered when it is written or when the session dies: a sender that
// bounds its outstanding notifies is paced by the network, not refused. A
// fire-and-forget message that does not fit is dropped and counted as
// queue_overflow (no sender bounds it); one that fits enters at once,
// passing any waiting message.
//
// Wire-level port convention: TCP listens on (tcp, port); plain UDP on
// (udp, port); UDT on (udp, port + 1) and LEDBAT on (udp, port + 2) so the
// UDP consumers do not clash. Every component listens on all four.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/small_fn.hpp"
#include "kompics/system.hpp"
#include "messaging/network_port.hpp"
#include "messaging/serialization.hpp"
#include "messaging/supervision.hpp"
#include "transport/ledbat.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "transport/udt.hpp"
#include "wire/framing.hpp"

namespace kmsg::messaging {

struct NetworkConfig {
  Address self;
  transport::TcpConfig tcp;
  transport::UdtConfig udt;
  transport::UdpConfig udp;
  transport::LedbatConfig ledbat;
  // --- Wire encoding (sender-side choices) ---
  // Each switch changes only what this component sends: every frame and
  // message says how it is encoded, so any receiver decodes it whatever its
  // own switches, and mixed clusters interoperate. With all three off no
  // codec tag or frame flag is ever written. UDP traffic is never
  // delta-coded or coalesced (no per-connection state to key on).
  /// Snappy-like compression of each message that it shrinks (the paper's
  /// Netty default). Off by default here because the reference workloads
  /// are incompressible; sweep_test turns it on.
  bool enable_compression = false;
  /// Schema-aware delta encoding: messages whose type registered a
  /// DeltaSchema travel as field diffs against the last message of that
  /// type on the same connection (keyframes per delta_keyframe_interval).
  bool enable_delta = false;
  /// Messages between forced keyframes on each (connection, type) stream —
  /// bounds how long a receiver that lost its base stays dark.
  std::uint32_t delta_keyframe_interval = 64;
  /// Nagle-style frame coalescing: consecutive queued messages are packed
  /// into one frame under a single length/CRC header, up to 8 KiB of
  /// serialised payload, flushing after a 500 us latency budget or as soon
  /// as an internal message (heartbeat, hello, keyframe request) enters the
  /// queue.
  bool enable_coalescing = false;
  /// Per-session cap on queued-but-unwritten frame bytes. A notified message
  /// beyond it waits, in order, until completed frames free room; a
  /// fire-and-forget one is dropped (at-most-once) and counted as
  /// queue_overflow, and so is a notified one larger than the whole cap,
  /// whose notify is answered Failed. 4 MiB: enough for ~64 of the paper's
  /// 65 kB chunks — a healthy session drains that in well under a second,
  /// so anything deeper is a dead peer masquerading as backlog.
  std::size_t session_queue_limit_bytes = 4 * 1024 * 1024;
  /// Idle outbound sessions are eventually closed to reclaim resources —
  /// conservatively, since channel establishment may be expensive (the
  /// paper cites NAT hole punching, §III-C). Duration::zero() disables
  /// reclamation entirely.
  Duration idle_session_timeout = Duration::seconds(600.0);
  /// When a session dies with frames still queued (e.g. the connection was
  /// aborted by a poisoned frame stream or collapsed during a partition),
  /// the component re-establishes it up to this many times. After that (or
  /// at once, with 0) the channel is Dead: queued notifies are answered
  /// PeerFailed and fire-and-forget messages parked as dead letters.
  int session_reconnect_attempts = 3;
  /// Base delay before a reconnect attempt; doubles per consecutive failure.
  Duration session_reconnect_backoff = Duration::millis(200);

  // --- Channel supervision (peer-health FSM, heartbeats, dead letters) ---
  // Always on: idle established sessions exchange heartbeats every 100 ms
  // (busy ones count acknowledgement progress instead); a peer whose phi
  // reaches 1.0 is Suspected, and a Suspected peer reaching 8.0 is Dead —
  // its sessions are torn down, queued notifies answered TimedOut and
  // fire-and-forget messages dead-lettered.
  /// Phi-accrual detector parameters (window, std floor, acceptable pause).
  PhiConfig phi;
  /// Suspicion added per failed connect attempt (a channel that cannot
  /// establish produces no heartbeats for the statistics to observe).
  double phi_connect_fail_penalty = 2.0;
  /// While a peer is Dead, a probe connect is attempted at this cadence; a
  /// successful probe (or any inbound evidence) moves it to Recovering.
  Duration dead_peer_probe_interval = Duration::seconds(2.0);
  /// Per-peer cap on dead-letter bytes; overflow evicts the oldest letters.
  std::size_t dead_letter_limit_bytes = 4 * 1024 * 1024;
  /// Dead letters older than this are dropped instead of flushed when the
  /// peer recovers (the application has long since given up on them).
  Duration dead_letter_ttl = Duration::seconds(10.0);
};

struct NetworkComponentStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t msgs_reflected = 0;  ///< local vnode traffic, never serialised
  std::uint64_t msgs_dropped = 0;
  std::uint64_t bytes_sent = 0;      ///< serialised bytes (pre-framing)
  std::uint64_t bytes_received = 0;
  std::uint64_t serialize_failures = 0;
  std::uint64_t deserialize_failures = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t session_reconnects = 0;  ///< re-establishments after a dead session
  std::uint64_t frames_corrupt = 0;      ///< inbound frames failing the CRC check
  std::uint64_t queue_overflow = 0;      ///< drops at the session queue cap
  std::uint64_t unsupported_transport = 0;
  // Supervision layer.
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t peers_suspected = 0;
  std::uint64_t peers_died = 0;
  std::uint64_t peers_recovered = 0;
  std::uint64_t dead_letters_buffered = 0;
  std::uint64_t dead_letters_flushed = 0;
  std::uint64_t dead_letters_dropped = 0;  ///< evicted or expired, never resent
  // Crash-recovery (incarnation fencing).
  std::uint64_t hellos_sent = 0;
  std::uint64_t hellos_received = 0;
  std::uint64_t peer_restarts = 0;         ///< hellos with a higher incarnation
  std::uint64_t stale_frames_fenced = 0;   ///< zombie frames from old incarnations
  // Wire efficiency (delta encoding + frame coalescing).
  std::uint64_t deltas_sent = 0;            ///< messages sent as field diffs
  std::uint64_t delta_keyframes_sent = 0;   ///< messages sent in full
  std::uint64_t delta_bytes_saved = 0;      ///< serialised bytes elided by diffs
  std::uint64_t deltas_received = 0;        ///< diffs successfully reconstructed
  std::uint64_t delta_resets_sent = 0;      ///< keyframe requests we issued
  std::uint64_t delta_resets_received = 0;  ///< keyframe requests we honoured
  std::uint64_t coalesced_frames_sent = 0;  ///< frames carrying >1 message
  std::uint64_t coalesced_msgs_sent = 0;    ///< messages inside those frames
  std::uint64_t wire_bytes_sent = 0;        ///< framed bytes handed to streams
};

class NetworkComponent final : public kompics::ComponentDefinition {
 public:
  NetworkComponent(netsim::Host& host, NetworkConfig config,
                   std::shared_ptr<SerializerRegistry> registry);
  ~NetworkComponent() override;

  void setup() override;

  kompics::PortInstance& network_port() { return *net_port_; }
  const NetworkComponentStats& net_stats() const { return stats_; }
  const NetworkConfig& net_config() const { return config_; }

  /// Supervision view of a peer (keyed by vnode-stripped address); kHealthy
  /// for peers the component has never tracked.
  PeerHealth peer_health(const Address& peer) const;
  /// Sum of queued-but-unwritten bytes across all sessions' capped queues;
  /// messages waiting for room are not counted (test hook: a Dead
  /// declaration must leave nothing behind).
  std::size_t queued_bytes_total() const;
  std::size_t session_count() const { return sessions_.size(); }
  std::size_t dead_letter_bytes_total() const;

 private:
  /// One message awaiting the wire. Queued in serialised (envelope+body)
  /// form: the delta/compression/framing transforms run lazily when a frame
  /// is built at drain time, because their output is per-*connection*
  /// state — a frame built for one connection must not be replayed verbatim
  /// onto its replacement when delta encoding is on.
  struct PendingMsg {
    wire::BufSlice serialized;  // envelope+body (moved out at frame build
                                // unless delta needs it for re-encoding)
    std::uint32_t type_id = 0;
    std::optional<NotifyId> notify;
    std::size_t payload_bytes = 0;  // serialised size: the notify's byte
                                    // count and the queued_bytes share
    bool internal = false;  // hello, heartbeat, echo or keyframe request:
                            // exempt from stats, caps and dead letters, and
                            // never held back by the coalescer
  };

  /// The frame currently being written to the transport, with the messages
  /// it was built from (for notifies on completion, and for re-encoding on
  /// reconnect). Backpressure resumes *these* bytes — a partially written
  /// coalesced frame is replayed as built, never re-coalesced.
  struct WireFrame {
    wire::BufSlice bytes;    // header + payload, as handed to the transport
    std::size_t offset = 0;  // bytes already written
    std::vector<PendingMsg> msgs;
  };

  struct Session {
    Address peer;  // vnode stripped
    Transport transport = Transport::kTcp;
    std::shared_ptr<transport::StreamConnection> conn;
    std::deque<PendingMsg> queue;       // not yet framed
    std::optional<WireFrame> wire;      // frame in flight, built at drain
    std::vector<PendingMsg> spare_msgs;  // emptied msgs of the last frame,
                                         // reused by the next
    std::size_t queued_bytes = 0;       // queue + wire accounting (capped)
    std::deque<PendingMsg> waiting;     // notified, over the cap, in order
    std::unique_ptr<DeltaEncoder> delta;  // non-null when enable_delta
    kompics::TimerHandle coalesce_timer;  // pending latency-budget flush
    bool flush_now = false;  // budget expired: build regardless of fill
    bool connected = false;
    TimePoint last_activity = TimePoint::zero();
    int reconnect_attempts = 0;        // consecutive failures since last connect
    kompics::TimerHandle reconnect_timer; // pending re-establishment, if any
    // Supervision bookkeeping.
    PeerHealth channel_health = PeerHealth::kHealthy;  // last reported state
    std::uint64_t acked_snapshot = 0;  // bytes_acked at the last tick
  };

  struct Inbound {
    std::shared_ptr<transport::StreamConnection> conn;
    std::unique_ptr<wire::FrameDecoder> decoder;
    std::unique_ptr<DeltaDecoder> delta;  // made by the first delta tag
    Transport transport = Transport::kTcp;
    /// Sender incarnation announced by this connection's session hello;
    /// 0 until a hello arrives (legacy/UDP traffic is never fenced).
    std::uint64_t incarnation = 0;
    /// Sender address from the hello (vnode stripped) — where a keyframe
    /// request for this connection's delta stream must be addressed.
    Address peer{};
    bool has_peer = false;
  };

  /// A message parked when its peer was Dead, replayed on recovery if still
  /// within dead_letter_ttl. Parked in serialised form so the replay runs
  /// through the full encode path of whatever connection flushes it.
  /// Notify-requested messages are never parked — they get a definitive
  /// PeerFailed/TimedOut answer instead.
  struct DeadLetter {
    wire::BufSlice serialized;
    std::uint32_t type_id = 0;
    Transport transport = Transport::kTcp;
    TimePoint at = TimePoint::zero();
  };

  /// Per-peer supervision state (keyed by vnode-stripped address).
  struct PeerState {
    PeerHealth health = PeerHealth::kHealthy;
    PhiAccrualDetector phi;
    std::uint64_t hb_seq = 0;  // next heartbeat sequence number
    kompics::TimerHandle probe_timer;  // armed while Dead
    std::shared_ptr<transport::StreamConnection> probe_conn;
    std::deque<DeadLetter> dead_letters;
    std::size_t dead_letter_bytes = 0;
    /// Highest incarnation any session hello has announced for this peer;
    /// connections carrying an older one are zombies and get fenced.
    std::uint64_t remote_incarnation = 0;

    explicit PeerState(PhiConfig cfg) : phi(cfg) {}
  };

  using SessionMap =
      std::map<std::pair<Address, Transport>, std::unique_ptr<Session>>;

  void handle_outgoing(MsgPtr msg, std::optional<NotifyId> notify);
  void reflect_local(MsgPtr msg, std::optional<NotifyId> notify);
  void send_udp(const Msg& msg, std::optional<NotifyId> notify);
  Session& session_for(const Address& peer, Transport t);
  void open_session(Session& s);
  /// The one enqueue for application messages, fresh or flushed dead
  /// letters. A message that fits under the cap, and is not notified behind
  /// a waiting one, is queued and drained at once on a connected session. A
  /// notified message that does not fit joins the waiting line, which
  /// drain() admits in order as frames complete. Anything else — a
  /// fire-and-forget message that does not fit, or a notified one larger
  /// than the whole cap — is dropped and counted as queue_overflow, and
  /// the call returns false.
  bool enqueue(Session& s, PendingMsg m);
  void drain(Session& s);
  void on_session_closed(const Address& peer, Transport t);
  /// Cancels the session's timers, counts it closed and erases it. Returns
  /// its connection (possibly null) for the caller to close or abort once
  /// the map no longer holds the session.
  std::shared_ptr<transport::StreamConnection> close_session(
      SessionMap::iterator it);
  /// Answers or parks everything a dying session still holds (in-flight
  /// frame first, then the queue, then the waiting line), skipping internal
  /// frames: a notify gets `status`; with `letters`, a fire-and-forget
  /// message whose serialised form survives is parked there; anything else
  /// is dropped.
  void dispose_queue(Session& s, DeliveryStatus status, PeerState* letters);
  /// Runs `fn` in a fresh simulator event. Connection callbacks use it to
  /// tear down: destroying a connection while one of its own frames is
  /// still on the stack would be use-after-free.
  void defer(SmallFn fn);
  void attach_inbound(std::shared_ptr<transport::StreamConnection> conn,
                      Transport t, bool manage_close = true);
  void remove_inbound(transport::StreamConnection* conn);
  void deliver_frame(wire::BufSlice bytes, Inbound* from);
  void deliver_udp(wire::BufSlice payload);
  void notify_result(NotifyId id, DeliveryStatus status, Transport via,
                     std::size_t bytes);
  void start_listeners();
  void status_tick();
  /// Releases everything the process owns on the simulated host — timers,
  /// sessions, listeners, probes — so a killed node's port bindings free up
  /// for the restarted incarnation. Invoked from Stop/Kill on the control
  /// port; idempotent.
  void teardown();
  /// Queues the incarnation handshake at the *front* of the session's queue
  /// so it is the first frame on the wire for a fresh connection.
  void send_hello(Session& s);
  /// Serialises an internal control message (hello, heartbeat, echo,
  /// keyframe request) and queues it on `s` — at the front for the hello,
  /// at the back otherwise. False when the registry cannot serialise it.
  bool enqueue_internal(Session& s, const Msg& msg, bool front = false);
  void handle_hello(const SessionHelloMsg& hello, Inbound* from);

  // --- Wire efficiency (drain-time encoding) ---
  /// True when drain() may build the next wire frame now; false while the
  /// coalescer is still holding the queue open for frame-mates (arms the
  /// latency-budget timer as a side effect).
  bool should_build(Session& s);
  /// Pops 1..N queued messages (N > 1 only when coalescing) and encodes them
  /// into s.wire: per-message delta + compression, then one frame, flagged
  /// coalesced when it packs more than one message.
  void build_wire_frame(Session& s);
  /// Delta + compression for one message. With a session's encoder,
  /// m.serialized is kept (a reconnect re-encodes it); otherwise (no delta,
  /// or an echo down an accepted connection) it is moved out, preserving the
  /// zero-copy prepend chain.
  wire::BufSlice encode_submsg(DeltaEncoder* delta, PendingMsg& m);
  /// The complete frame for one message: encode_submsg and the length/CRC
  /// header.
  wire::BufSlice frame_single(DeltaEncoder* delta, PendingMsg& m);
  /// Sends DeltaResetMsg(type_id) to the peer behind `from`, asking for a
  /// keyframe; silently dropped when the hello has not yet told us who the
  /// peer is.
  void send_delta_reset(Inbound* from, std::uint32_t type_id);
  /// Honours a keyframe request: resets the delta encoders of every session
  /// to the requesting peer.
  void handle_delta_reset(const DeltaResetMsg& reset);

  // --- Supervision ---
  PeerState& peer_state(const Address& peer);
  void supervision_tick();
  void send_heartbeat(Session& s, PeerState& ps);
  void handle_heartbeat(const HeartbeatMsg& hb, Inbound* from);
  /// Registers liveness evidence for `peer`: feeds the phi detector and
  /// drives Suspected -> Healthy / Dead -> Recovering / Recovering -> Healthy.
  /// `interval_sample` is true only for heartbeat arrivals, which carry
  /// cadence information; other evidence merely refreshes the clock.
  void record_alive(const Address& peer, HealthReason reason,
                    bool interval_sample = false);
  /// Parks a fire-and-forget serialised message for possible replay on
  /// recovery, evicting the oldest letters past the per-peer byte cap.
  void park_dead_letter(PeerState& ps, wire::BufSlice serialized,
                        std::uint32_t type_id, Transport t);
  /// Declares a peer Dead: cancels reconnects, answers queued notifies with
  /// `status`, parks fire-and-forget frames as dead letters, tears down all
  /// of the peer's sessions, and arms the probe timer.
  void declare_dead(const Address& peer, HealthReason reason,
                    DeliveryStatus status);
  void probe_dead_peer(const Address& peer);
  void flush_dead_letters(const Address& peer, PeerState& ps);
  void set_peer_health(const Address& peer, PeerState& ps, PeerHealth next,
                       HealthReason reason);
  void emit_channel_status(const Address& peer, Transport t, PeerHealth old_h,
                           PeerHealth new_h, HealthReason reason, double phi);

  netsim::Host& host_;
  NetworkConfig config_;
  std::shared_ptr<SerializerRegistry> registry_;

  kompics::PortInstance* net_port_ = nullptr;

  /// Stream listeners by transport, held type-erased: each unbinds its
  /// port when released.
  std::map<Transport, std::shared_ptr<void>> listeners_;
  std::shared_ptr<transport::UdpEndpoint> udp_;

  SessionMap sessions_;
  std::vector<std::unique_ptr<Inbound>> inbound_;
  std::map<Address, std::unique_ptr<PeerState>> peers_;

  kompics::TimerHandle status_cancel_;
  kompics::TimerHandle supervision_cancel_;
  bool started_ = false;
  NetworkComponentStats stats_;
};

}  // namespace kmsg::messaging
