// The stream-connection core shared by the TCP, UDT and LEDBAT engines.
//
// `StreamConnection` is what the wire and messaging layers write to: an
// ordered, reliable byte pipe with backpressure via a finite send buffer —
// the backpressure is load-bearing for the paper's Fig. 8, where control
// messages sharing a TCP connection with bulk data queue behind megabytes of
// buffered stream. It is also the socket layer every engine has in common,
// the part Netty's channel abstraction plays in the paper (§III):
//  - the ephemeral port and `emit`, which addresses one packet body to the
//    peer;
//  - the send side: the unacknowledged stream kept as the written slices
//    themselves, addressed by absolute stream offset, `write`, the
//    cumulative-ack release and the writable callback; a segment carries
//    views of the one or two writes it spans;
//  - the receive side: in-order delivery through a ReassemblyBuffer, each
//    run of bytes handed on as a view of the segment that carried it;
//  - the four user callbacks and the close/abort/finish_close life cycle.
// Each engine derives from it and keeps only what differs between protocols
// — packet formats, handshake, congestion control and loss recovery —
// reached through the virtual hooks below. `StreamListener<Conn>` is the one
// passive opener for all of them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "common/fifo.hpp"
#include "common/time.hpp"
#include "netsim/network.hpp"
#include "transport/reassembly.hpp"
#include "wire/buffer.hpp"

namespace kmsg::transport {

enum class ConnState : std::uint8_t {
  kConnecting,
  kEstablished,
  kClosing,
  kClosed,
};

struct ConnStats {
  std::uint64_t bytes_written = 0;    ///< accepted into the send buffer
  std::uint64_t bytes_sent_wire = 0;  ///< handed to the network (incl. rexmit)
  std::uint64_t bytes_acked = 0;      ///< acknowledged by the peer
  std::uint64_t bytes_delivered = 0;  ///< surrendered to the local receiver
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t timeouts = 0;
  Duration smoothed_rtt = Duration::zero();
};

class StreamConnection : public std::enable_shared_from_this<StreamConnection> {
 public:
  using DataFn = std::function<void(const wire::BufSlice&)>;
  using SpanDataFn = std::function<void(std::span<const std::uint8_t>)>;
  using PlainFn = std::function<void()>;

  virtual ~StreamConnection();
  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;

  /// Appends bytes to the send buffer; returns how many were accepted
  /// (possibly 0 when the buffer is full). Never blocks. The connection
  /// keeps a view of the accepted prefix until the peer acknowledges it, and
  /// segments are sub-slices of it: no copy. The bytes must not change until
  /// then. They do not, since no writer touches bytes a live slice views
  /// (wire/buffer.hpp): BufSlice::try_prepend, for one, writes only bytes
  /// it claimed below its slab's front mark, which no slice has viewed.
  std::size_t write(wire::BufSlice data);
  /// As above for bytes the caller keeps: the accepted prefix is copied into
  /// one pooled slab (a counted payload copy).
  std::size_t write(std::span<const std::uint8_t> data);

  /// Free space currently available in the send buffer.
  std::size_t writable_bytes() const;

  /// Bytes accepted but not yet acknowledged by the peer (send backlog).
  std::size_t unacked_bytes() const {
    return static_cast<std::size_t>(send_end_ - std::min(snd_una_, send_end_));
  }

  ConnState state() const { return state_; }
  const ConnStats& stats() const { return stats_; }
  netsim::Port local_port() const { return local_port_; }

  /// Ordered delivery of received bytes, one run per call, each a view of
  /// the segment that carried it (and so of the sender's written slab). The
  /// callback may retain the view.
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  /// As above for a callback that only reads each run.
  void set_on_data(SpanDataFn fn) {
    on_data_ = [fn = std::move(fn)](const wire::BufSlice& run) {
      fn(run.span());
    };
  }
  /// Invoked when a full send buffer regained space.
  void set_on_writable(PlainFn fn) { on_writable_ = std::move(fn); }
  /// Invoked once on transition to kEstablished.
  void set_on_connected(PlainFn fn) { on_connected_ = std::move(fn); }
  /// Invoked once on transition to kClosed (graceful or reset).
  void set_on_closed(PlainFn fn) { on_closed_ = std::move(fn); }

  /// Initiates graceful close after pending data drains.
  void close();
  /// Immediate teardown; unsent data is discarded.
  void abort();

 protected:
  /// `header_bytes` is the per-packet wire overhead added to each body's
  /// payload size; `passive` marks the listener-side end.
  StreamConnection(netsim::Host& host, netsim::HostId peer,
                   netsim::Port peer_port, bool passive, netsim::IpProto proto,
                   std::size_t header_bytes, std::size_t send_buffer_bytes,
                   std::size_t recv_buffer_bytes);

  // --- Hooks: what each protocol does its own way ---

  /// A packet from the peer host arrived on the connection's port.
  virtual void on_datagram(const netsim::Datagram& dg) = 0;
  /// Data became sendable: written while established, or just established.
  virtual void kick() = 0;
  /// close() entered kClosing: finish closing once the written data is
  /// acknowledged.
  virtual void close_when_drained() = 0;
  /// The packet telling the peer this end is gone (reset or shutdown).
  virtual std::shared_ptr<const netsim::DatagramBody> shutdown_packet()
      const = 0;
  /// Cancels every protocol timer; runs on close and on destruction.
  virtual void cancel_timers() = 0;

  // --- Shared machinery ---

  /// Binds an ephemeral port whose datagrams from the peer host reach
  /// on_datagram while the connection lives. Run once, right after
  /// construction, by connect and by the listener.
  void bind();

  sim::Simulator& simulator() { return host_.network_simulator(); }

  /// Schedules `fn(self)` after `delay`; it does not run once the
  /// connection is gone.
  template <typename Self, typename Fn>
  sim::EventHandle after(Duration delay, Fn fn) {
    return simulator().schedule_after(delay, [weak = weak_from_this(), fn] {
      if (auto c = weak.lock()) fn(static_cast<Self&>(*c));
    });
  }

  /// Sends `body` to the peer; `payload_bytes` plus the protocol header is
  /// its size on the wire.
  void emit(std::shared_ptr<const netsim::DatagramBody> body,
            std::size_t payload_bytes);
  /// Emits a packet carrying `len` stream bytes and counts it as sent.
  void emit_data(std::shared_ptr<const netsim::DatagramBody> body,
                 std::size_t len, bool retransmit);

  /// Stream offset one past the last written byte.
  std::uint64_t send_end() const { return send_end_; }
  /// The `len` > 0 stream bytes at `seq`, within [snd_una_, send_end()), as
  /// views of the written slices: one view, or two for a range straddling
  /// two writes. A range spanning three or more writes is gathered into one
  /// pooled slab (a counted payload copy). Throws std::out_of_range
  /// otherwise.
  SegmentPayload payload_at(std::uint64_t seq, std::size_t len) const;
  /// Advances snd_una_ to the cumulative ack `ack` (> snd_una_), releasing
  /// the fully acknowledged writes; returns the advance.
  std::uint64_t release_acked(std::uint64_t ack);
  /// Fires the writable callback if a write came up short and the send
  /// buffer has room again.
  void notify_writable();

  /// Offers a received segment's payload for in-order delivery to the data
  /// callback; an out-of-order one is parked as views of it.
  void deliver(std::uint64_t seq, const SegmentPayload& payload);
  /// Replaces `payload` by a one-view copy with one bit flipped, chosen by
  /// `seq`: a bit error that escaped the transport checksum, left for the
  /// wire-framing CRC to catch. The sender's bytes stay intact.
  static void flip_payload_bit(std::uint64_t seq, SegmentPayload& payload);

  /// kConnecting -> kEstablished: fires the connected callback, then kick().
  void establish();
  /// -> kClosed: cancels the timers and fires the closed callback.
  void finish_close();

  /// The acceptor answers from a port of its own; the active side learns it
  /// from the handshake reply.
  netsim::Port peer_port_;
  const bool passive_;
  ConnStats stats_;

  // Send side: bytes [snd_una_, send_end()) are unacknowledged.
  std::uint64_t snd_una_ = 0;   ///< oldest unacknowledged byte
  std::uint64_t next_seq_ = 0;  ///< next new byte to transmit

  // Receive side.
  ReassemblyBuffer reasm_;

 private:
  netsim::Host& host_;
  netsim::HostId peer_;
  netsim::Port local_port_ = 0;
  netsim::IpProto proto_;
  std::size_t header_bytes_;
  /// The written slices not yet wholly acknowledged, each with the stream
  /// offset of its first byte; they cover [snd_una_, send_end_).
  Fifo<std::pair<std::uint64_t, wire::BufSlice>> send_q_;
  const std::size_t send_capacity_;
  std::uint64_t send_end_ = 0;
  ConnState state_ = ConnState::kConnecting;
  bool want_writable_ = false;

  DataFn on_data_;
  PlainFn on_writable_;
  PlainFn on_connected_;
  PlainFn on_closed_;
};

/// Passive opener for any stream engine: accepts connections on a port, one
/// per peer (host, port). A repeated opening packet from a peer goes to its
/// existing connection, which answers it again if its protocol allows
/// (`Conn::reanswer_open`); otherwise a fresh connection replaces it.
///
/// `Conn` provides: `Config`, `kProto`, a constructor (host, peer,
/// peer_port, config, passive), `static bool opens(const Datagram&)` and
/// `void accept(const Datagram&)`, which starts the passive handshake.
template <typename Conn>
class StreamListener {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<Conn>)>;

  StreamListener(netsim::Host& host, netsim::Port port,
                 typename Conn::Config config, AcceptFn on_accept)
      : host_(host),
        port_(port),
        config_(config),
        on_accept_(std::move(on_accept)) {
    host_.bind(Conn::kProto, port_,
               [this](const netsim::Datagram& dg) { on_datagram(dg); });
  }
  ~StreamListener() { host_.unbind(Conn::kProto, port_); }
  StreamListener(const StreamListener&) = delete;
  StreamListener& operator=(const StreamListener&) = delete;

  netsim::Port port() const { return port_; }

 private:
  void on_datagram(const netsim::Datagram& dg) {
    if (!Conn::opens(dg)) return;
    const auto key = std::make_pair(dg.src, dg.src_port);
    if (auto it = pending_.find(key); it != pending_.end()) {
      if (auto existing = it->second.lock();
          existing && existing->reanswer_open()) {
        return;
      }
      pending_.erase(it);
    }
    std::shared_ptr<Conn> conn(
        new Conn(host_, dg.src, dg.src_port, config_, /*passive=*/true));
    conn->bind();
    conn->accept(dg);
    pending_[key] = conn;
    if (on_accept_) on_accept_(std::move(conn));
  }

  netsim::Host& host_;
  netsim::Port port_;
  typename Conn::Config config_;
  AcceptFn on_accept_;
  std::map<std::pair<netsim::HostId, netsim::Port>, std::weak_ptr<Conn>>
      pending_;
};

}  // namespace kmsg::transport
