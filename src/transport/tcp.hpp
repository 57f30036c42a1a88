// TCP over the simulated network.
//
// A NewReno-style engine: three-way handshake, cumulative ACKs, sliding
// window bounded by min(cwnd, peer receive window), slow start / congestion
// avoidance, fast retransmit on three duplicate ACKs, SACK-driven repair of
// reported holes, RTO with exponential backoff and Karn-compliant RTT
// sampling, graceful FIN close. The socket plumbing (send and receive
// buffers, callbacks, close/abort) is the shared StreamConnection core.
//
// The default receive buffer (advertised window cap) of 512 KiB reproduces
// the effective windows the paper's JVM/Netty stack ran with on Ubuntu 14.04:
// throughput becomes window/RTT-limited on high-BDP paths, which is the
// paper's central observation for TCP (Fig. 9's sharp drop-off).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "transport/connection.hpp"

namespace kmsg::transport {

/// Congestion-control algorithm family. NewReno is the default (and what
/// the evaluation models); CUBIC (RFC 8312) is provided for the
/// congestion-control ablation — it was already Linux's default in the
/// paper's timeframe and recovers high-BDP throughput faster.
enum class TcpCongestion : std::uint8_t { kNewReno, kCubic };

struct TcpSegment;

struct TcpConfig {
  TcpCongestion congestion = TcpCongestion::kNewReno;
  std::size_t send_buffer_bytes = 4 * 1024 * 1024;
  std::size_t recv_buffer_bytes = 512 * 1024;
  /// Initial slow-start threshold; effectively unbounded by default. Tests
  /// and benches set it near the path BDP to skip the first overshoot.
  double initial_ssthresh_bytes = 1e18;
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(60.0);
  Duration initial_rto = Duration::seconds(1.0);
  int max_syn_retries = 6;
  /// Consecutive data RTOs without any ACK progress before the connection is
  /// reset (the tcp_retries2 analogue; keeps dead peers from retransmitting
  /// forever).
  int max_data_retries = 10;
};

class TcpConnection final : public StreamConnection {
 public:
  using Config = TcpConfig;
  static constexpr netsim::IpProto kProto = netsim::IpProto::kTcp;

  /// Actively opens a connection to (dst, dst_port). The returned connection
  /// is in kConnecting state; set_on_connected fires on establishment.
  static std::shared_ptr<TcpConnection> connect(netsim::Host& host,
                                                netsim::HostId dst,
                                                netsim::Port dst_port,
                                                TcpConfig config = {});
  ~TcpConnection() override;

  // Introspection for tests and benches.
  double cwnd_bytes() const { return cwnd_; }
  double ssthresh_bytes() const { return ssthresh_; }
  std::size_t inflight_bytes() const {
    return static_cast<std::size_t>(next_seq_ - snd_una_);
  }

 private:
  friend class StreamListener<TcpConnection>;

  TcpConnection(netsim::Host& host, netsim::HostId peer, netsim::Port peer_port,
                TcpConfig config, bool passive);

  // Listener side: a SYN opens; a repeated SYN is answered again only while
  // the half-open connection is still connecting.
  static bool opens(const netsim::Datagram& dg);
  void accept(const netsim::Datagram& syn);
  bool reanswer_open();

  void on_datagram(const netsim::Datagram& dg) override;
  void kick() override { pump(); }
  void close_when_drained() override { pump(); }  // sends the FIN once drained
  std::shared_ptr<const netsim::DatagramBody> shutdown_packet() const override;
  void cancel_timers() override;

  /// Sends SYN (active) or SYNACK (passive), resent with a doubling RTO
  /// until established.
  void announce();
  void enter_established();
  void handle_established(const TcpSegment& seg);
  void on_ack(std::uint64_t ack, std::uint32_t window);
  void pump();
  std::shared_ptr<TcpSegment> make_segment(std::uint8_t flags, std::uint64_t seq);
  void send_segment(std::uint64_t seq, std::size_t len, bool retransmit);
  void send_control(std::uint8_t flags, std::uint64_t seq);
  void send_ack();
  void arm_rto();
  void on_rto();
  void fast_retransmit();
  void handle_sack(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges);
  void sample_rtt(std::uint64_t acked_to);
  void grow_cwnd(std::uint64_t acked_bytes);
  void on_congestion_event();
  void maybe_send_fin();

  TcpConfig config_;

  // Send side.
  double cwnd_ = 0.0;
  double ssthresh_ = 1e18;
  std::uint32_t peer_window_ = 0;
  int dup_acks_ = 0;
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_end_ = 0;
  std::uint64_t retransmit_high_ = 0;  // bytes below this are retransmissions
  /// SACK-assisted recovery: per-hole retransmission pacing (a hole is
  /// retransmitted at most once per SRTT so duplicates don't burst).
  std::map<std::uint64_t, TimePoint> sack_rexmit_after_;
  /// Loss-epoch marker for SACK-driven congestion response: holes at or
  /// beyond this offset indicate a *new* loss event (one cwnd cut per
  /// window of data, as in standard SACK recovery).
  std::uint64_t loss_epoch_end_ = 0;

  // In-flight timestamps for RTT sampling (Karn: skip retransmitted).
  struct SegMeta {
    std::uint64_t end_seq;
    TimePoint sent;
    bool retransmitted;
  };
  Fifo<SegMeta> inflight_meta_;

  // CUBIC state (RFC 8312): window at the last congestion event and the
  // start of the current growth epoch.
  double cubic_wmax_mss_ = 0.0;
  TimePoint cubic_epoch_ = TimePoint::zero();
  bool cubic_epoch_valid_ = false;

  // Retransmission timer.
  sim::EventHandle rto_timer_;
  Duration rto_;
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  int backoff_ = 0;

  // Handshake.
  sim::EventHandle syn_timer_;
  int syn_retries_ = 0;

  // Receive side.
  bool peer_fin_seen_ = false;
  std::uint64_t peer_fin_seq_ = 0;
};

/// Passive opener: accepts TCP connections on a port.
using TcpListener = StreamListener<TcpConnection>;

}  // namespace kmsg::transport
