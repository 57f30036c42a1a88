// LEDBAT (Low Extra Delay Background Transport, RFC 6817) over the simulated
// network.
//
// The paper motivates KompicsMessaging partly with an earlier LEDBAT
// implementation on top of Kompics/Netty/UDP whose application-level timing
// was too inconsistent; here LEDBAT is a first-class transport engine like
// TCP and UDT, sharing their StreamConnection core. It is a window-based
// reliable stream over UDP whose congestion controller targets a fixed amount
// of *extra one-way delay* (25 ms here, to suit the simulated paths; RFC
// 6817 caps the target at 100 ms): the window grows while measured queueing
// delay is below the target and shrinks proportionally when above, so LEDBAT
// flows yield to any loss-based (TCP-like) traffic sharing the bottleneck —
// the "scavenger" property, verified in the tests and the
// background-transport ablation bench.
//
// In the simulator both endpoints share one clock, so one-way delay
// measurements are exact — the place where real deployments need base-delay
// filtering against clock skew (we still keep the rolling base-delay
// minimum, as the base delay genuinely changes when routes are
// reconfigured).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "transport/connection.hpp"

namespace kmsg::transport {

struct LedbatConfig {
  std::size_t send_buffer_bytes = 4 * 1024 * 1024;
  std::size_t recv_buffer_bytes = 4 * 1024 * 1024;
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(60.0);
  Duration initial_rto = Duration::seconds(1.0);
  int max_data_retries = 10;
  int handshake_retries = 8;
  Duration handshake_rto = Duration::millis(250);
};

struct LedbatCcStats {
  double queuing_delay_ms = 0.0;   ///< latest sample
  double base_delay_ms = 0.0;      ///< rolling minimum
  double cwnd_bytes = 0.0;
  std::uint64_t losses = 0;
};

struct LedbatData;
struct LedbatAck;

class LedbatConnection final : public StreamConnection {
 public:
  using Config = LedbatConfig;
  static constexpr netsim::IpProto kProto = netsim::IpProto::kUdp;

  static std::shared_ptr<LedbatConnection> connect(netsim::Host& host,
                                                   netsim::HostId dst,
                                                   netsim::Port dst_port,
                                                   LedbatConfig config = {});
  ~LedbatConnection() override;

  const LedbatCcStats& cc_stats() const { return cc_; }

 private:
  friend class StreamListener<LedbatConnection>;

  LedbatConnection(netsim::Host& host, netsim::HostId peer,
                   netsim::Port peer_port, LedbatConfig config, bool passive);

  // Listener side: a handshake request opens; a repeated one is always
  // answered again.
  static bool opens(const netsim::Datagram& dg);
  void accept(const netsim::Datagram& request);
  bool reanswer_open();

  void on_datagram(const netsim::Datagram& dg) override;
  void kick() override { pump(); }
  void close_when_drained() override { maybe_finish_close(); }
  std::shared_ptr<const netsim::DatagramBody> shutdown_packet() const override;
  void cancel_timers() override;

  void start_handshake();
  void send_handshake(bool response);
  void enter_established();
  void handle_data(const LedbatData& pkt);
  void handle_ack(const LedbatAck& pkt);
  void update_window(Duration delay_sample, std::uint64_t acked_bytes);
  void pump();
  void send_segment(std::uint64_t seq, std::size_t len, bool retransmit);
  void arm_rto();
  void on_rto();
  void maybe_finish_close();

  LedbatConfig config_;
  LedbatCcStats cc_;

  // Sender.
  std::uint64_t retransmit_high_ = 0;
  double cwnd_ = 0.0;
  int dup_acks_ = 0;
  sim::EventHandle rto_timer_;
  Duration rto_;
  int backoff_ = 0;

  // LEDBAT base-delay tracking: rolling minimum in coarse buckets.
  std::deque<Duration> base_buckets_;
  TimePoint bucket_started_ = TimePoint::zero();

  // Handshake.
  sim::EventHandle hs_event_;
  int hs_retries_ = 0;
};

/// Passive opener: accepts LEDBAT connections on a UDP port.
using LedbatListener = StreamListener<LedbatConnection>;

}  // namespace kmsg::transport
