#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/logging.hpp"

namespace kmsg::transport {

namespace {
constexpr std::uint8_t kSyn = 1;
constexpr std::uint8_t kAck = 2;
constexpr std::uint8_t kFin = 4;
constexpr std::uint8_t kRst = 8;
constexpr std::size_t kMss = netsim::kDefaultMtuPayload;
constexpr std::size_t kInitialCwndSegments = 10;  // RFC 6928
/// ACKs carry the receiver's missing ranges (SACK) and the sender repairs
/// every reported hole, paced per SRTT, instead of NewReno's one per RTT.
constexpr std::size_t kMaxSackHoles = 8;
constexpr int kMaxSackRexmitPerAck = 8;
}  // namespace

struct TcpSegment : netsim::DatagramBody {
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;  ///< absolute offset of first payload byte
  std::uint64_t ack = 0;  ///< cumulative ack: next expected byte
  std::uint32_t window = 0;
  /// SACK blocks: the receiver's missing byte ranges (what it has NOT got),
  /// equivalent information to RFC 2018 blocks but hole-oriented.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack_holes;
  SegmentPayload payload;  ///< views of the sender's written bytes
};

TcpConnection::TcpConnection(netsim::Host& host, netsim::HostId peer,
                             netsim::Port peer_port, TcpConfig config,
                             bool passive)
    : StreamConnection(host, peer, peer_port, passive, kProto,
                       netsim::kIpTcpHeaderBytes, config.send_buffer_bytes,
                       config.recv_buffer_bytes),
      config_(config),
      cwnd_(static_cast<double>(kInitialCwndSegments * kMss)),
      ssthresh_(config.initial_ssthresh_bytes),
      rto_(config.initial_rto) {}

TcpConnection::~TcpConnection() { cancel_timers(); }

std::shared_ptr<TcpConnection> TcpConnection::connect(netsim::Host& host,
                                                      netsim::HostId dst,
                                                      netsim::Port dst_port,
                                                      TcpConfig config) {
  std::shared_ptr<TcpConnection> conn(
      new TcpConnection(host, dst, dst_port, config, /*passive=*/false));
  conn->bind();
  conn->announce();
  return conn;
}

bool TcpConnection::opens(const netsim::Datagram& dg) {
  const auto* seg = dynamic_cast<const TcpSegment*>(dg.body.get());
  return seg && (seg->flags & kSyn) && !(seg->flags & kAck);
}

void TcpConnection::accept(const netsim::Datagram& syn) {
  peer_window_ = static_cast<const TcpSegment&>(*syn.body).window;
  announce();
}

bool TcpConnection::reanswer_open() {
  if (state() != ConnState::kConnecting) return false;
  send_control(kSyn | kAck, 0);
  return true;
}

void TcpConnection::cancel_timers() {
  rto_timer_.cancel();
  syn_timer_.cancel();
}

std::shared_ptr<const netsim::DatagramBody> TcpConnection::shutdown_packet()
    const {
  auto rst = netsim::make_body<TcpSegment>();
  rst->flags = kRst;
  return rst;
}

void TcpConnection::announce() {
  send_control(passive_ ? (kSyn | kAck) : kSyn, 0);
  syn_timer_ = after<TcpConnection>(rto_, [](TcpConnection& c) {
    if (c.state() != ConnState::kConnecting) return;
    if (++c.syn_retries_ > c.config_.max_syn_retries) {
      c.abort();
      return;
    }
    c.rto_ = std::min(c.rto_ * 2, c.config_.max_rto);
    c.announce();
  });
}

std::shared_ptr<TcpSegment> TcpConnection::make_segment(std::uint8_t flags,
                                                        std::uint64_t seq) {
  auto seg = netsim::make_body<TcpSegment>();
  seg->flags = flags;
  seg->seq = seq;
  seg->ack = reasm_.expected();
  seg->window = static_cast<std::uint32_t>(
      std::min<std::size_t>(reasm_.available(), 0xffffffffu));
  return seg;
}

void TcpConnection::send_control(std::uint8_t flags, std::uint64_t seq) {
  auto seg = make_segment(flags, seq);
  if (peer_fin_seen_ && reasm_.expected() >= peer_fin_seq_) {
    seg->ack = peer_fin_seq_ + 1;
  }
  seg->sack_holes = reasm_.missing_ranges(kMaxSackHoles);
  emit(std::move(seg), 0);
}

void TcpConnection::send_ack() { send_control(kAck, next_seq_); }

void TcpConnection::pump() {
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;
  const double wnd = std::min(cwnd_, static_cast<double>(peer_window_));
  while (next_seq_ < send_end()) {
    const auto inflight = static_cast<double>(next_seq_ - snd_una_);
    if (inflight >= wnd) break;
    const auto room = static_cast<std::size_t>(wnd - inflight);
    const auto avail = static_cast<std::size_t>(send_end() - next_seq_);
    const std::size_t len = std::min({kMss, avail, room});
    if (len == 0) break;
    const bool rexmit = next_seq_ < retransmit_high_;
    send_segment(next_seq_, len, rexmit);
    next_seq_ += len;
  }
  maybe_send_fin();
  arm_rto();
}

void TcpConnection::send_segment(std::uint64_t seq, std::size_t len,
                                 bool retransmit) {
  auto seg = make_segment(kAck, seq);
  seg->payload = payload_at(seq, len);
  emit_data(std::move(seg), len, retransmit);
  inflight_meta_.push_back(SegMeta{seq + len, simulator().now(), retransmit});
}

void TcpConnection::maybe_send_fin() {
  if (state() != ConnState::kClosing || fin_sent_) return;
  if (next_seq_ != send_end()) return;  // data still to transmit
  fin_seq_ = send_end();
  fin_sent_ = true;
  next_seq_ = fin_seq_ + 1;  // FIN occupies one sequence number
  send_control(kFin | kAck, fin_seq_);
}

void TcpConnection::arm_rto() {
  rto_timer_.cancel();
  if (snd_una_ >= next_seq_) return;  // nothing outstanding
  rto_timer_ = after<TcpConnection>(rto_, [](TcpConnection& c) { c.on_rto(); });
}

void TcpConnection::on_rto() {
  if (state() == ConnState::kClosed) return;
  if (snd_una_ >= next_seq_) return;
  ++stats_.timeouts;
  ++backoff_;
  if (backoff_ > config_.max_data_retries) {
    // No ACK progress across the whole backoff ladder: the peer is gone.
    abort();
    return;
  }
  on_congestion_event();
  cwnd_ = static_cast<double>(kMss);
  dup_acks_ = 0;
  in_recovery_ = false;
  rto_ = std::min(rto_ * 2, config_.max_rto);
  if (fin_sent_ && snd_una_ >= fin_seq_) {
    // Only the FIN is outstanding: retransmit just it.
    send_control(kFin | kAck, fin_seq_);
    arm_rto();
    return;
  }
  // Go-back-N: rewind the transmit pointer; bytes below the old high-water
  // mark count as retransmissions (Karn's rule excludes them from RTT).
  retransmit_high_ = std::max(retransmit_high_, next_seq_);
  inflight_meta_.clear();
  fin_sent_ = false;
  next_seq_ = snd_una_;
  // Force one segment out regardless of the congestion/receive window: this
  // doubles as the zero-window persist probe (a closed window must not
  // silence the connection or it deadlocks).
  const auto len = std::min<std::size_t>(
      kMss, static_cast<std::size_t>(send_end() - snd_una_));
  if (len > 0) {
    send_segment(snd_una_, len, true);
    next_seq_ = snd_una_ + len;
  }
  pump();
  arm_rto();
}

void TcpConnection::sample_rtt(std::uint64_t acked_to) {
  bool sampled = false;
  Duration sample = Duration::zero();
  while (!inflight_meta_.empty() && inflight_meta_.front().end_seq <= acked_to) {
    const auto& m = inflight_meta_.front();
    if (!m.retransmitted) {
      sample = simulator().now() - m.sent;
      sampled = true;
    }
    inflight_meta_.pop_front();
  }
  if (!sampled) return;
  if (srtt_ == Duration::zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const auto err =
        Duration::nanos(std::llabs(srtt_.as_nanos() - sample.as_nanos()));
    rttvar_ = rttvar_ * 3 / 4 + err / 4;
    srtt_ = srtt_ * 7 / 8 + sample / 8;
  }
  stats_.smoothed_rtt = srtt_;
  const Duration var4 = std::max(rttvar_ * 4, Duration::millis(1));
  rto_ = std::clamp(srtt_ + var4, config_.min_rto, config_.max_rto);
  backoff_ = 0;
}

void TcpConnection::on_ack(std::uint64_t ack, std::uint32_t window) {
  const std::uint32_t old_window = peer_window_;
  peer_window_ = window;
  if (ack > snd_una_) {
    const std::uint64_t acked = release_acked(ack);
    // A late ACK for data sent before an RTO rewind can overtake the
    // transmit pointer; clamp or the inflight computation wraps negative.
    if (next_seq_ < snd_una_) next_seq_ = snd_una_;
    sample_rtt(ack);
    dup_acks_ = 0;
    backoff_ = 0;  // any forward progress resets the give-up ladder
    // Repaired holes below the cumulative ack are done; without this prune
    // a stale entry would freeze window growth indefinitely.
    while (!sack_rexmit_after_.empty() &&
           sack_rexmit_after_.begin()->first < snd_una_) {
      sack_rexmit_after_.erase(sack_rexmit_after_.begin());
    }
    if (in_recovery_) {
      if (ack >= recovery_end_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        const auto len = std::min<std::size_t>(
            kMss, static_cast<std::size_t>(send_end() - snd_una_));
        if (len > 0) send_segment(snd_una_, len, true);
      }
    } else {
      grow_cwnd(acked);
    }
    if (fin_sent_ && ack > fin_seq_) {
      finish_close();
      return;
    }
    notify_writable();
    pump();
  } else if (ack == snd_una_ && next_seq_ > snd_una_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      fast_retransmit();
    } else if (in_recovery_) {
      cwnd_ += static_cast<double>(kMss);
      pump();
    }
  }
  if (window > old_window) {
    pump();  // window update re-opened the pipe
  }
}

void TcpConnection::grow_cwnd(std::uint64_t acked_bytes) {
  // No growth while SACK-reported holes are being repaired (loss recovery),
  // and Appropriate Byte Counting: a hole-filling cumulative ACK may cover
  // megabytes at once but is still one ACK's worth of congestion evidence.
  if (!sack_rexmit_after_.empty()) return;
  acked_bytes = std::min<std::uint64_t>(acked_bytes, 2 * kMss);
  const auto mss = static_cast<double>(kMss);
  if (cwnd_ < ssthresh_) {
    // Slow start (both algorithms).
    cwnd_ += static_cast<double>(std::min<std::uint64_t>(acked_bytes, kMss));
    return;
  }
  if (config_.congestion == TcpCongestion::kNewReno) {
    cwnd_ += mss * mss / cwnd_ * (static_cast<double>(acked_bytes) / mss);
    return;
  }
  // CUBIC (RFC 8312): W(t) = C*(t-K)^3 + Wmax, in MSS units with t in
  // seconds; per-ACK growth toward W(t + RTT).
  constexpr double kC = 0.4;
  constexpr double kBeta = 0.7;
  if (!cubic_epoch_valid_) {
    cubic_epoch_ = simulator().now();
    cubic_epoch_valid_ = true;
    if (cubic_wmax_mss_ <= 0.0) cubic_wmax_mss_ = cwnd_ / mss;
  }
  const double rtt_s = std::max(srtt_.as_seconds(), 1e-3);
  const double k = std::cbrt(cubic_wmax_mss_ * (1.0 - kBeta) / kC);
  const double t = (simulator().now() - cubic_epoch_).as_seconds() + rtt_s;
  const double w_cubic = kC * (t - k) * (t - k) * (t - k) + cubic_wmax_mss_;
  // TCP-friendly region (RFC 8312 §4.2): the window Reno would have reached
  // since the epoch; CUBIC never grows slower than this.
  const double w_est = cubic_wmax_mss_ * kBeta +
                       (3.0 * (1.0 - kBeta) / (1.0 + kBeta)) * (t / rtt_s);
  double w_target = std::max(w_cubic, w_est);
  const double cwnd_mss = cwnd_ / mss;
  // RFC 8312 §4.1: the target is clamped to 1.5x cwnd so the late-epoch
  // convex region cannot burst a whole queue's worth of overshoot at once.
  w_target = std::min(w_target, cwnd_mss * 1.5);
  if (w_target > cwnd_mss) {
    cwnd_ += mss * (w_target - cwnd_mss) / cwnd_mss *
             (static_cast<double>(acked_bytes) / mss);
  }
}

void TcpConnection::on_congestion_event() {
  const double inflight = static_cast<double>(next_seq_ - snd_una_);
  const auto mss = static_cast<double>(kMss);
  if (config_.congestion == TcpCongestion::kCubic) {
    constexpr double kBeta = 0.7;
    cubic_wmax_mss_ = cwnd_ / mss;
    cubic_epoch_valid_ = false;
    ssthresh_ = std::max(cwnd_ * kBeta, 2.0 * mss);
  } else {
    ssthresh_ = std::max(inflight / 2.0, 2.0 * mss);
  }
}

void TcpConnection::handle_sack(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  if (state() == ConnState::kClosed) return;
  // Prune pacing state below the cumulative ack.
  while (!sack_rexmit_after_.empty() &&
         sack_rexmit_after_.begin()->first < snd_una_) {
    sack_rexmit_after_.erase(sack_rexmit_after_.begin());
  }
  // A hole beyond the current loss epoch is evidence of a new loss event:
  // cut the window once per epoch (SACK-based recovery's equivalent of the
  // fast-retransmit cwnd reduction).
  std::uint64_t max_end = 0;
  for (auto [s0, e0] : ranges) max_end = std::max(max_end, std::min(e0, next_seq_));
  if (max_end > loss_epoch_end_) {
    on_congestion_event();
    cwnd_ = std::max(ssthresh_, 2.0 * static_cast<double>(kMss));
    loss_epoch_end_ = next_seq_;
  }
  const TimePoint now = simulator().now();
  const Duration pace = std::max(srtt_, Duration::millis(10));
  int sent = 0;
  for (auto [s0, e0] : ranges) {
    if (sent >= kMaxSackRexmitPerAck) break;
    std::uint64_t s = std::max(s0, snd_una_);
    const std::uint64_t e = std::min(e0, next_seq_);
    if (s >= e) continue;
    auto [it, inserted] = sack_rexmit_after_.try_emplace(s0, TimePoint::zero());
    if (!inserted && now < it->second) continue;  // recently retransmitted
    while (s < e && sent < kMaxSackRexmitPerAck) {
      const auto len = std::min<std::size_t>(kMss, static_cast<std::size_t>(e - s));
      send_segment(s, len, true);
      s += len;
      ++sent;
    }
    it->second = now + pace;
  }
  if (sent > 0) arm_rto();
}

void TcpConnection::fast_retransmit() {
  on_congestion_event();
  cwnd_ = ssthresh_ + 3.0 * static_cast<double>(kMss);
  in_recovery_ = true;
  recovery_end_ = next_seq_;
  const auto len = std::min<std::size_t>(
      kMss, static_cast<std::size_t>(send_end() - snd_una_));
  if (len > 0) send_segment(snd_una_, len, true);
  arm_rto();
}

void TcpConnection::enter_established() {
  syn_timer_.cancel();
  establish();
}

void TcpConnection::on_datagram(const netsim::Datagram& dg) {
  // The arrival event owns `dg` until this handler returns.
  const auto* seg = dynamic_cast<const TcpSegment*>(dg.body.get());
  if (seg == nullptr) return;

  std::shared_ptr<TcpSegment> mutated;
  if (dg.corrupted) {
    // Header-only segments damaged in flight are caught by the transport
    // checksum and discarded (loss recovery covers them). Payload-bearing
    // segments model checksum-escaping bit errors: the header stays intact
    // but a payload bit flips, leaving detection to the wire-framing CRC.
    if (seg->payload.empty()) return;
    mutated = netsim::make_body<TcpSegment>(*seg);
    flip_payload_bit(seg->seq, mutated->payload);
    seg = mutated.get();
  }

  if (seg->flags & kRst) {
    finish_close();
    return;
  }

  if (state() == ConnState::kConnecting) {
    if (!passive_ && (seg->flags & kSyn) && (seg->flags & kAck)) {
      // SYNACK: learn the server connection's dedicated port.
      peer_port_ = dg.src_port;
      peer_window_ = seg->window;
      send_ack();
      enter_established();
      return;
    }
    if (passive_ && (seg->flags & kAck) && !(seg->flags & kSyn)) {
      peer_window_ = seg->window;
      enter_established();
      // Fall through: the completing segment may carry data.
    } else {
      return;  // stray segment during handshake
    }
  } else if (seg->flags & kSyn) {
    // Our handshake ACK was lost and the peer re-announced; re-ack.
    send_ack();
    return;
  }

  handle_established(*seg);
}

void TcpConnection::handle_established(const TcpSegment& seg) {
  if (state() == ConnState::kClosed) return;

  if (seg.flags & kAck) on_ack(seg.ack, seg.window);
  if (state() == ConnState::kClosed) return;  // FIN ack may have closed us
  if (!seg.sack_holes.empty()) handle_sack(seg.sack_holes);

  if (!seg.payload.empty()) {
    deliver(seg.seq, seg.payload);
    // Acknowledge all data (also out-of-order: dup ACKs drive fast rexmit).
    send_ack();
  }

  if (seg.flags & kFin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = seg.seq;
  }
  if (peer_fin_seen_ && reasm_.expected() >= peer_fin_seq_) {
    send_control(kAck, next_seq_);
    finish_close();
  }
}

}  // namespace kmsg::transport
