#include "transport/udt.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"

namespace kmsg::transport {

struct UdtHandshake : netsim::DatagramBody {
  bool response = false;
  std::uint64_t avail = 0;  ///< opener/acceptor receive-buffer space
};

struct UdtData : netsim::DatagramBody {
  std::uint64_t seq = 0;
  bool probe_head = false;  ///< first packet of a packet-pair probe
  bool probe_tail = false;  ///< second packet of a packet-pair probe
  wire::BufSlice payload;  ///< a view of the sender's written bytes
};

struct UdtAck : netsim::DatagramBody {
  std::uint64_t ack_to = 0;
  std::uint64_t avail = 0;
  double est_bandwidth = 0.0;  ///< packet-pair estimate, bytes/s
  double recv_rate = 0.0;      ///< delivery rate, bytes/s
};

struct UdtNak : netsim::DatagramBody {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
};

struct UdtShutdown : netsim::DatagramBody {};

namespace {
constexpr std::size_t kUdtHeaderBytes = 16;  // UDT header on top of IP/UDP
constexpr std::size_t kMss = netsim::kDefaultMtuPayload;
/// UDT's fixed rate-control period ("SYN interval").
constexpr Duration kSynInterval = Duration::millis(10);
constexpr double kInitialRateBytesPerSec = 2e6;
/// If no feedback arrives for this long while data is outstanding, the
/// sender assumes everything in flight was lost (EXP event).
constexpr Duration kExpTimeout = Duration::millis(500);
constexpr std::uint64_t kProbeEvery = 16;    // packet-pair probing cadence
constexpr std::size_t kMaxNakRanges = 16;
constexpr double kRateDecreaseFactor = 1.125;  // UDT's 1/9 rate cut
}  // namespace

UdtConnection::UdtConnection(netsim::Host& host, netsim::HostId peer,
                             netsim::Port peer_port, UdtConfig config,
                             bool passive)
    : StreamConnection(host, peer, peer_port, passive, kProto,
                       netsim::kIpUdpHeaderBytes + kUdtHeaderBytes,
                       config.send_buffer_bytes, config.recv_buffer_bytes),
      config_(config),
      inter_pkt_interval_s_(static_cast<double>(kMss) / kInitialRateBytesPerSec),
      ss_window_(16 * kMss) {}

UdtConnection::~UdtConnection() { cancel_timers(); }

std::shared_ptr<UdtConnection> UdtConnection::connect(netsim::Host& host,
                                                      netsim::HostId dst,
                                                      netsim::Port dst_port,
                                                      UdtConfig config) {
  std::shared_ptr<UdtConnection> conn(
      new UdtConnection(host, dst, dst_port, config, /*passive=*/false));
  conn->bind();
  conn->start_handshake();
  return conn;
}

bool UdtConnection::opens(const netsim::Datagram& dg) {
  const auto* hs = dynamic_cast<const UdtHandshake*>(dg.body.get());
  return hs && !hs->response;
}

void UdtConnection::accept(const netsim::Datagram& request) {
  const auto& hs = static_cast<const UdtHandshake&>(*request.body);
  flow_window_bytes_ = std::max<std::uint64_t>(hs.avail, kMss);
  send_handshake(true);
  enter_established();
}

bool UdtConnection::reanswer_open() {
  send_handshake(true);
  return true;
}

void UdtConnection::cancel_timers() {
  pacer_event_.cancel();
  rate_event_.cancel();
  exp_event_.cancel();
  ack_event_.cancel();
  hs_event_.cancel();
}

std::shared_ptr<const netsim::DatagramBody> UdtConnection::shutdown_packet()
    const {
  return netsim::make_body<UdtShutdown>();
}

void UdtConnection::send_handshake(bool response) {
  auto hs = netsim::make_body<UdtHandshake>();
  hs->response = response;
  hs->avail = reasm_.available();
  emit(std::move(hs), 0);
}

void UdtConnection::start_handshake() {
  send_handshake(false);
  hs_event_ = after<UdtConnection>(config_.handshake_rto, [](UdtConnection& c) {
    if (c.state() != ConnState::kConnecting) return;
    if (++c.hs_retries_ > c.config_.handshake_retries) {
      c.abort();
      return;
    }
    c.start_handshake();
  });
}

void UdtConnection::enter_established() {
  hs_event_.cancel();
  last_progress_ = simulator().now();
  recv_rate_mark_ = simulator().now();

  // Recurring SYN-interval jobs: sender rate control and receiver ACKs.
  rate_event_ = after<UdtConnection>(kSynInterval, [](UdtConnection& c) {
    if (c.state() != ConnState::kClosed) c.rate_control_tick_and_rearm();
  });
  ack_event_ = after<UdtConnection>(kSynInterval, [](UdtConnection& c) {
    if (c.state() != ConnState::kClosed) c.ack_timer_fire();
  });
  arm_exp_timer();
  establish();
}

void UdtConnection::schedule_pacer() {
  if (pacer_armed_) return;
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;
  if (loss_list_.empty() && next_seq_ >= send_end()) return;
  pacer_armed_ = true;
  const TimePoint now = simulator().now();
  if (next_send_at_ < now) next_send_at_ = now;
  pacer_event_ = after<UdtConnection>(next_send_at_ - now,
                                      [](UdtConnection& c) { c.pacer_fire(); });
}

void UdtConnection::pacer_fire() {
  pacer_armed_ = false;
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;

  ++pkts_since_probe_;
  const bool probe = (pkts_since_probe_ >= kProbeEvery);
  const std::size_t sent = send_one(probe, false);
  if (sent == 0) return;  // idle; schedule_pacer re-arms on new data/NAK

  double gap_s = inter_pkt_interval_s_;
  if (probe) {
    // Packet pair: emit the follow-up packet back to back, then skip the
    // tail's pacing slot so the average rate is preserved.
    pkts_since_probe_ = 0;
    const std::size_t tail = send_one(false, true);
    if (tail > 0) gap_s *= 2.0;
  }
  next_send_at_ = simulator().now() + Duration::seconds(gap_s);
  schedule_pacer();
}

std::size_t UdtConnection::send_one(bool probe_head, bool probe_tail) {
  // Retransmissions have strict priority (UDT's loss list).
  while (!loss_list_.empty()) {
    auto it = loss_list_.begin();
    std::uint64_t s = std::max(it->first, snd_una_);
    const std::uint64_t e = it->second;
    if (s >= e || e <= snd_una_) {
      loss_list_.erase(it);
      continue;
    }
    const auto len = std::min<std::size_t>(kMss, static_cast<std::size_t>(e - s));
    loss_list_.erase(it);
    if (s + len < e) loss_list_.emplace(s + len, e);
    send_data_packet(s, len, true, probe_head, probe_tail);
    return len;
  }
  std::uint64_t window = flow_window_bytes_;
  if (!slow_start_done_) window = std::min(window, ss_window_);
  const std::uint64_t inflight = next_seq_ - snd_una_;
  if (inflight >= window) return 0;
  if (next_seq_ >= send_end()) {
    maybe_finish_close();
    return 0;
  }
  const auto len = std::min<std::size_t>(
      {kMss, static_cast<std::size_t>(send_end() - next_seq_),
       static_cast<std::size_t>(window - inflight)});
  if (len == 0) return 0;
  send_data_packet(next_seq_, len, false, probe_head, probe_tail);
  next_seq_ += len;
  return len;
}

void UdtConnection::send_data_packet(std::uint64_t seq, std::size_t len,
                                     bool retransmit, bool probe_head,
                                     bool probe_tail) {
  auto pkt = netsim::make_body<UdtData>();
  pkt->seq = seq;
  pkt->probe_head = probe_head;
  pkt->probe_tail = probe_tail;
  pkt->payload = payload_at(seq, len);
  emit_data(std::move(pkt), len, retransmit);
}

void UdtConnection::rate_control_tick() {
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;
  const double ps = static_cast<double>(kMss);
  const double syn_s = kSynInterval.as_seconds();
  double rate = ps / inter_pkt_interval_s_;  // bytes/s

  if (!slow_start_done_) {
    // Slow start: sending is self-clocked by the growing window; the pacer
    // runs at the configured ceiling so the window is the only brake.
    inter_pkt_interval_s_ = ps / config_.max_rate_bytes_per_sec;
    cc_.rate_bytes_per_sec = ps / inter_pkt_interval_s_;
    nak_this_syn_ = false;
    schedule_pacer();
    return;
  }
  if (!nak_this_syn_) {
    if (cc_.est_link_bandwidth <= 0.0) {
      // No capacity estimate yet: probe multiplicatively.
      rate *= 2.0;
    } else {
      const double b_pkts = cc_.est_link_bandwidth / ps;
      const double c_pkts = rate / ps;
      double inc_pkts;
      if (b_pkts <= c_pkts) {
        inc_pkts = 1.0 / ps;
      } else {
        const double diff_bits = (b_pkts - c_pkts) * ps * 8.0;
        inc_pkts = std::max(
            std::pow(10.0, std::ceil(std::log10(diff_bits))) * 0.0000015 / ps,
            1.0 / ps);
      }
      rate += inc_pkts * ps / syn_s;
    }
  }
  nak_this_syn_ = false;
  rate = std::clamp(rate, 1e4, config_.max_rate_bytes_per_sec);
  inter_pkt_interval_s_ = ps / rate;
  cc_.rate_bytes_per_sec = rate;
  schedule_pacer();
}

void UdtConnection::rate_control_tick_and_rearm() {
  rate_control_tick();
  rate_event_ = after<UdtConnection>(kSynInterval, [](UdtConnection& c) {
    if (c.state() != ConnState::kClosed) c.rate_control_tick_and_rearm();
  });
}

void UdtConnection::arm_exp_timer() {
  exp_event_.cancel();
  if (state() == ConnState::kClosed) return;
  exp_event_ = after<UdtConnection>(kExpTimeout,
                                    [](UdtConnection& c) { c.on_exp_timeout(); });
}

void UdtConnection::on_exp_timeout() {
  if (state() == ConnState::kClosed) return;
  const bool stalled = simulator().now() - last_progress_ >= kExpTimeout;
  if (stalled && next_seq_ > snd_una_) {
    // Feedback starved with data in flight: declare everything lost.
    ++cc_.exp_events;
    ++stats_.timeouts;
    if (++consecutive_exp_ > config_.max_exp_events) {
      abort();  // peer is gone
      return;
    }
    loss_list_.clear();
    loss_list_.emplace(snd_una_, next_seq_);
    schedule_pacer();
  }
  arm_exp_timer();
}

void UdtConnection::handle_ack(const UdtAck& pkt) {
  flow_window_bytes_ = std::max<std::uint64_t>(pkt.avail, kMss);
  if (pkt.est_bandwidth > 0.0) cc_.est_link_bandwidth = pkt.est_bandwidth;
  if (pkt.recv_rate > 0.0) peer_recv_rate_ = pkt.recv_rate;
  if (pkt.ack_to > snd_una_) {
    last_progress_ = simulator().now();
    consecutive_exp_ = 0;
    const std::uint64_t acked = release_acked(pkt.ack_to);
    if (!slow_start_done_) {
      ss_window_ += acked;
      if (ss_window_ >= flow_window_bytes_) {
        // Window saturated without loss: leave slow start at the receiver's
        // measured delivery rate (or keep the ceiling if none reported yet).
        slow_start_done_ = true;
        if (peer_recv_rate_ > 0.0) {
          inter_pkt_interval_s_ =
              static_cast<double>(kMss) / std::max(peer_recv_rate_, 1e4);
        }
      }
    }
    // Loss ranges below the cumulative ack are obsolete.
    while (!loss_list_.empty() && loss_list_.begin()->second <= snd_una_) {
      loss_list_.erase(loss_list_.begin());
    }
    if (!loss_list_.empty() && loss_list_.begin()->first < snd_una_) {
      auto node = loss_list_.extract(loss_list_.begin());
      node.key() = snd_una_;
      loss_list_.insert(std::move(node));
    }
    notify_writable();
    maybe_finish_close();
  }
  schedule_pacer();
}

void UdtConnection::handle_nak(const UdtNak& pkt) {
  last_progress_ = simulator().now();
  consecutive_exp_ = 0;
  ++cc_.naks_received;
  nak_this_syn_ = true;
  std::uint64_t max_end = 0;
  for (auto [s, e] : pkt.ranges) {
    s = std::max(s, snd_una_);
    e = std::min(e, next_seq_);
    if (s >= e) continue;
    max_end = std::max(max_end, e);
    auto [it, inserted] = loss_list_.emplace(s, e);
    if (!inserted) it->second = std::max(it->second, e);
  }
  // Rate decrease once per congestion epoch: only if this NAK reports loss
  // beyond the last decrease point.
  if (max_end > last_dec_seq_) {
    if (!slow_start_done_ && peer_recv_rate_ > 0.0) {
      // UDT ends slow start on the first loss by adopting the receiver's
      // measured delivery rate as the sending rate — this collapses the
      // bootstrap overshoot in one step instead of many 1/1.125 cuts.
      slow_start_done_ = true;
      inter_pkt_interval_s_ =
          static_cast<double>(kMss) / std::max(peer_recv_rate_, 1e4);
    }
    inter_pkt_interval_s_ *= kRateDecreaseFactor;
    const double min_interval =
        static_cast<double>(kMss) / config_.max_rate_bytes_per_sec;
    inter_pkt_interval_s_ = std::max(inter_pkt_interval_s_, min_interval);
    cc_.rate_bytes_per_sec = static_cast<double>(kMss) / inter_pkt_interval_s_;
    ++cc_.rate_decreases;
    last_dec_seq_ = next_seq_;
  }
  schedule_pacer();
}

void UdtConnection::estimate_bandwidth(const UdtData& pkt) {
  const TimePoint now = simulator().now();
  if (expect_probe_tail_ && pkt.probe_tail && last_arrival_ > TimePoint::zero()) {
    const double gap_s = (now - last_arrival_).as_seconds();
    if (gap_s > 0.0) {
      const double sample =
          static_cast<double>(pkt.payload.size() + netsim::kIpUdpHeaderBytes +
                              kUdtHeaderBytes) /
          gap_s;
      est_bandwidth_ = (est_bandwidth_ <= 0.0)
                           ? sample
                           : est_bandwidth_ * 0.875 + sample * 0.125;
    }
  }
  expect_probe_tail_ = pkt.probe_head;
  last_arrival_ = now;
}

void UdtConnection::handle_data(const UdtData& pkt) {
  estimate_bandwidth(pkt);
  const std::uint64_t prev_highest = reasm_.highest_seen();
  deliver(pkt.seq, pkt.payload);
  // Immediate NAK on first gap detection (UDT sends NAK as soon as a
  // sequence discontinuity is observed). Register the hole for paced
  // re-NAKs.
  if (pkt.seq > prev_highest) {
    auto nak = netsim::make_body<UdtNak>();
    nak->ranges.emplace_back(prev_highest, pkt.seq);
    emit(std::move(nak), 8);
    const Duration base = kSynInterval * 4;
    nak_backoff_[prev_highest] =
        NakBackoff{simulator().now() + base, base};
  }
}

void UdtConnection::ack_timer_fire() {
  if (state() == ConnState::kClosed) return;
  const TimePoint now = simulator().now();
  const double dt = (now - recv_rate_mark_).as_seconds();
  if (dt > 0.0) {
    const double inst =
        static_cast<double>(stats_.bytes_delivered - recv_bytes_mark_) / dt;
    recv_rate_ = recv_rate_ * 0.875 + inst * 0.125;
  }
  recv_bytes_mark_ = stats_.bytes_delivered;
  recv_rate_mark_ = now;

  auto ack = netsim::make_body<UdtAck>();
  ack->ack_to = reasm_.expected();
  ack->avail = reasm_.available();
  ack->est_bandwidth = est_bandwidth_;
  ack->recv_rate = recv_rate_;
  emit(std::move(ack), 16);

  // Periodic re-NAK of persistent holes.
  if (++nak_tick_ % 4 == 0) send_nak_now();

  ack_event_ = after<UdtConnection>(kSynInterval, [](UdtConnection& c) {
    if (c.state() != ConnState::kClosed) c.ack_timer_fire();
  });
}

void UdtConnection::send_nak_now() {
  // Prune backoff state for holes that have been filled.
  while (!nak_backoff_.empty() &&
         nak_backoff_.begin()->first < reasm_.expected()) {
    nak_backoff_.erase(nak_backoff_.begin());
  }
  auto ranges = reasm_.missing_ranges(kMaxNakRanges);
  if (ranges.empty()) return;

  // Re-NAK each hole with exponential backoff: requesting a range again
  // before its retransmission can possibly have arrived just multiplies
  // duplicate retransmissions (ruinous on high-RTT paths).
  const TimePoint now = simulator().now();
  const Duration base = kSynInterval * 4;
  auto nak = netsim::make_body<UdtNak>();
  for (const auto& range : ranges) {
    auto [it, inserted] =
        nak_backoff_.try_emplace(range.first, NakBackoff{now + base, base});
    if (!inserted) {
      if (now < it->second.next_allowed) continue;
      it->second.interval =
          std::min(it->second.interval * 2, Duration::seconds(2.0));
      it->second.next_allowed = now + it->second.interval;
    }
    nak->ranges.push_back(range);
  }
  if (nak->ranges.empty()) return;
  emit(std::move(nak), 8 * kMaxNakRanges);
}

void UdtConnection::on_datagram(const netsim::Datagram& dg) {
  // The arrival event owns `dg` until this handler returns.
  const netsim::DatagramBody* body = dg.body.get();
  if (dg.corrupted) {
    // Same model as TCP: corrupted control packets are caught by the UDP
    // checksum and dropped; corrupted data packets model checksum-escaping
    // bit errors — flip one payload bit and let the framing CRC catch it.
    const auto* data = dynamic_cast<const UdtData*>(body);
    if (!data || data->payload.empty() || state() == ConnState::kConnecting) {
      return;
    }
    auto mutated = netsim::make_body<UdtData>(*data);
    flip_payload_bit(data->seq, mutated->payload);
    handle_data(*mutated);
    return;
  }

  if (const auto* hs = dynamic_cast<const UdtHandshake*>(body)) {
    if (!passive_ && hs->response && state() == ConnState::kConnecting) {
      peer_port_ = dg.src_port;
      flow_window_bytes_ = std::max<std::uint64_t>(hs->avail, kMss);
      enter_established();
    } else if (passive_ && !hs->response) {
      send_handshake(true);  // our response was lost; re-announce
    }
    return;
  }
  if (state() == ConnState::kConnecting) return;

  if (const auto* data = dynamic_cast<const UdtData*>(body)) {
    handle_data(*data);
  } else if (const auto* ack = dynamic_cast<const UdtAck*>(body)) {
    handle_ack(*ack);
  } else if (const auto* nak = dynamic_cast<const UdtNak*>(body)) {
    handle_nak(*nak);
  } else if (dynamic_cast<const UdtShutdown*>(body) != nullptr) {
    finish_close();
  }
}

void UdtConnection::maybe_finish_close() {
  if (state() != ConnState::kClosing) return;
  if (snd_una_ < send_end() || !loss_list_.empty()) return;
  abort();  // all data acknowledged: send the shutdown and close, as abort does
}

}  // namespace kmsg::transport
