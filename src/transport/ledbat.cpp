#include "transport/ledbat.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace kmsg::transport {

namespace {
constexpr std::size_t kLedbatHeaderBytes = 20;
constexpr std::size_t kMss = netsim::kDefaultMtuPayload;
/// Queueing-delay target (RFC 6817 TARGET). Lower = more deferential.
constexpr Duration kTargetDelay = Duration::millis(25);
/// GAIN: window gain per off-target unit for increases (RFC caps at 1).
constexpr double kGain = 1.0;
/// Gain applied when the queueing delay is above target. RFC 6817 allows a
/// higher gain for decreases than for increases; a strong decrease is what
/// guarantees the scavenger property against aggressive loss-based flows.
constexpr double kDecreaseGain = 10.0;
/// Base-delay history (RFC 6817 BASE_HISTORY): rolling minimum over this
/// many buckets of kBucketLength.
constexpr std::size_t kBaseHistoryBuckets = 10;
constexpr Duration kBucketLength = Duration::seconds(10.0);
}  // namespace

struct LedbatHandshake : netsim::DatagramBody {
  bool response = false;
};

struct LedbatData : netsim::DatagramBody {
  std::uint64_t seq = 0;
  std::int64_t send_ts_ns = 0;  ///< sender clock at emission
  wire::BufSlice payload;  ///< a view of the sender's written bytes
};

struct LedbatAck : netsim::DatagramBody {
  std::uint64_t ack_to = 0;
  std::uint32_t window = 0;        ///< receiver buffer space
  std::int64_t delay_sample_ns = 0;  ///< one-way delay of the acked packet
};

struct LedbatShutdown : netsim::DatagramBody {};

LedbatConnection::LedbatConnection(netsim::Host& host, netsim::HostId peer,
                                   netsim::Port peer_port, LedbatConfig config,
                                   bool passive)
    : StreamConnection(host, peer, peer_port, passive, kProto,
                       netsim::kIpUdpHeaderBytes + kLedbatHeaderBytes,
                       config.send_buffer_bytes, config.recv_buffer_bytes),
      config_(config),
      cwnd_(2.0 * static_cast<double>(kMss)),
      rto_(config.initial_rto) {}

LedbatConnection::~LedbatConnection() { cancel_timers(); }

std::shared_ptr<LedbatConnection> LedbatConnection::connect(
    netsim::Host& host, netsim::HostId dst, netsim::Port dst_port,
    LedbatConfig config) {
  std::shared_ptr<LedbatConnection> conn(
      new LedbatConnection(host, dst, dst_port, config, /*passive=*/false));
  conn->bind();
  conn->start_handshake();
  return conn;
}

bool LedbatConnection::opens(const netsim::Datagram& dg) {
  const auto* hs = dynamic_cast<const LedbatHandshake*>(dg.body.get());
  return hs && !hs->response;
}

void LedbatConnection::accept(const netsim::Datagram&) {
  send_handshake(true);
  enter_established();
}

bool LedbatConnection::reanswer_open() {
  send_handshake(true);
  return true;
}

void LedbatConnection::cancel_timers() {
  rto_timer_.cancel();
  hs_event_.cancel();
}

std::shared_ptr<const netsim::DatagramBody> LedbatConnection::shutdown_packet()
    const {
  return netsim::make_body<LedbatShutdown>();
}

void LedbatConnection::send_handshake(bool response) {
  auto hs = netsim::make_body<LedbatHandshake>();
  hs->response = response;
  emit(std::move(hs), 0);
}

void LedbatConnection::start_handshake() {
  send_handshake(false);
  hs_event_ = after<LedbatConnection>(config_.handshake_rto, [](LedbatConnection& c) {
    if (c.state() != ConnState::kConnecting) return;
    if (++c.hs_retries_ > c.config_.handshake_retries) {
      c.abort();
      return;
    }
    c.start_handshake();
  });
}

void LedbatConnection::enter_established() {
  hs_event_.cancel();
  bucket_started_ = simulator().now();
  establish();
}

void LedbatConnection::pump() {
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;
  while (next_seq_ < send_end()) {
    const auto inflight = static_cast<double>(next_seq_ - snd_una_);
    if (inflight >= cwnd_) break;
    const auto room = static_cast<std::size_t>(cwnd_ - inflight);
    const auto avail = static_cast<std::size_t>(send_end() - next_seq_);
    const std::size_t len = std::min({kMss, avail, room});
    if (len == 0) break;
    send_segment(next_seq_, len, next_seq_ < retransmit_high_);
    next_seq_ += len;
  }
  maybe_finish_close();
  arm_rto();
}

void LedbatConnection::send_segment(std::uint64_t seq, std::size_t len,
                                    bool retransmit) {
  auto pkt = netsim::make_body<LedbatData>();
  pkt->seq = seq;
  pkt->send_ts_ns = simulator().now().as_nanos();
  pkt->payload = payload_at(seq, len);
  emit_data(std::move(pkt), len, retransmit);
}

void LedbatConnection::arm_rto() {
  rto_timer_.cancel();
  if (snd_una_ >= next_seq_) return;
  rto_timer_ = after<LedbatConnection>(rto_, [](LedbatConnection& c) { c.on_rto(); });
}

void LedbatConnection::on_rto() {
  if (state() == ConnState::kClosed || snd_una_ >= next_seq_) return;
  ++stats_.timeouts;
  ++cc_.losses;
  if (++backoff_ > config_.max_data_retries) {
    abort();
    return;
  }
  rto_ = std::min(rto_ * 2, config_.max_rto);
  // Loss: halve (RFC 6817 requires at least the standard multiplicative
  // decrease on loss) and go-back-N.
  cwnd_ = std::max(cwnd_ / 2.0, 2.0 * static_cast<double>(kMss));
  retransmit_high_ = std::max(retransmit_high_, next_seq_);
  next_seq_ = snd_una_;
  const auto len = std::min<std::size_t>(
      kMss, static_cast<std::size_t>(send_end() - snd_una_));
  if (len > 0) {
    send_segment(snd_una_, len, true);
    next_seq_ = snd_una_ + len;
  }
  pump();
  arm_rto();
}

void LedbatConnection::update_window(Duration delay_sample,
                                     std::uint64_t acked_bytes) {
  const TimePoint now = simulator().now();
  // Rolling base-delay minimum in coarse buckets (RFC 6817 BASE_HISTORY).
  if (base_buckets_.empty() || now - bucket_started_ >= kBucketLength) {
    base_buckets_.push_back(delay_sample);
    bucket_started_ = now;
    while (base_buckets_.size() > kBaseHistoryBuckets) {
      base_buckets_.pop_front();
    }
  } else if (delay_sample < base_buckets_.back()) {
    base_buckets_.back() = delay_sample;
  }
  Duration base = base_buckets_.front();
  for (const auto& b : base_buckets_) base = std::min(base, b);

  const double queuing_ms = (delay_sample - base).as_millis();
  const double target_ms = kTargetDelay.as_millis();
  const double off_target = (target_ms - queuing_ms) / target_ms;

  const auto mss = static_cast<double>(kMss);
  const double gain = off_target >= 0.0 ? kGain : kDecreaseGain;
  cwnd_ += gain * off_target * static_cast<double>(acked_bytes) * mss /
           std::max(cwnd_, mss);
  // Clamp: never below 2 MSS, never growing faster than slow start would.
  cwnd_ = std::max(cwnd_, 2.0 * mss);

  cc_.queuing_delay_ms = queuing_ms;
  cc_.base_delay_ms = base.as_millis();
  cc_.cwnd_bytes = cwnd_;
}

void LedbatConnection::handle_ack(const LedbatAck& pkt) {
  if (pkt.ack_to > snd_una_) {
    const std::uint64_t acked = release_acked(pkt.ack_to);
    // A late ack for data sent before an RTO rewind can overtake next_seq_.
    if (next_seq_ < snd_una_) next_seq_ = snd_una_;
    dup_acks_ = 0;
    backoff_ = 0;
    rto_ = std::clamp(rto_, config_.min_rto, config_.max_rto);
    update_window(Duration::nanos(pkt.delay_sample_ns), acked);
    notify_writable();
    pump();
  } else if (pkt.ack_to == snd_una_ && next_seq_ > snd_una_) {
    if (++dup_acks_ == 3) {
      // Fast retransmit + window halving (loss signal).
      ++cc_.losses;
      cwnd_ = std::max(cwnd_ / 2.0, 2.0 * static_cast<double>(kMss));
      const auto len = std::min<std::size_t>(
          kMss, static_cast<std::size_t>(send_end() - snd_una_));
      if (len > 0) send_segment(snd_una_, len, true);
      arm_rto();
    }
  }
  maybe_finish_close();
}

void LedbatConnection::handle_data(const LedbatData& pkt) {
  const Duration one_way =
      simulator().now() - TimePoint::from_nanos(pkt.send_ts_ns);
  deliver(pkt.seq, pkt.payload);
  auto ack = netsim::make_body<LedbatAck>();
  ack->ack_to = reasm_.expected();
  ack->window = static_cast<std::uint32_t>(
      std::min<std::size_t>(reasm_.available(), 0xffffffffu));
  ack->delay_sample_ns = one_way.as_nanos();
  emit(std::move(ack), 12);
}

void LedbatConnection::on_datagram(const netsim::Datagram& dg) {
  // LEDBAT runs over UDP whose checksum catches in-flight bit errors; the
  // loss is repaired by the retransmission machinery like any other drop.
  if (dg.corrupted) return;
  // The arrival event owns `dg` until this handler returns.
  const netsim::DatagramBody* body = dg.body.get();
  if (const auto* hs = dynamic_cast<const LedbatHandshake*>(body)) {
    if (!passive_ && hs->response && state() == ConnState::kConnecting) {
      peer_port_ = dg.src_port;
      enter_established();
    } else if (passive_ && !hs->response) {
      send_handshake(true);
    }
    return;
  }
  if (state() == ConnState::kConnecting) return;
  if (const auto* data = dynamic_cast<const LedbatData*>(body)) {
    handle_data(*data);
  } else if (const auto* ack = dynamic_cast<const LedbatAck*>(body)) {
    handle_ack(*ack);
  } else if (dynamic_cast<const LedbatShutdown*>(body) != nullptr) {
    finish_close();
  }
}

void LedbatConnection::maybe_finish_close() {
  if (state() != ConnState::kClosing || snd_una_ < send_end()) return;
  abort();  // all data acknowledged: send the shutdown and close, as abort does
}

}  // namespace kmsg::transport
