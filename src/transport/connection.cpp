#include "transport/connection.hpp"

#include <algorithm>

namespace kmsg::transport {

StreamConnection::StreamConnection(netsim::Host& host, netsim::HostId peer,
                                   netsim::Port peer_port, bool passive,
                                   netsim::IpProto proto,
                                   std::size_t header_bytes,
                                   std::size_t send_buffer_bytes,
                                   std::size_t recv_buffer_bytes)
    : peer_port_(peer_port),
      passive_(passive),
      send_buf_(send_buffer_bytes),
      reasm_(recv_buffer_bytes),
      host_(host),
      peer_(peer),
      proto_(proto),
      header_bytes_(header_bytes) {}

StreamConnection::~StreamConnection() {
  if (local_port_ != 0) host_.unbind(proto_, local_port_);
}

void StreamConnection::bind() {
  std::weak_ptr<StreamConnection> weak = weak_from_this();
  local_port_ = host_.bind_ephemeral(proto_, [weak](const netsim::Datagram& dg) {
    auto c = weak.lock();
    if (c && dg.src == c->peer_) c->on_datagram(dg);
  });
}

std::size_t StreamConnection::write(std::span<const std::uint8_t> data) {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  const std::size_t n = send_buf_.write(data);
  stats_.bytes_written += n;
  if (n < data.size()) want_writable_ = true;
  if (state_ == ConnState::kEstablished) kick();
  return n;
}

std::size_t StreamConnection::writable_bytes() const {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  return send_buf_.free_space();
}

void StreamConnection::emit(std::shared_ptr<const netsim::DatagramBody> body,
                            std::size_t payload_bytes) {
  netsim::Datagram dg;
  dg.dst = peer_;
  dg.src_port = local_port_;
  dg.dst_port = peer_port_;
  dg.proto = proto_;
  dg.wire_bytes = payload_bytes + header_bytes_;
  dg.body = std::move(body);
  host_.send(std::move(dg));
}

void StreamConnection::emit_data(
    std::shared_ptr<const netsim::DatagramBody> body, std::size_t len,
    bool retransmit) {
  emit(std::move(body), len);
  ++stats_.segments_sent;
  stats_.bytes_sent_wire += len;
  if (retransmit) ++stats_.segments_retransmitted;
}

std::uint64_t StreamConnection::release_acked(std::uint64_t ack) {
  const std::uint64_t old_una = snd_una_;
  snd_una_ = ack;
  // An ack may also cover a FIN's sequence number, one past the data.
  const std::uint64_t de = std::min<std::uint64_t>(ack, send_buf_.end());
  const std::uint64_t ds = std::min<std::uint64_t>(old_una, send_buf_.end());
  stats_.bytes_acked += de - ds;
  send_buf_.release_until(de);
  return ack - old_una;
}

void StreamConnection::notify_writable() {
  if (want_writable_ && send_buf_.free_space() > 0) {
    want_writable_ = false;
    if (on_writable_) on_writable_();
  }
}

void StreamConnection::deliver(std::uint64_t seq,
                               std::span<const std::uint8_t> payload) {
  // In-order segments reach the application as spans of the segment's own
  // payload — no reassembly copy on the common path.
  reasm_.offer_span(seq, payload, [this](std::span<const std::uint8_t> run) {
    stats_.bytes_delivered += run.size();
    if (on_data_) on_data_(run);
  });
}

void StreamConnection::flip_payload_bit(std::uint64_t seq,
                                        std::vector<std::uint8_t>& payload) {
  const std::size_t at = static_cast<std::size_t>(seq) % payload.size();
  payload[at] ^= static_cast<std::uint8_t>(1u << (seq % 8));
}

void StreamConnection::establish() {
  if (state_ != ConnState::kConnecting) return;
  state_ = ConnState::kEstablished;
  if (on_connected_) on_connected_();
  kick();
}

void StreamConnection::close() {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return;
  if (state_ == ConnState::kConnecting) {
    abort();
    return;
  }
  state_ = ConnState::kClosing;
  close_when_drained();
}

void StreamConnection::abort() {
  if (state_ == ConnState::kClosed) return;
  emit(shutdown_packet(), 0);
  finish_close();
}

void StreamConnection::finish_close() {
  if (state_ == ConnState::kClosed) return;
  state_ = ConnState::kClosed;
  cancel_timers();
  // Local copy: the callback may drop external references to us; it must
  // still not destroy the connection synchronously (defer to an event).
  auto cb = on_closed_;
  if (cb) cb();
}

}  // namespace kmsg::transport
