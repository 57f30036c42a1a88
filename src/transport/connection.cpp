#include "transport/connection.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "wire/bytebuf.hpp"

namespace kmsg::transport {

StreamConnection::StreamConnection(netsim::Host& host, netsim::HostId peer,
                                   netsim::Port peer_port, bool passive,
                                   netsim::IpProto proto,
                                   std::size_t header_bytes,
                                   std::size_t send_buffer_bytes,
                                   std::size_t recv_buffer_bytes)
    : peer_port_(peer_port),
      passive_(passive),
      reasm_(recv_buffer_bytes),
      host_(host),
      peer_(peer),
      proto_(proto),
      header_bytes_(header_bytes),
      send_capacity_(send_buffer_bytes) {
  if (send_buffer_bytes == 0) {
    throw std::invalid_argument("send buffer capacity must be > 0");
  }
}

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
  return write(wire::BufSlice::borrowed(data));
}

std::size_t StreamConnection::write(wire::BufSlice data) {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  const std::size_t size = data.size();
  const std::size_t n = std::min(size, writable_bytes());
  if (n > 0) {
    if (n < size) data = data.slice(0, n);
    // An owning view is kept as it is; a borrowed one (write(span)) is
    // copied.
    send_q_.emplace_back(send_end_,
                         data.owning() ? std::move(data) : data.to_owned());
    send_end_ += n;
  }
  stats_.bytes_written += n;
  if (n < size) want_writable_ = true;
  if (state_ == ConnState::kEstablished) kick();
  return n;
}

std::size_t StreamConnection::writable_bytes() const {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  return send_capacity_ - unacked_bytes();
}

void StreamConnection::emit(std::shared_ptr<const netsim::DatagramBody> body,
                            std::size_t payload_bytes) {
  netsim::Datagram dg;
  dg.dst = peer_;
  dg.src_port = local_port_;
  dg.dst_port = peer_port_;
  dg.proto = proto_;
  dg.wire_bytes = netsim::wire_size(payload_bytes + header_bytes_);
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

SegmentPayload StreamConnection::payload_at(std::uint64_t seq,
                                           std::size_t len) const {
  if (len == 0 || seq < snd_una_ || seq + len > send_end_) {
    throw std::out_of_range("payload_at outside the unacknowledged stream");
  }
  // The last write starting at or before `seq` holds its first byte.
  auto it = std::upper_bound(
      send_q_.begin(), send_q_.end(), seq,
      [](std::uint64_t s, const auto& w) { return s < w.first; });
  --it;
  auto off = static_cast<std::size_t>(seq - it->first);
  const std::size_t first = it->second.size() - off;
  if (len <= first) return {it->second.slice(off, len)};
  const wire::BufSlice& next = std::next(it)->second;
  if (len - first <= next.size()) {
    return {it->second.slice(off, first), next.slice(0, len - first)};
  }
  wire::ByteBuf gather(len);
  for (std::size_t left = len; left > 0; ++it, off = 0) {
    const std::size_t n = std::min(left, it->second.size() - off);
    gather.write_bytes(it->second.span().subspan(off, n));
    left -= n;
  }
  wire::SlabPool::instance().count_payload_copy(len);
  return std::move(gather).take_slice();
}

std::uint64_t StreamConnection::release_acked(std::uint64_t ack) {
  const std::uint64_t old_una = snd_una_;
  snd_una_ = ack;
  // An ack may also cover a FIN's sequence number, one past the data.
  const std::uint64_t de = std::min(ack, send_end_);
  const std::uint64_t ds = std::min(old_una, send_end_);
  stats_.bytes_acked += de - ds;
  while (!send_q_.empty() &&
         send_q_.front().first + send_q_.front().second.size() <= ack) {
    send_q_.pop_front();
  }
  return ack - old_una;
}

void StreamConnection::notify_writable() {
  if (want_writable_ && unacked_bytes() < send_capacity_) {
    want_writable_ = false;
    if (on_writable_) on_writable_();
  }
}

void StreamConnection::deliver(std::uint64_t seq,
                               const SegmentPayload& payload) {
  // Segments reach the application as their own views, and are parked out
  // of order as views of them: no reassembly copy.
  reasm_.offer(seq, payload, [this](const wire::BufSlice& run) {
    stats_.bytes_delivered += run.size();
    if (on_data_) on_data_(run);
  });
}

void StreamConnection::flip_payload_bit(std::uint64_t seq,
                                        SegmentPayload& payload) {
  wire::ByteBuf copy(payload.size());
  const std::span<std::uint8_t> bytes = copy.write_span(payload.size());
  auto out = bytes.begin();
  payload.for_each([&out](const wire::BufSlice& view) {
    out = std::copy(view.span().begin(), view.span().end(), out);
  });
  bytes[static_cast<std::size_t>(seq) % bytes.size()] ^=
      static_cast<std::uint8_t>(1u << (seq % 8));
  payload = std::move(copy).take_slice();
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
