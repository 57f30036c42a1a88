#include "transport/udp.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "wire/bytebuf.hpp"

namespace kmsg::transport {

namespace {
constexpr std::size_t kFragHeaderBytes = 12;  // message id + index + count
}

struct UdpFragment : netsim::DatagramBody {
  std::uint64_t message_id = 0;
  std::uint32_t index = 0;
  std::uint32_t count = 0;
  /// View into the sender's message slab — fragmentation copies nothing.
  wire::BufSlice payload;
};

UdpEndpoint::UdpEndpoint(netsim::Host& host, UdpConfig config)
    : host_(host), config_(config) {}

std::shared_ptr<UdpEndpoint> UdpEndpoint::open(netsim::Host& host,
                                               netsim::Port port,
                                               UdpConfig config) {
  auto ep = std::shared_ptr<UdpEndpoint>(new UdpEndpoint(host, config));
  std::weak_ptr<UdpEndpoint> weak = ep;
  auto handler = [weak](const netsim::Datagram& dg) {
    if (auto e = weak.lock()) e->on_datagram(dg);
  };
  if (port == 0) {
    ep->port_ = host.bind_ephemeral(netsim::IpProto::kUdp, handler);
  } else {
    if (!host.bind(netsim::IpProto::kUdp, port, handler)) return nullptr;
    ep->port_ = port;
  }
  return ep;
}

UdpEndpoint::~UdpEndpoint() { close(); }

void UdpEndpoint::close() {
  if (closed_) return;
  closed_ = true;
  host_.unbind(netsim::IpProto::kUdp, port_);
}

bool UdpEndpoint::send(netsim::HostId dst, netsim::Port dst_port,
                       wire::BufSlice payload) {
  if (closed_) return false;
  // Messages above this size are refused locally (mirrors the 64 KiB IP
  // datagram limit, generously rounded for jumbo-frame environments).
  constexpr std::size_t kMaxMessageBytes = 256 * 1024;
  if (payload.size() > kMaxMessageBytes) {
    ++stats_.oversize_rejected;
    return false;
  }
  // Fragments outlive this call inside datagram bodies, so a borrowed view
  // must be promoted to an owning slice first (no-op when already owning).
  payload = payload.to_owned();
  const std::size_t mtu = netsim::kDefaultMtuPayload;
  const auto count = static_cast<std::uint32_t>(
      payload.empty() ? 1 : (payload.size() + mtu - 1) / mtu);
  const std::uint64_t id = next_message_id_++;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto frag = netsim::make_body<UdpFragment>();
    frag->message_id = id;
    frag->index = i;
    frag->count = count;
    const std::size_t off = static_cast<std::size_t>(i) * mtu;
    const std::size_t len = std::min(mtu, payload.size() - off);
    frag->payload = payload.slice(off, len);
    netsim::Datagram dg;
    dg.dst = dst;
    dg.src_port = port_;
    dg.dst_port = dst_port;
    dg.proto = netsim::IpProto::kUdp;
    dg.wire_bytes =
        netsim::wire_size(len + netsim::kIpUdpHeaderBytes + kFragHeaderBytes);
    dg.body = std::move(frag);
    host_.send(std::move(dg));
    ++stats_.fragments_sent;
  }
  ++stats_.messages_sent;
  return true;
}

void UdpEndpoint::expire_stale(TimePoint now) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.first_seen > config_.reassembly_timeout) {
      ++stats_.reassembly_expired;
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
}

void UdpEndpoint::on_datagram(const netsim::Datagram& dg) {
  auto frag = std::dynamic_pointer_cast<const UdpFragment>(dg.body);
  if (!frag || closed_) return;
  if (dg.corrupted) {
    // The UDP checksum catches in-flight bit errors; the datagram is dropped
    // wholesale and any message it belonged to is lost (UDP is best-effort).
    ++stats_.checksum_dropped;
    return;
  }
  const TimePoint now = host_.network_simulator().now();
  expire_stale(now);

  if (frag->count == 1) {
    ++stats_.messages_received;
    if (on_message_) on_message_(dg.src, dg.src_port, frag->payload);
    return;
  }

  const auto key = std::make_tuple(dg.src, dg.src_port, frag->message_id);
  auto& pm = partial_[key];
  if (pm.fragments.empty()) {
    pm.fragments.resize(frag->count);
    pm.first_seen = now;
  }
  if (frag->index >= pm.fragments.size()) return;  // malformed
  if (!pm.fragments[frag->index].empty()) return;  // duplicate
  pm.fragments[frag->index] = frag->payload;  // shares the sender's slab
  ++pm.received;
  if (pm.received < pm.fragments.size()) return;

  // Concatenate once into a fresh slab (the only copy on the UDP path, and
  // only for messages that actually fragmented).
  std::size_t total = 0;
  for (const auto& f : pm.fragments) total += f.size();
  wire::ByteBuf whole{total};
  for (const auto& f : pm.fragments) whole.write_bytes(f.span());
  partial_.erase(key);
  ++stats_.messages_received;
  if (on_message_) on_message_(dg.src, dg.src_port, std::move(whole).take_slice());
}

}  // namespace kmsg::transport
