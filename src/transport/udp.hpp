// Plain UDP messaging over the simulated network.
//
// A UdpEndpoint binds one port and exchanges messages with any peer.
// Messages larger than the MTU are fragmented IP-style: if any fragment is
// lost the whole message is lost (at-most-once), and message ordering is not
// preserved end-to-end. This is the middleware's Transport::UDP carrier.
//
// Zero-copy: fragments carry ref-counted BufSlice views of the message's
// backing slab (fragmentation slices, it does not copy), and a
// single-fragment message is delivered to the receiver as the sender's
// slice itself — the simulated wire moves no payload bytes. Multi-fragment
// reassembly concatenates once into a fresh slab.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "netsim/network.hpp"
#include "transport/connection.hpp"
#include "wire/buffer.hpp"

namespace kmsg::transport {

struct UdpConfig {
  /// Partially reassembled messages older than this are discarded.
  Duration reassembly_timeout = Duration::seconds(5.0);
};

struct UdpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t reassembly_expired = 0;
  std::uint64_t oversize_rejected = 0;
  std::uint64_t checksum_dropped = 0;  ///< corrupted datagrams caught on receive
};

class UdpEndpoint final : public std::enable_shared_from_this<UdpEndpoint> {
 public:
  /// Delivery callback: (source host, source port, payload). The slice may
  /// be retained; it pins its backing slab.
  using MessageFn =
      std::function<void(netsim::HostId, netsim::Port, wire::BufSlice)>;

  /// Binds `port` on `host` (0 selects an ephemeral port).
  static std::shared_ptr<UdpEndpoint> open(netsim::Host& host, netsim::Port port,
                                           UdpConfig config = {});

  ~UdpEndpoint();
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  netsim::Port port() const { return port_; }
  const UdpStats& stats() const { return stats_; }
  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }

  /// Sends one message; returns false when rejected (oversize / closed).
  /// Borrowed slices are promoted to owned (one copy) since fragments
  /// outlive the call.
  bool send(netsim::HostId dst, netsim::Port dst_port, wire::BufSlice payload);

  void close();

 private:
  UdpEndpoint(netsim::Host& host, UdpConfig config);
  void on_datagram(const netsim::Datagram& dg);
  void expire_stale(TimePoint now);

  netsim::Host& host_;
  UdpConfig config_;
  netsim::Port port_ = 0;
  bool closed_ = false;
  UdpStats stats_;
  std::uint64_t next_message_id_ = 1;

  struct PartialMessage {
    std::vector<wire::BufSlice> fragments;
    std::size_t received = 0;
    TimePoint first_seen;
  };
  // Keyed by (src host, src port, message id).
  std::map<std::tuple<netsim::HostId, netsim::Port, std::uint64_t>, PartialMessage>
      partial_;

  MessageFn on_message_;
};

}  // namespace kmsg::transport
