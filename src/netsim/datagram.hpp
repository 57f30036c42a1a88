// Datagrams: the unit the simulated network moves between hosts.
//
// The simulator models the IP layer. Transport engines (TCP, UDT, UDP) hand
// the network datagrams whose `body` is a protocol-specific segment object;
// the network only cares about addressing and the on-the-wire byte count.
// Carrying segments as immutable shared objects instead of serialised bytes
// is the standard simulator trick (cf. ns-3 packet tags): it keeps the
// protocol headers structured while the byte accounting stays exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/arena.hpp"
#include "common/small_fn.hpp"

namespace kmsg::netsim {

using HostId = std::uint32_t;
using Port = std::uint16_t;

/// IP-level protocol of a datagram. The EC2-style UDP policer keys on this.
enum class IpProto : std::uint8_t { kTcp, kUdp };

/// Base class for protocol segment payloads.
struct DatagramBody {
  virtual ~DatagramBody() = default;
};

/// Makes a packet body in a recycled block (see ArenaAllocator): every
/// transport engine allocates its bodies here, so a warm engine sends and
/// receives packets without the global allocator. A body whose last
/// reference drops on another shard's thread returns to that thread's cache.
template <typename Body, typename... Args>
std::shared_ptr<Body> make_body(Args&&... args) {
  return std::allocate_shared<Body>(ArenaAllocator<Body>{},
                                    std::forward<Args>(args)...);
}

struct Datagram {
  HostId src = 0;
  HostId dst = 0;
  Port src_port = 0;
  Port dst_port = 0;
  IpProto proto = IpProto::kUdp;
  /// Total simulated on-the-wire size (headers + payload), in bytes. 32
  /// bits keep a Datagram at 40 bytes, so a closure carrying one and a
  /// pointer fits SmallFn's inline buffer.
  std::uint32_t wire_bytes = 0;
  /// Set by a faulty link: the datagram suffered bit errors in flight. The
  /// receiving transport decides the consequence — UDP-style checksums drop
  /// the datagram, stream transports surface flipped payload bytes so the
  /// wire-framing checksum has something real to catch.
  bool corrupted = false;
  std::shared_ptr<const DatagramBody> body;
};
// With a pointer beside it, a Datagram fills SmallFn's inline buffer: the
// link's serialisation and arrival closures stay out of the block pool.
static_assert(sizeof(Datagram) + sizeof(void*) <= kSmallFnInline);

/// `bytes` as a Datagram::wire_bytes value; throws std::length_error when it
/// does not fit 32 bits.
inline std::uint32_t wire_size(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("datagram wire size exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(bytes);
}

/// IPv4+transport header overhead assumed for wire-size accounting.
inline constexpr std::size_t kIpUdpHeaderBytes = 28;
inline constexpr std::size_t kIpTcpHeaderBytes = 40;

/// Path MTU payload available to transports. EC2 instances within modern
/// placement use jumbo frames; 8928 keeps segment counts low while staying
/// below the 9001-byte EC2 jumbo MTU.
inline constexpr std::size_t kDefaultMtuPayload = 8928;

}  // namespace kmsg::netsim
