// The Msg / Header interfaces (paper listings 2, 3, 5).
//
// Msg is the event type that travels on the Network port; Header carries
// addressing and the per-message transport selection. Both stay interfaces
// so applications can pick implementations that suit their requirements
// without runtime casts of framework types: multi-hop systems implement a
// routing header, reply-to patterns add an origin field, and so on. Messages
// are immutable once triggered (Kompics philosophy) — transformations like
// "advance the route" or "resolve DATA to a concrete protocol" produce new
// message instances.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kompics/event.hpp"
#include "messaging/address.hpp"
#include "messaging/transport.hpp"

namespace kmsg::messaging {

class Header {
 public:
  virtual ~Header() = default;
  virtual const Address& source() const = 0;
  virtual const Address& destination() const = 0;
  virtual Transport protocol() const = 0;
};

class Msg : public kompics::KompicsEvent {
 public:
  virtual const Header& header() const = 0;
  /// Serializer-registry selector for this concrete message type.
  virtual std::uint32_t type_id() const = 0;
  /// Upper-bound estimate of the serialised envelope + body size, letting
  /// the serialiser reserve its buffer up front (one slab acquisition, no
  /// growth copies). The default covers small control messages and bulk
  /// messages whose payload slice the serialiser adopts
  /// (wire::ByteBuf::write_blob); other bulk messages should override with
  /// payload size + slack.
  virtual std::size_t serialized_size_hint() const { return 64; }
};

using MsgPtr = kompics::EventRef<Msg>;

/// Plain point-to-point header.
class BasicHeader final : public Header {
 public:
  BasicHeader() = default;
  BasicHeader(Address src, Address dst, Transport proto)
      : src_(src), dst_(dst), proto_(proto) {}

  const Address& source() const override { return src_; }
  const Address& destination() const override { return dst_; }
  Transport protocol() const override { return proto_; }

  /// Same endpoints, different protocol (used when resolving DATA).
  BasicHeader with_protocol(Transport t) const { return {src_, dst_, t}; }

 private:
  Address src_;
  Address dst_;
  Transport proto_ = Transport::kTcp;
};

/// A source route for multi-hop forwarding (paper listing 5): the visible
/// destination is the next hop while the route is unfinished; the visible
/// source stays the original sender so the final receiver can reply
/// directly.
class Route {
 public:
  Route() = default;
  Route(std::vector<Address> hops, std::size_t next_index = 0)
      : hops_(std::move(hops)), next_(next_index) {}

  bool has_next() const { return next_ < hops_.size(); }
  const Address& next_hop() const { return hops_[next_]; }
  /// A copy of the route advanced past the current hop.
  Route advanced() const { return Route{hops_, next_ + 1}; }
  const std::vector<Address>& hops() const { return hops_; }
  std::size_t next_index() const { return next_; }

 private:
  std::vector<Address> hops_;
  std::size_t next_ = 0;
};

/// Header with an optional multi-hop route overlaying a base header.
class RoutingHeader final : public Header {
 public:
  RoutingHeader(BasicHeader base, Route route)
      : base_(base), route_(std::move(route)) {}

  const Address& source() const override { return base_.source(); }
  /// Next hop while the route is unfinished; final destination afterwards.
  const Address& destination() const override {
    return route_.has_next() ? route_.next_hop() : base_.destination();
  }
  Transport protocol() const override { return base_.protocol(); }

  const BasicHeader& base() const { return base_; }
  const Route& route() const { return route_; }
  RoutingHeader advanced() const { return {base_, route_.advanced()}; }

 private:
  BasicHeader base_;
  Route route_;
};

/// Header for DATA-eligible bulk messages. Records the original protocol
/// request (kData) and the resolved concrete protocol the interceptor
/// assigned; protocol() reports the resolved one so the network component
/// can transparently treat the message like any other.
class DataHeader final : public Header {
 public:
  DataHeader(Address src, Address dst)
      : src_(src), dst_(dst), resolved_(Transport::kData) {}
  DataHeader(Address src, Address dst, Transport resolved)
      : src_(src), dst_(dst), resolved_(resolved) {}

  const Address& source() const override { return src_; }
  const Address& destination() const override { return dst_; }
  Transport protocol() const override { return resolved_; }
  bool resolved() const { return resolved_ != Transport::kData; }
  DataHeader with_protocol(Transport t) const { return {src_, dst_, t}; }

 private:
  Address src_;
  Address dst_;
  Transport resolved_;
};

/// Implemented by messages that opt into the DATA meta-protocol: the
/// interceptor clones them with the concrete transport filled in and paces
/// them by payload size.
class DataMsg {
 public:
  virtual ~DataMsg() = default;
  virtual MsgPtr with_protocol(Transport t) const = 0;
  /// Approximate serialised payload size, used for flow pacing.
  virtual std::size_t payload_size() const = 0;
};

}  // namespace kmsg::messaging
