// The simulated internetwork: a set of hosts and the directed links between
// them. Hosts bind datagram handlers to (proto, port) pairs, exactly like
// sockets; transports are built on top of this interface.
//
// A Network runs in one of two modes:
//
//  - Plain: constructed over a single sim::Simulator. All hosts share that
//    event loop — today's sequential behaviour, unchanged.
//  - Sharded: constructed over a sim::ShardedSimulator. Each host is pinned
//    to a shard (add_host(shard)); a host's links, timers, and handler
//    executions all happen on its shard's simulator, and datagrams crossing
//    a shard boundary travel through the engine's per-shard-pair queues with
//    sender-computed delivery keys. finalize_shards() derives the
//    conservative lookahead for every shard pair from the links' declared
//    min_propagation_delay floors.
//
// Every piece of mutable state is owned by exactly one shard: hosts and
// their bindings by the host's shard, each link by its *source* host's shard
// (route() and the transmit pipeline run there), and partition views and
// drop counters are kept per shard. That single-writer discipline is what
// lets the sharded run proceed without locks — and, together with the keyed
// delivery order, what makes it bit-identical to the sequential run.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "netsim/link.hpp"
#include "sim/sharded.hpp"

namespace kmsg::netsim {

class Network;

/// A host's view of the network: bind/unbind handlers and send datagrams.
class Host {
 public:
  using Handler = std::function<void(const Datagram&)>;
  /// Observes process fault-domain transitions on this host: called from
  /// crash() with (false, incarnation-that-died) and from recover() with
  /// (true, fresh incarnation). Runs on the host's shard, synchronously
  /// inside the crash/recover event — the hook the middleware stack uses to
  /// kill / re-create the node's component tree.
  using FaultListener = std::function<void(bool up, std::uint64_t incarnation)>;

  HostId id() const { return id_; }
  /// The shard this host is pinned to (0 in plain mode).
  unsigned shard() const { return shard_; }

  /// The simulator driving this host's shard.
  sim::Simulator& network_simulator();

  /// Binds a handler for datagrams addressed to (proto, port). Returns false
  /// if the port is already bound for that proto.
  bool bind(IpProto proto, Port port, Handler handler);
  void unbind(IpProto proto, Port port);
  bool bound(IpProto proto, Port port) const;

  /// Picks a free ephemeral port for `proto` and binds it.
  Port bind_ephemeral(IpProto proto, Handler handler);

  /// Sends a datagram; src is forced to this host. Dropped (and counted)
  /// while the host is crashed — a dead process cannot transmit, even if a
  /// stale timer closure still tries to.
  void send(Datagram dg);

  // --- Process fault domain (crash-stop / crash-recovery) ---

  /// True while the process on this host is alive (the default).
  bool is_up() const { return up_; }
  /// Monotone process incarnation: starts at 1, bumped by every recover().
  /// The messaging layer carries this in its session handshake to fence
  /// frames from previous incarnations.
  std::uint64_t incarnation() const { return incarnation_; }
  /// Datagrams dropped at this host (inbound deliveries and outbound sends)
  /// while it was down.
  std::uint64_t dropped_while_down() const { return dropped_while_down_; }

  /// Crash-stop: the process dies. In-flight datagrams addressed to the
  /// host are dropped on arrival; sends are dropped at the source. Bindings
  /// survive unless the fault listener tears them down (a restarted process
  /// re-binding the same ports is the common model). No-op if already down.
  void crash();
  /// Crash-recovery: the process comes back with the next incarnation.
  /// No-op if the host is up.
  void recover();
  void set_fault_listener(FaultListener fn) { fault_listener_ = std::move(fn); }

 private:
  friend class Network;
  Host(Network& net, HostId id, unsigned shard)
      : net_(net), id_(id), shard_(shard) {}
  void deliver(const Datagram& dg);

  Network& net_;
  HostId id_;
  unsigned shard_;
  std::map<std::pair<IpProto, Port>, Handler> bindings_;
  Port next_ephemeral_ = 49152;
  bool up_ = true;
  std::uint64_t incarnation_ = 1;
  std::uint64_t dropped_while_down_ = 0;
  FaultListener fault_listener_;
};

class Network {
 public:
  /// Plain single-simulator mode.
  explicit Network(sim::Simulator& sim, std::uint64_t seed = 42);
  /// Sharded mode: hosts are pinned to shards of `ssim`.
  explicit Network(sim::ShardedSimulator& ssim, std::uint64_t seed = 42);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Shard 0's simulator (the whole world's simulator in plain mode).
  sim::Simulator& simulator() { return simulator_on(0); }
  /// The simulator of shard `s`.
  sim::Simulator& simulator_on(unsigned s);
  /// The simulator driving host `h`.
  sim::Simulator& simulator_for(HostId h) { return simulator_on(shard_of(h)); }

  unsigned shard_count() const {
    return ssim_ ? ssim_->shard_count() : 1;
  }
  unsigned shard_of(HostId h) const { return hosts_.at(h)->shard_; }
  /// The sharded engine, or nullptr in plain mode.
  sim::ShardedSimulator* sharded() { return ssim_; }

  /// Adds a host pinned to `shard` (must be 0 in plain mode).
  Host& add_host(unsigned shard = 0);
  Host& host(HostId id) { return *hosts_.at(id); }
  std::size_t host_count() const { return hosts_.size(); }

  /// Adds a directed link src -> dst. Replaces an existing link. In sharded
  /// mode a cross-shard link must declare a positive min_propagation_delay —
  /// enforced by finalize_shards().
  Link& add_link(HostId src, HostId dst, LinkConfig config);
  /// Adds symmetric links in both directions with the same config.
  void add_duplex_link(HostId a, HostId b, const LinkConfig& config);

  Link* link(HostId src, HostId dst);
  const Link* link(HostId src, HostId dst) const;

  /// Sharded mode: derives per-shard-pair lookaheads (minimum
  /// min_propagation_delay over the cross-shard links of each pair) and
  /// installs them in the engine. Throws std::logic_error if any cross-shard
  /// link lacks a positive floor. Call once after the topology is built,
  /// before the first run. No-op in plain mode.
  void finalize_shards();

  /// Routes a datagram: looks up the (src,dst) link and offers it. Datagrams
  /// with no link are counted as routing drops (no implicit connectivity);
  /// datagrams crossing an active partition are counted as partition drops.
  void route(Datagram&& dg);

  std::uint64_t routing_drops() const;
  std::uint64_t partition_drops() const;

  /// Partitions the network into host groups: traffic between hosts in
  /// *different* groups is dropped; hosts not named in any group keep full
  /// connectivity. Replaces any previous partition. Applies to every
  /// shard's view — callable only while no shard is running (setup time or
  /// from a chaos event armed on every shard; see chaos.hpp).
  void partition(const std::vector<std::vector<HostId>>& groups);
  /// Removes the active partition (all routes work again).
  void heal();
  /// Per-shard variants for chaos events executing on one shard's thread.
  void partition_on(unsigned shard, const std::vector<std::vector<HostId>>& groups);
  void heal_on(unsigned shard);
  /// True when an active partition separates a from b, as seen by the
  /// sender's (a's) shard — the view route() consults.
  bool partitioned(HostId a, HostId b) const;

  /// Applies `fn(src, dst, link)` to every link (chaos broadcast knobs).
  void for_each_link(const std::function<void(HostId, HostId, Link&)>& fn);

 private:
  friend class Host;

  /// State owned (written) exclusively by one shard's execution.
  struct ShardState {
    std::map<HostId, int> partition_group;  ///< empty = no partition
    std::uint64_t routing_drops = 0;
    std::uint64_t partition_drops = 0;
  };

  bool partitioned_on(unsigned shard, HostId a, HostId b) const;

  sim::Simulator* sim_ = nullptr;        ///< plain mode
  sim::ShardedSimulator* ssim_ = nullptr;  ///< sharded mode
  Rng rng_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::map<std::pair<HostId, HostId>, std::unique_ptr<Link>> links_;
  std::vector<ShardState> shard_state_;  ///< one per shard
};

}  // namespace kmsg::netsim
