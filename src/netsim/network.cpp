#include "netsim/network.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "common/logging.hpp"

namespace kmsg::netsim {

sim::Simulator& Host::network_simulator() {
  return net_.simulator_on(shard_);
}

bool Host::bind(IpProto proto, Port port, Handler handler) {
  auto [it, inserted] = bindings_.try_emplace({proto, port}, std::move(handler));
  (void)it;
  return inserted;
}

void Host::unbind(IpProto proto, Port port) { bindings_.erase({proto, port}); }

bool Host::bound(IpProto proto, Port port) const {
  return bindings_.count({proto, port}) > 0;
}

Port Host::bind_ephemeral(IpProto proto, Handler handler) {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const Port p = next_ephemeral_;
    next_ephemeral_ = (next_ephemeral_ == 65535) ? 49152 : next_ephemeral_ + 1;
    if (bind(proto, p, handler)) return p;
  }
  KMSG_ERROR("netsim") << "host " << id_ << ": ephemeral port space exhausted";
  return 0;
}

void Host::send(Datagram dg) {
  if (!up_) {
    ++dropped_while_down_;
    return;
  }
  dg.src = id_;
  net_.route(std::move(dg));
}

void Host::crash() {
  if (!up_) return;
  up_ = false;
  KMSG_DEBUG("netsim") << "host " << id_ << ": crashed (incarnation "
                       << incarnation_ << ")";
  if (fault_listener_) fault_listener_(false, incarnation_);
}

void Host::recover() {
  if (up_) return;
  up_ = true;
  ++incarnation_;
  KMSG_DEBUG("netsim") << "host " << id_ << ": recovered as incarnation "
                       << incarnation_;
  if (fault_listener_) fault_listener_(true, incarnation_);
}

void Host::deliver(const Datagram& dg) {
  if (!up_) {
    // The process is dead: anything already in flight to it is lost. This
    // runs on the host's own shard, so the drop decision is deterministic.
    ++dropped_while_down_;
    return;
  }
  auto it = bindings_.find({dg.proto, dg.dst_port});
  if (it == bindings_.end()) {
    KMSG_TRACE("netsim") << "host " << id_ << ": no binding for port "
                         << dg.dst_port << ", dropping";
    return;
  }
  it->second(dg);
}

Network::Network(sim::Simulator& sim, std::uint64_t seed)
    : sim_(&sim), rng_(seed), shard_state_(1) {}

Network::Network(sim::ShardedSimulator& ssim, std::uint64_t seed)
    : ssim_(&ssim), rng_(seed), shard_state_(ssim.shard_count()) {}

sim::Simulator& Network::simulator_on(unsigned s) {
  return ssim_ ? ssim_->shard(s) : *sim_;
}

Host& Network::add_host(unsigned shard) {
  if (shard >= shard_count()) {
    throw std::out_of_range("Network::add_host: shard " + std::to_string(shard) +
                            " out of range (shard_count=" +
                            std::to_string(shard_count()) + ")");
  }
  const auto id = static_cast<HostId>(hosts_.size());
  hosts_.emplace_back(std::unique_ptr<Host>(new Host(*this, id, shard)));
  return *hosts_.back();
}

Link& Network::add_link(HostId src, HostId dst, LinkConfig config) {
  const unsigned src_shard = shard_of(src);
  const unsigned dst_shard = shard_of(dst);
  // The link lives on the source host's shard: send() is invoked from
  // route(), which executes there, and the serialise/propagate pipeline is
  // timed on that shard's clock.
  sim::Simulator& src_sim = simulator_on(src_shard);
  // The delivery hook re-materialises the arrival on the destination's
  // shard, carrying the link's sender-computed key so same-instant arrivals
  // order identically in every shard layout. The arrival closure (a host
  // pointer and the datagram, 48 bytes) fits SmallFn's inline buffer.
  Host* to = hosts_.at(dst).get();
  Link::ScheduleDeliveryFn hook;
  if (ssim_ != nullptr) {
    hook = [this, src_shard, dst_shard, to](TimePoint at, std::uint64_t key,
                                            Datagram&& dg) {
      ssim_->post(src_shard, dst_shard, at, key,
                  [to, dg = std::move(dg)] { to->deliver(dg); });
    };
  } else {
    hook = [this, to](TimePoint at, std::uint64_t key, Datagram&& dg) {
      sim_->post_at_keyed(at, key,
                          [to, dg = std::move(dg)] { to->deliver(dg); });
    };
  }
  auto link = std::make_unique<Link>(src_sim, config,
                                     sim::delivery_key_base(src, dst),
                                     std::move(hook), rng_.split());
  auto& slot = links_[{src, dst}];
  slot = std::move(link);
  return *slot;
}

void Network::add_duplex_link(HostId a, HostId b, const LinkConfig& config) {
  add_link(a, b, config);
  if (a != b) add_link(b, a, config);
}

Link* Network::link(HostId src, HostId dst) {
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : it->second.get();
}

const Link* Network::link(HostId src, HostId dst) const {
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : it->second.get();
}

void Network::finalize_shards() {
  if (ssim_ == nullptr) return;
  const unsigned k = shard_count();
  std::vector<std::int64_t> floor(static_cast<std::size_t>(k) * k,
                                  std::numeric_limits<std::int64_t>::max());
  for (const auto& [key, l] : links_) {
    const unsigned from = shard_of(key.first);
    const unsigned to = shard_of(key.second);
    if (from == to) continue;
    const std::int64_t f = l->config().min_propagation_delay.as_nanos();
    if (f <= 0) {
      throw std::logic_error(
          "Network::finalize_shards: cross-shard link " +
          std::to_string(key.first) + " -> " + std::to_string(key.second) +
          " (shard " + std::to_string(from) + " -> " + std::to_string(to) +
          ") needs a positive min_propagation_delay");
    }
    auto& slot = floor[static_cast<std::size_t>(from) * k + to];
    slot = std::min(slot, f);
  }
  for (unsigned from = 0; from < k; ++from) {
    for (unsigned to = 0; to < k; ++to) {
      if (from == to) continue;
      const std::int64_t f = floor[static_cast<std::size_t>(from) * k + to];
      if (f != std::numeric_limits<std::int64_t>::max()) {
        ssim_->set_lookahead(from, to, Duration::nanos(f));
      }
    }
  }
}

void Network::partition(const std::vector<std::vector<HostId>>& groups) {
  for (unsigned s = 0; s < shard_count(); ++s) partition_on(s, groups);
}

void Network::heal() {
  for (unsigned s = 0; s < shard_count(); ++s) heal_on(s);
}

void Network::partition_on(unsigned shard,
                           const std::vector<std::vector<HostId>>& groups) {
  auto& view = shard_state_.at(shard).partition_group;
  view.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const HostId h : groups[g]) {
      view[h] = static_cast<int>(g);
    }
  }
}

void Network::heal_on(unsigned shard) {
  shard_state_.at(shard).partition_group.clear();
}

bool Network::partitioned(HostId a, HostId b) const {
  return partitioned_on(shard_of(a), a, b);
}

bool Network::partitioned_on(unsigned shard, HostId a, HostId b) const {
  const auto& view = shard_state_.at(shard).partition_group;
  if (view.empty()) return false;
  const auto ga = view.find(a);
  const auto gb = view.find(b);
  if (ga == view.end() || gb == view.end()) return false;
  return ga->second != gb->second;
}

std::uint64_t Network::routing_drops() const {
  std::uint64_t n = 0;
  for (const auto& s : shard_state_) n += s.routing_drops;
  return n;
}

std::uint64_t Network::partition_drops() const {
  std::uint64_t n = 0;
  for (const auto& s : shard_state_) n += s.partition_drops;
  return n;
}

void Network::for_each_link(
    const std::function<void(HostId, HostId, Link&)>& fn) {
  for (auto& [key, l] : links_) fn(key.first, key.second, *l);
}

void Network::route(Datagram&& dg) {
  // Runs on the sender's shard; all state touched here is owned by it.
  const unsigned shard = shard_of(dg.src);
  ShardState& state = shard_state_[shard];
  if (partitioned_on(shard, dg.src, dg.dst)) {
    ++state.partition_drops;
    KMSG_TRACE("netsim") << "partition drop " << dg.src << " -> " << dg.dst;
    return;
  }
  auto* l = link(dg.src, dg.dst);
  if (l == nullptr) {
    ++state.routing_drops;
    KMSG_DEBUG("netsim") << "no route " << dg.src << " -> " << dg.dst;
    return;
  }
  l->send(std::move(dg));
}

}  // namespace kmsg::netsim
