#include "apps/gossip.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace kmsg::apps {

namespace {

struct GossipBody final : netsim::DatagramBody {
  enum class Type : std::uint8_t { kHeartbeat, kRumor };
  Type type = Type::kHeartbeat;
  std::uint32_t rumor = 0;
  std::uint8_t hop = 0;
};

constexpr std::size_t kHeartbeatPayloadBytes = 16;

// Fingerprint event codes (hashed together with their arguments).
constexpr std::uint32_t kFpHeartbeat = 1;
constexpr std::uint32_t kFpRumor = 2;
constexpr std::uint32_t kFpSuspect = 3;
constexpr std::uint32_t kFpDead = 4;
constexpr std::uint32_t kFpRecover = 5;
constexpr std::uint32_t kFpStop = 6;
constexpr std::uint32_t kFpRejoin = 7;
constexpr std::uint32_t kFpLostInjection = 8;

}  // namespace

// --- GossipNode -------------------------------------------------------------

sim::Simulator& GossipNode::sim() {
  return overlay_.net_.simulator_for(id_);
}

netsim::Host& GossipNode::host() { return overlay_.net_.host(id_); }

bool GossipNode::before_deadline(Duration lead) {
  const TimePoint at = sim().now() + lead;
  return at.as_nanos() < overlay_.config_.run_for.as_nanos();
}

PeerHealth GossipNode::peer_health(netsim::HostId peer) const {
  const auto it = views_.find(peer);
  return it == views_.end() ? PeerHealth::kDead : it->second.health;
}

void GossipNode::note(std::uint32_t code, std::uint64_t a, std::uint64_t b) {
  // FNV-1a over the event words plus the instant, so any divergence in what
  // happened *or when* changes the digest.
  const auto mix = [this](std::uint64_t w) {
    fp_ ^= w;
    fp_ *= 1099511628211ULL;
  };
  mix(code);
  mix(a);
  mix(b);
  mix(static_cast<std::uint64_t>(sim().now().as_nanos()));
}

void GossipNode::start() {
  running_ = true;
  host().bind(netsim::IpProto::kUdp, kGossipPort,
              [this](const netsim::Datagram& dg) { on_datagram(dg); });
  views_.clear();
  for (const netsim::HostId p : peers_) {
    views_[p];  // Healthy
    if (before_deadline(overlay_.config_.suspect_timeout)) {
      arm_peer_timeout(p, overlay_.config_.suspect_timeout);
    }
  }
  // Per-node phase keeps 10k nodes from beating in one synchronised burst.
  const Duration phase = Duration::nanos(static_cast<std::int64_t>(
      rng_.next_below(static_cast<std::uint64_t>(
          std::max<std::int64_t>(1, overlay_.config_.heartbeat_period.as_nanos())))));
  if (before_deadline(phase)) {
    heartbeat_ = sim().schedule_after(phase, [this] { on_heartbeat_timer(); });
  }
}

void GossipNode::stop() {
  if (!running_) return;
  running_ = false;
  ++local_.stops;
  note(kFpStop, 0, 0);
  host().unbind(netsim::IpProto::kUdp, kGossipPort);
  heartbeat_.cancel();
  for (auto& [peer, view] : views_) {
    (void)peer;
    view.timeout.cancel();
  }
}

void GossipNode::rejoin() {
  if (running_) return;
  ++local_.rejoins;
  start();
  note(kFpRejoin, 0, 0);
}

void GossipNode::inject_rumor(std::uint32_t rumor) {
  if (!running_) {
    // The injection point was churned away: record the loss so layouts that
    // disagreed about it would disagree in the digest too.
    note(kFpLostInjection, rumor, 0);
    return;
  }
  accept_rumor(rumor, 0);
}

void GossipNode::on_datagram(const netsim::Datagram& dg) {
  if (!running_) return;
  if (dg.corrupted) return;  // UDP checksum discards it
  const auto* body = dynamic_cast<const GossipBody*>(dg.body.get());
  if (body == nullptr) return;
  alive_sign(dg.src);
  switch (body->type) {
    case GossipBody::Type::kHeartbeat:
      ++local_.heartbeats_received;
      note(kFpHeartbeat, dg.src, 0);
      break;
    case GossipBody::Type::kRumor:
      accept_rumor(body->rumor, body->hop);
      break;
  }
}

void GossipNode::on_heartbeat_timer() {
  if (!running_) return;
  auto body = std::make_shared<const GossipBody>();
  for (const netsim::HostId p : peers_) {
    netsim::Datagram dg;
    dg.dst = p;
    dg.src_port = kGossipPort;
    dg.dst_port = kGossipPort;
    dg.proto = netsim::IpProto::kUdp;
    dg.wire_bytes = netsim::kIpUdpHeaderBytes + kHeartbeatPayloadBytes;
    dg.body = body;
    host().send(std::move(dg));
    ++local_.heartbeats_sent;
  }
  if (before_deadline(overlay_.config_.heartbeat_period)) {
    heartbeat_ = sim().schedule_after(overlay_.config_.heartbeat_period,
                                      [this] { on_heartbeat_timer(); });
  }
}

void GossipNode::accept_rumor(std::uint32_t rumor, std::uint8_t hop) {
  if (!seen_.insert(rumor).second) return;
  ++local_.rumor_deliveries;
  note(kFpRumor, rumor, hop);
  if (hop < 255) forward_rumor(rumor, static_cast<std::uint8_t>(hop + 1));
}

void GossipNode::forward_rumor(std::uint32_t rumor, std::uint8_t hop) {
  if (peers_.empty()) return;
  auto body = std::make_shared<GossipBody>();
  body->type = GossipBody::Type::kRumor;
  body->rumor = rumor;
  body->hop = hop;
  const std::shared_ptr<const GossipBody> shared = std::move(body);
  netsim::HostId last = id_;
  for (unsigned f = 0; f < overlay_.config_.fanout; ++f) {
    const netsim::HostId p = peers_[rng_.next_below(peers_.size())];
    if (p == last) continue;  // cheap duplicate damping; draws stay fixed
    last = p;
    netsim::Datagram dg;
    dg.dst = p;
    dg.src_port = kGossipPort;
    dg.dst_port = kGossipPort;
    dg.proto = netsim::IpProto::kUdp;
    dg.wire_bytes = netsim::wire_size(netsim::kIpUdpHeaderBytes +
                                      overlay_.config_.rumor_payload_bytes);
    dg.body = shared;
    host().send(std::move(dg));
    ++local_.rumors_forwarded;
  }
}

void GossipNode::alive_sign(netsim::HostId peer) {
  auto it = views_.find(peer);
  if (it == views_.end()) return;  // not an overlay neighbour
  PeerView& view = it->second;
  if (view.health != PeerHealth::kHealthy) {
    view.health = PeerHealth::kHealthy;
    ++local_.recoveries;
    note(kFpRecover, peer, 0);
  }
  view.timeout.cancel();
  if (before_deadline(overlay_.config_.suspect_timeout)) {
    arm_peer_timeout(peer, overlay_.config_.suspect_timeout);
  }
}

void GossipNode::arm_peer_timeout(netsim::HostId peer, Duration after) {
  views_[peer].timeout =
      sim().schedule_after(after, [this, peer] { on_peer_timeout(peer); });
}

void GossipNode::on_peer_timeout(netsim::HostId peer) {
  if (!running_) return;
  PeerView& view = views_[peer];
  if (view.health == PeerHealth::kHealthy) {
    view.health = PeerHealth::kSuspected;
    ++local_.suspects;
    note(kFpSuspect, peer, 0);
    const Duration rest =
        overlay_.config_.dead_timeout - overlay_.config_.suspect_timeout;
    if (rest > Duration::zero() && before_deadline(rest)) {
      arm_peer_timeout(peer, rest);
    }
  } else if (view.health == PeerHealth::kSuspected) {
    view.health = PeerHealth::kDead;
    ++local_.deaths;
    note(kFpDead, peer, 0);
  }
}

// --- GossipOverlay ----------------------------------------------------------

GossipOverlay::GossipOverlay(netsim::Network& net, GossipConfig config,
                             std::uint64_t seed)
    : net_(net), config_(config), seed_(seed) {}

void GossipOverlay::start() {
  if (started_) return;
  started_ = true;
  const auto n = static_cast<netsim::HostId>(net_.host_count());

  // Overlay neighbours = directed link adjacency (generated topologies are
  // duplex, so this is symmetric there). links_ iterates in (src, dst)
  // order, so the per-node peer lists come out sorted and deterministic.
  std::vector<std::vector<netsim::HostId>> adj(n);
  net_.for_each_link([&adj, n](netsim::HostId src, netsim::HostId dst,
                               netsim::Link&) {
    if (src < n && dst < n && src != dst) adj[src].push_back(dst);
  });

  Rng root(seed_);
  nodes_.reserve(n);
  for (netsim::HostId h = 0; h < n; ++h) {
    auto node =
        std::unique_ptr<GossipNode>(new GossipNode(*this, h, root.next()));
    auto& peers = adj[h];
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    node->peers_ = std::move(peers);
    nodes_.push_back(std::move(node));
  }

  // Arm the control plane, strictly pre-run and in deterministic order:
  // starts first, then injections, then churn — giving each instant's
  // control events the same band-0 keys in every shard layout.
  for (netsim::HostId h = 0; h < n; ++h) {
    GossipNode* node = nodes_[h].get();
    net_.simulator_for(h).schedule_at(TimePoint::zero(),
                                      [node] { node->start(); });
  }

  Rng ctrl = root.split();
  const auto window = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, config_.rumor_window.as_nanos()));
  for (unsigned r = 0; r < config_.rumors; ++r) {
    const auto origin = static_cast<netsim::HostId>(ctrl.next_below(n));
    const TimePoint at = TimePoint::zero() +
        Duration::nanos(static_cast<std::int64_t>(ctrl.next_below(window)));
    GossipNode* node = nodes_[origin].get();
    net_.simulator_for(origin).schedule_at(
        at, [node, r] { node->inject_rumor(r); });
  }

  if (config_.churn_events > 0 && config_.churn_to > config_.churn_from) {
    const auto churn_window =
        static_cast<std::uint64_t>((config_.churn_to - config_.churn_from).as_nanos());
    for (unsigned c = 0; c < config_.churn_events; ++c) {
      const auto victim = static_cast<netsim::HostId>(ctrl.next_below(n));
      const TimePoint down = TimePoint::zero() + config_.churn_from +
          Duration::nanos(static_cast<std::int64_t>(ctrl.next_below(churn_window)));
      GossipNode* node = nodes_[victim].get();
      sim::Simulator& vsim = net_.simulator_for(victim);
      vsim.schedule_at(down, [node] { node->stop(); });
      const TimePoint up = down + config_.churn_down_for;
      if (up.as_nanos() < config_.run_for.as_nanos()) {
        vsim.schedule_at(up, [node] { node->rejoin(); });
      }
    }
  }
}

GossipStats GossipOverlay::stats() const {
  GossipStats total;
  for (const auto& node : nodes_) {
    const GossipStats& s = node->local_;
    total.heartbeats_sent += s.heartbeats_sent;
    total.heartbeats_received += s.heartbeats_received;
    total.rumors_forwarded += s.rumors_forwarded;
    total.rumor_deliveries += s.rumor_deliveries;
    total.suspects += s.suspects;
    total.deaths += s.deaths;
    total.recoveries += s.recoveries;
    total.stops += s.stops;
    total.rejoins += s.rejoins;
  }
  return total;
}

std::uint64_t GossipOverlay::fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& node : nodes_) {
    h ^= node->fp_;
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t GossipOverlay::rumors_fully_spread() const {
  std::size_t complete = 0;
  for (std::uint32_t r = 0; r < config_.rumors; ++r) {
    bool everywhere = true;
    for (const auto& node : nodes_) {
      if (node->running_ && node->seen_.count(r) == 0) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) ++complete;
  }
  return complete;
}

}  // namespace kmsg::apps
