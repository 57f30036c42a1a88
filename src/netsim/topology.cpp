#include "netsim/topology.hpp"

#include <algorithm>
#include <numeric>

namespace kmsg::netsim {

LinkConfig link_config_for(Setup setup) {
  LinkConfig cfg;
  switch (setup) {
    case Setup::kLocal:
      // Loopback: the paper measured ~150 MB/s memory-to-memory and
      // ~110 MB/s when disk-bound. We model the raw loopback here; the
      // disk bound is applied by the file-transfer source when configured.
      cfg.bandwidth_bytes_per_sec = 150e6;
      cfg.propagation_delay = Duration::micros(25);
      cfg.queue_capacity_bytes = 4 * 1024 * 1024;
      cfg.udp_policer.reset();
      break;
    case Setup::kEuVpc:
      cfg.bandwidth_bytes_per_sec = 120e6;
      cfg.propagation_delay = Duration::micros(1500);  // RTT ~3 ms
      cfg.queue_capacity_bytes = 2 * 1024 * 1024;
      cfg.udp_policer = PolicerConfig{10e6, 512 * 1024};
      break;
    case Setup::kEu2Us:
      cfg.bandwidth_bytes_per_sec = 120e6;
      cfg.propagation_delay = Duration::micros(77500);  // RTT ~155 ms
      cfg.queue_capacity_bytes = 2 * 1024 * 1024;
      cfg.udp_policer = PolicerConfig{10e6, 512 * 1024};
      break;
    case Setup::kEu2Au:
      cfg.bandwidth_bytes_per_sec = 120e6;
      cfg.propagation_delay = Duration::micros(160000);  // RTT ~320 ms
      cfg.queue_capacity_bytes = 2 * 1024 * 1024;
      cfg.udp_policer = PolicerConfig{10e6, 512 * 1024};
      break;
  }
  return cfg;
}

Duration rtt_of(Setup setup) {
  return link_config_for(setup).propagation_delay * 2;
}

TwoHostWorld::TwoHostWorld(sim::Simulator& sim, Setup setup, std::uint64_t seed)
    : net(sim, seed) {
  auto& a = net.add_host();
  auto& b = net.add_host();
  sender = a.id();
  receiver = b.id();
  const LinkConfig cfg = link_config_for(setup);
  if (setup == Setup::kLocal) {
    // "Local" is one physical node; we still use two simulated hosts joined
    // by a loopback-parameter link so the rest of the stack is unchanged.
    net.add_duplex_link(sender, receiver, cfg);
  } else {
    net.add_duplex_link(sender, receiver, cfg);
  }
}

// --- Large-topology generators ----------------------------------------------

namespace {

/// Uniform one-way delay in [lo, hi], inclusive, at nanosecond resolution.
Duration draw_delay(Rng& rng, Duration lo, Duration hi) {
  if (hi <= lo) return lo;
  return Duration::nanos(rng.next_in(lo.as_nanos(), hi.as_nanos()));
}

/// A link config with the delay's lookahead floor pre-set to half the base
/// delay (at least 1 ns), so chaos can still halve delays at run time while
/// the sharded engine keeps a sound, usefully-large lookahead.
LinkConfig delay_config(Duration delay, double bandwidth_bytes_per_sec,
                        std::size_t queue_capacity_bytes) {
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
  cfg.propagation_delay = delay;
  cfg.min_propagation_delay =
      Duration::nanos(std::max<std::int64_t>(1, delay.as_nanos() / 2));
  cfg.queue_capacity_bytes = queue_capacity_bytes;
  cfg.udp_policer.reset();
  return cfg;
}

LinkConfig lan_config(Duration delay) {
  return delay_config(delay, 500e6, 4 * 1024 * 1024);
}

LinkConfig wan_config(Duration delay) {
  return delay_config(delay, 120e6, 2 * 1024 * 1024);
}

void add_duplex(TopologySpec& spec, HostId a, HostId b, LinkConfig cfg) {
  spec.links.push_back(TopoLink{a, b, cfg, std::nullopt});
}

}  // namespace

TopologySpec make_star_of_regions(const StarOfRegionsConfig& cfg,
                                  std::uint64_t seed) {
  Rng rng(seed);
  TopologySpec spec;
  spec.name = "star-of-regions";
  spec.regions = std::max(1u, cfg.regions);
  const unsigned per = std::max(1u, cfg.hosts_per_region);
  spec.region_of.reserve(static_cast<std::size_t>(spec.regions) * per);
  for (unsigned r = 0; r < spec.regions; ++r) {
    for (unsigned i = 0; i < per; ++i) spec.region_of.push_back(r);
  }
  const auto host_at = [per](unsigned region, unsigned i) {
    return static_cast<HostId>(region * per + i);
  };
  // Intra-region LAN cliques; host 0 of each region is its gateway.
  for (unsigned r = 0; r < spec.regions; ++r) {
    for (unsigned i = 0; i < per; ++i) {
      for (unsigned j = i + 1; j < per; ++j) {
        add_duplex(spec, host_at(r, i), host_at(r, j),
                   lan_config(draw_delay(rng, cfg.lan_delay_min,
                                         cfg.lan_delay_max)));
      }
    }
  }
  // Every gateway spokes to the hub: region 0's gateway (host 0).
  const HostId hub = host_at(0, 0);
  for (unsigned r = 1; r < spec.regions; ++r) {
    add_duplex(spec, hub, host_at(r, 0),
               wan_config(draw_delay(rng, cfg.wan_delay_min,
                                     cfg.wan_delay_max)));
  }
  return spec;
}

TopologySpec make_fat_tree(const FatTreeConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  TopologySpec spec;
  spec.name = "fat-tree";
  spec.regions = std::max(1u, cfg.pods);
  const unsigned racks = std::max(1u, cfg.racks_per_pod);
  const unsigned per_rack = std::max(1u, cfg.hosts_per_rack);
  const unsigned pod_size = 1 + racks * per_rack;  // spine + rack hosts
  spec.region_of.reserve(static_cast<std::size_t>(spec.regions) * pod_size);
  for (unsigned p = 0; p < spec.regions; ++p) {
    for (unsigned i = 0; i < pod_size; ++i) spec.region_of.push_back(p);
  }
  const auto spine_of = [pod_size](unsigned pod) {
    return static_cast<HostId>(pod * pod_size);
  };
  const auto host_at = [pod_size, per_rack](unsigned pod, unsigned rack,
                                            unsigned i) {
    return static_cast<HostId>(pod * pod_size + 1 + rack * per_rack + i);
  };
  constexpr Duration kRackDelay = Duration::micros(30);  // intra-rack one-way
  constexpr Duration kPodDelay = Duration::micros(300);  // rack <-> pod spine
  constexpr Duration kCoreDelay = Duration::millis(2);   // pod <-> pod core
  // ±20% jitter on each drawn delay keeps distinct seeds distinct.
  const auto jittered = [&rng](Duration base) {
    return draw_delay(rng, base.scaled(0.8), base.scaled(1.2));
  };
  for (unsigned p = 0; p < spec.regions; ++p) {
    for (unsigned rk = 0; rk < racks; ++rk) {
      // Rack clique; host 0 of a rack is its ToR uplink to the pod spine.
      for (unsigned i = 0; i < per_rack; ++i) {
        for (unsigned j = i + 1; j < per_rack; ++j) {
          add_duplex(spec, host_at(p, rk, i), host_at(p, rk, j),
                     lan_config(jittered(kRackDelay)));
        }
      }
      add_duplex(spec, host_at(p, rk, 0), spine_of(p),
                 lan_config(jittered(kPodDelay)));
    }
  }
  // Pod spines pairwise through the core.
  for (unsigned p = 0; p < spec.regions; ++p) {
    for (unsigned q = p + 1; q < spec.regions; ++q) {
      add_duplex(spec, spine_of(p), spine_of(q),
                 wan_config(jittered(kCoreDelay)));
    }
  }
  return spec;
}

TopologySpec make_wan_mesh(const WanMeshConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  TopologySpec spec;
  spec.name = "wan-mesh";
  spec.regions = std::max(1u, cfg.regions);
  const unsigned per = std::max(1u, cfg.hosts_per_region);
  spec.region_of.reserve(static_cast<std::size_t>(spec.regions) * per);
  for (unsigned r = 0; r < spec.regions; ++r) {
    for (unsigned i = 0; i < per; ++i) spec.region_of.push_back(r);
  }
  const auto host_at = [per](unsigned region, unsigned i) {
    return static_cast<HostId>(region * per + i);
  };
  constexpr Duration kLanDelay = Duration::micros(100);
  const auto jittered_lan = [&](void) {
    return draw_delay(rng, kLanDelay.scaled(0.8), kLanDelay.scaled(1.2));
  };
  for (unsigned r = 0; r < spec.regions; ++r) {
    for (unsigned i = 0; i < per; ++i) {
      for (unsigned j = i + 1; j < per; ++j) {
        add_duplex(spec, host_at(r, i), host_at(r, j),
                   lan_config(jittered_lan()));
      }
    }
  }
  // Gateways (host 0 of each region) form a full WAN mesh.
  for (unsigned r = 0; r < spec.regions; ++r) {
    for (unsigned q = r + 1; q < spec.regions; ++q) {
      const Duration fwd = draw_delay(rng, cfg.wan_delay_min, cfg.wan_delay_max);
      TopoLink l{host_at(r, 0), host_at(q, 0), wan_config(fwd), std::nullopt};
      if (!cfg.symmetric_delays) {
        l.config_ba =
            wan_config(draw_delay(rng, cfg.wan_delay_min, cfg.wan_delay_max));
      }
      spec.links.push_back(l);
    }
  }
  return spec;
}

bool topology_connected(const TopologySpec& spec) {
  const std::size_t n = spec.host_count();
  if (n == 0) return true;
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& l : spec.links) {
    parent[find(l.a)] = find(l.b);
  }
  const std::size_t root = find(0);
  for (std::size_t i = 1; i < n; ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

std::vector<HostId> build_topology(const TopologySpec& spec, Network& net) {
  const unsigned k = net.shard_count();
  std::vector<HostId> ids;
  ids.reserve(spec.host_count());
  for (std::size_t i = 0; i < spec.host_count(); ++i) {
    ids.push_back(net.add_host(spec.region_of[i] % k).id());
  }
  for (const auto& l : spec.links) {
    net.add_link(ids[l.a], ids[l.b], l.config);
    if (l.a != l.b) {
      net.add_link(ids[l.b], ids[l.a], l.config_ba ? *l.config_ba : l.config);
    }
  }
  return ids;
}

Duration brute_force_lookahead(const TopologySpec& spec, unsigned shard_count,
                               unsigned from, unsigned to) {
  Duration best = Duration::max();
  const auto consider = [&](HostId src, HostId dst, const LinkConfig& cfg) {
    if (spec.region_of[src] % shard_count != from) return;
    if (spec.region_of[dst] % shard_count != to) return;
    best = std::min(best, cfg.min_propagation_delay);
  };
  for (const auto& l : spec.links) {
    consider(l.a, l.b, l.config);
    if (l.a != l.b) consider(l.b, l.a, l.config_ba ? *l.config_ba : l.config);
  }
  return best;
}

}  // namespace kmsg::netsim
