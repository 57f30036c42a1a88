// The four experimental setups of the paper (Fig. 7): pairs of EC2-class
// hosts at increasing distance. Each setup is expressed as a duplex link
// configuration; the measured "TCP Pings Only" RTTs in Fig. 8 anchor the
// propagation delays (0 / ~3 / ~155 / ~320 ms).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netsim/network.hpp"

namespace kmsg::netsim {

enum class Setup {
  kLocal,   ///< same node, loopback between two SSDs (RTT ~0)
  kEuVpc,   ///< same VPC in eu-west (RTT ~3 ms)
  kEu2Us,   ///< Ireland <-> N. California (RTT ~155 ms)
  kEu2Au,   ///< Ireland <-> Sydney (RTT ~320 ms)
};

constexpr const char* to_string(Setup s) {
  switch (s) {
    case Setup::kLocal: return "Local";
    case Setup::kEuVpc: return "EU-VPC";
    case Setup::kEu2Us: return "EU2US";
    case Setup::kEu2Au: return "EU2AU";
  }
  return "?";
}

constexpr Setup kAllSetups[] = {Setup::kLocal, Setup::kEuVpc, Setup::kEu2Us,
                                Setup::kEu2Au};

/// Link parameters for a setup. Bandwidths approximate c3.2xlarge network
/// performance ("High", ~1 Gbit/s+ sustained; loopback is memory-bound at
/// ~150 MB/s per the paper's local measurement). All remote setups carry the
/// EC2 UDP policer at 10 MB/s, which the paper identifies as the cause of
/// UDT's flat ~10 MB/s profile across real networks.
LinkConfig link_config_for(Setup setup);

/// Round-trip propagation time of a setup (2x one-way delay).
Duration rtt_of(Setup setup);

/// Builds a two-host network for the given setup; host 0 is the sender side.
/// The returned network references `sim` and must not outlive it.
struct TwoHostWorld {
  Network net;
  HostId sender;
  HostId receiver;
  TwoHostWorld(sim::Simulator& sim, Setup setup, std::uint64_t seed);
};

// --- Large-topology generators ----------------------------------------------
//
// Seeded generators for the multi-region topologies the sharded engine and
// the gossip overlay run on. A generator emits a TopologySpec — hosts tagged
// with a region, plus duplex links with full LinkConfigs — which
// build_topology() materialises into any Network, plain or sharded (hosts
// are pinned region -> shard round-robin, so hosts of one region always
// share a shard and only inter-region links cross shard boundaries).
//
// Every inter-region link carries a positive min_propagation_delay floor
// (half its base delay), from which the sharded engine derives its
// conservative lookahead. brute_force_lookahead() recomputes that lookahead
// from the spec alone, as an independent check on the Network derivation.

/// A duplex host pair in a generated topology. `config` parameterises the
/// a -> b direction; the reverse uses `config_ba` when set, else `config`.
struct TopoLink {
  HostId a = 0;
  HostId b = 0;
  LinkConfig config;
  std::optional<LinkConfig> config_ba;
};

struct TopologySpec {
  std::string name;
  unsigned regions = 1;
  std::vector<unsigned> region_of;  ///< region of each host; index = HostId
  std::vector<TopoLink> links;

  std::size_t host_count() const { return region_of.size(); }
};

struct StarOfRegionsConfig {
  unsigned regions = 4;
  unsigned hosts_per_region = 8;
  /// One-way delay range for intra-region (LAN) links.
  Duration lan_delay_min = Duration::micros(20);
  Duration lan_delay_max = Duration::micros(200);
  /// One-way delay range for region <-> hub (WAN) links.
  Duration wan_delay_min = Duration::millis(5);
  Duration wan_delay_max = Duration::millis(80);
};

/// Star of regions: each region is a LAN clique around a region gateway, and
/// every gateway connects to a hub host in region 0 over a WAN link. This is
/// the paper's "many edge sites, one coordinator" shape.
TopologySpec make_star_of_regions(const StarOfRegionsConfig& cfg,
                                  std::uint64_t seed);

struct FatTreeConfig {
  unsigned pods = 4;
  unsigned racks_per_pod = 2;
  unsigned hosts_per_rack = 4;
};

/// Folded-Clos-flavoured datacentre: hosts in racks (cliques), racks joined
/// through a per-pod spine host, pods joined pairwise through core links
/// (one-way delays of 30 us, 300 us and 2 ms, each jittered ±20%).
/// Region = pod.
TopologySpec make_fat_tree(const FatTreeConfig& cfg, std::uint64_t seed);

struct WanMeshConfig {
  unsigned regions = 5;
  unsigned hosts_per_region = 6;
  Duration wan_delay_min = Duration::millis(10);
  Duration wan_delay_max = Duration::millis(150);
  /// true: both directions of a WAN link share one delay draw; false: each
  /// direction draws independently (asymmetric routes).
  bool symmetric_delays = true;
};

/// WAN mesh: region clusters whose gateways form a full mesh of WAN links
/// with per-pair random delays — the paper's Fig. 7 geography, generalised.
TopologySpec make_wan_mesh(const WanMeshConfig& cfg, std::uint64_t seed);

/// True when the spec's links (treated as duplex) connect every host.
bool topology_connected(const TopologySpec& spec);

/// Adds the spec's hosts and links to `net`. Hosts are pinned to shard
/// (region % net.shard_count()); returns the HostIds in spec order (dense,
/// starting at the network's previous host_count()). Does NOT call
/// finalize_shards(), so several specs can be composed first.
std::vector<HostId> build_topology(const TopologySpec& spec, Network& net);

/// The lookahead shard `from` -> `to` would get for this spec under
/// `shard_count` shards: the minimum min_propagation_delay over directed
/// links whose source region maps to `from` and destination region to `to`.
/// Duration::max() when no such link exists. Independent recomputation used
/// to cross-check Network::finalize_shards().
Duration brute_force_lookahead(const TopologySpec& spec, unsigned shard_count,
                               unsigned from, unsigned to);

}  // namespace kmsg::netsim
