// Sequential-parity harness for the sharded simulation engine.
//
// The headline claim under test: for any shard count and any thread count,
// a sharded run is *bit-identical* to the sequential run of the same seeded
// world — same per-entity event order, same timestamps, same payloads, same
// stats, same chaos trace. Worlds are compared through layout-invariant
// observables: per-host event traces, the gossip overlay's fingerprint
// (which hashes every observable event with its instant), aggregate
// counters, and the chaos trace fingerprint.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/gossip.hpp"
#include "apps/messages.hpp"
#include "messaging/network_component.hpp"
#include "netsim/chaos.hpp"
#include "netsim/topology.hpp"
#include "sim/sharded.hpp"
#include "chaos_repro.hpp"

namespace {

using kmsg::Duration;
using kmsg::TimePoint;
using kmsg::apps::GossipConfig;
using kmsg::apps::GossipOverlay;
using kmsg::apps::GossipStats;
using kmsg::netsim::ChaosSchedule;
using kmsg::netsim::Datagram;
using kmsg::netsim::HostId;
using kmsg::netsim::IpProto;
using kmsg::netsim::LinkConfig;
using kmsg::netsim::Network;
using kmsg::netsim::TopologySpec;
using kmsg::sim::ShardedSimulator;
using kmsg::sim::Simulator;

// --- Engine-level micro worlds ----------------------------------------------

TEST(RemoteQueue, PushDrainPreservesOrderAndRecyclesNodes) {
  kmsg::sim::detail::RemoteQueue q;
  EXPECT_TRUE(q.empty());
  std::vector<kmsg::sim::detail::RemoteQueue::Item> out;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      q.push(i, static_cast<std::uint64_t>(i), kmsg::SmallFn([] {}));
    }
    EXPECT_FALSE(q.empty());
    out.clear();
    EXPECT_EQ(q.drain_into(out), 100u);
    ASSERT_EQ(out.size(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(out[i].at, i);
      EXPECT_EQ(out[i].key, static_cast<std::uint64_t>(i));
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(ShardedSim, SingleShardMatchesPlainSimulator) {
  auto run = [](auto&& schedule_into) {
    std::vector<int> order;
    ShardedSimulator ssim(1);
    schedule_into(ssim.shard(0), order);
    ssim.run_to_quiescence(TimePoint::from_nanos(1000), 1);
    return order;
  };
  auto script = [](Simulator& sim, std::vector<int>& order) {
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(Duration::nanos((i * 37) % 11),
                         [&order, i] { order.push_back(i); });
    }
  };
  std::vector<int> plain_order;
  Simulator plain;
  script(plain, plain_order);
  plain.run();
  EXPECT_EQ(run(script), plain_order);
}

TEST(ShardedSim, RejectsZeroLookahead) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(0, 1, Duration::zero());
  EXPECT_THROW(ssim.run_until(TimePoint::from_nanos(100)), std::logic_error);
}

TEST(ShardedSim, CrossShardPostRunsAtExactTime) {
  for (const unsigned threads : {1u, 0u}) {
    ShardedSimulator ssim(2);
    ssim.set_lookahead(0, 1, Duration::nanos(10));
    ssim.set_lookahead(1, 0, Duration::nanos(10));
    std::vector<std::int64_t> fired;
    // Ping-pong a token across shards: each hop re-posts 10 ns later.
    struct Hop {
      ShardedSimulator* ssim;
      std::vector<std::int64_t>* fired;
      void operator()(unsigned on, int depth) {
        fired->push_back(ssim->shard(on).now().as_nanos());
        if (depth >= 20) return;
        const unsigned to = 1 - on;
        const TimePoint at = ssim->shard(on).now() + Duration::nanos(10);
        auto self = *this;
        ssim->post(on, to, at, kmsg::sim::delivery_key(on, to, depth),
                   kmsg::SmallFn([self, to, depth]() mutable {
                     auto h = self;
                     h(to, depth + 1);
                   }));
      }
    };
    Hop hop{&ssim, &fired};
    ssim.shard(0).schedule_at(TimePoint::from_nanos(5),
                              [hop]() mutable {
                                auto h = hop;
                                h(0, 0);
                              });
    ssim.run_to_quiescence(TimePoint::from_nanos(64), threads);
    ASSERT_EQ(fired.size(), 21u);
    for (std::size_t i = 0; i < fired.size(); ++i) {
      EXPECT_EQ(fired[i], 5 + 10 * static_cast<std::int64_t>(i));
    }
    EXPECT_TRUE(ssim.idle());
  }
}

// --- Keyed scheduling order --------------------------------------------------

TEST(DeliveryKeys, BandZeroBeforeBandOneAtSameInstant) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_nanos(100);
  sim.post_at_keyed(t, kmsg::sim::delivery_key(3, 1, 0),
                    [&order] { order.push_back(100); });
  sim.schedule_at(t, [&order] { order.push_back(1); });
  sim.post_at_keyed(t, kmsg::sim::delivery_key(2, 1, 7),
                    [&order] { order.push_back(27); });
  sim.schedule_at(t, [&order] { order.push_back(2); });
  sim.post_at_keyed(t, kmsg::sim::delivery_key(2, 1, 3),
                    [&order] { order.push_back(23); });
  sim.run();
  // Locals in scheduling order first, then deliveries in (src, counter) order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 23, 27, 100}));
}

// --- Scripted two-host world: explicit trace parity --------------------------

// A tiny deterministic messaging world recording a per-host trace of
// (time, kind, value) tuples, including a cancel/re-arm pattern: host B arms
// a "suspect" timer and re-arms it on every arrival from A (a local cancel
// raced against cross-shard deliveries when A and B live on different
// shards).
struct ScriptWorld {
  std::unique_ptr<ShardedSimulator> ssim;  // null in plain mode
  std::unique_ptr<Simulator> plain;
  std::unique_ptr<Network> net;
  HostId a = 0, b = 0;
  std::vector<std::string> trace_a, trace_b;
  kmsg::sim::EventHandle suspect;
  std::uint64_t suspicions = 0;

  explicit ScriptWorld(unsigned shards) {
    if (shards == 0) {
      plain = std::make_unique<Simulator>();
      net = std::make_unique<Network>(*plain, /*seed=*/7);
    } else {
      ssim = std::make_unique<ShardedSimulator>(shards);
      net = std::make_unique<Network>(*ssim, /*seed=*/7);
    }
    const unsigned shard_b = shards >= 2 ? 1 : 0;
    a = net->add_host(0).id();
    b = net->add_host(shard_b).id();
    LinkConfig cfg;
    cfg.bandwidth_bytes_per_sec = 1e9;
    cfg.propagation_delay = Duration::micros(50);
    cfg.min_propagation_delay = Duration::micros(20);
    net->add_duplex_link(a, b, cfg);
    net->finalize_shards();

    auto& host_b = net->host(b);
    host_b.bind(IpProto::kUdp, 9, [this](const Datagram& dg) {
      auto& sim = net->simulator_for(b);
      trace_b.push_back(std::to_string(sim.now().as_nanos()) + " recv " +
                        std::to_string(dg.wire_bytes));
      // Cancel/re-arm across the shard boundary: every arrival defers the
      // suspicion by 200 us.
      suspect.cancel();
      if (suspicions < 3) {
        suspect = sim.schedule_after(Duration::micros(200), [this] {
          ++suspicions;
          trace_b.push_back(
              std::to_string(net->simulator_for(b).now().as_nanos()) +
              " suspect");
        });
      }
    });

    // Host A sends bursts at scripted times; some same-instant sends.
    auto& sim_a = net->simulator_for(a);
    for (const std::int64_t t : {10'000, 10'000, 150'000, 400'000, 400'000}) {
      sim_a.schedule_at(TimePoint::from_nanos(t), [this, t] {
        Datagram dg;
        dg.dst = b;
        dg.dst_port = 9;
        dg.proto = IpProto::kUdp;
        dg.wire_bytes = 100 + static_cast<std::size_t>(t % 1000);
        net->host(a).send(dg);
        trace_a.push_back(std::to_string(net->simulator_for(a).now().as_nanos()) +
                          " sent");
      });
    }
  }

  std::string run(unsigned threads) {
    if (plain) {
      plain->run();
    } else {
      ssim->run_to_quiescence(TimePoint::from_nanos(1'000'000), threads);
    }
    std::ostringstream os;
    for (const auto& l : trace_a) os << "A " << l << "\n";
    for (const auto& l : trace_b) os << "B " << l << "\n";
    return os.str();
  }
};

TEST(ShardParity, ScriptedTraceIdenticalAcrossLayouts) {
  const std::string reference = ScriptWorld(0).run(0);
  ASSERT_NE(reference.find("suspect"), std::string::npos);
  ASSERT_NE(reference.find("recv"), std::string::npos);
  EXPECT_EQ(ScriptWorld(1).run(1), reference) << "1 shard, round-robin";
  EXPECT_EQ(ScriptWorld(2).run(1), reference) << "2 shards, round-robin";
  EXPECT_EQ(ScriptWorld(2).run(0), reference) << "2 shards, threaded";
  EXPECT_EQ(ScriptWorld(4).run(0), reference) << "4 shards, threaded";
}

// --- Messaging-stack parity: delta encoding + coalescing over shards ---------

// The full messaging stack (serialisation, delta codec, coalescer, framing,
// TCP transport, supervision heartbeats) is stateful per connection: if the
// sharded engine perturbed event order anywhere in that pipeline, diffs would
// be computed against different bases or frames packed differently, and the
// byte-level stats would diverge. This world runs two NetworkComponents with
// both wire-efficiency features enabled and fingerprints every delivery plus
// the wire counters.

namespace messaging = kmsg::messaging;

messaging::MsgPtr parity_telemetry(const messaging::Address& src,
                                   const messaging::Address& dst,
                                   std::uint64_t seq) {
  messaging::BasicHeader h{src, dst, messaging::Transport::kTcp};
  std::array<std::uint64_t, kmsg::apps::TelemetryMsg::kReadings> r{};
  for (std::size_t j = 0; j < r.size(); ++j) r[j] = 1000 + j;
  r[seq % r.size()] = seq;
  return kmsg::kompics::make_event<kmsg::apps::TelemetryMsg>(
      h, "parity-dev", seq, static_cast<std::uint8_t>(seq & 0xff), r);
}

/// Records `<time> telemetry <seq>` for every delivery, stamped with the
/// owning shard's clock.
class ParityProbe final : public kmsg::kompics::ComponentDefinition {
 public:
  explicit ParityProbe(Simulator* sim) : sim_(sim) {}
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe_ptr<messaging::Msg>(*net_, [this](messaging::MsgPtr m) {
      const auto* t = dynamic_cast<const kmsg::apps::TelemetryMsg*>(m.get());
      if (t != nullptr) {
        trace.push_back(std::to_string(sim_->now().as_nanos()) +
                        " telemetry " + std::to_string(t->seq()));
      }
    });
  }
  kmsg::kompics::PortInstance& network() { return *net_; }
  void send(messaging::MsgPtr m) { trigger(std::move(m), *net_); }

  std::vector<std::string> trace;

 private:
  Simulator* sim_;
  kmsg::kompics::PortInstance* net_ = nullptr;
};

struct WireWorld {
  std::unique_ptr<ShardedSimulator> ssim;  // null in plain mode
  std::unique_ptr<Simulator> plain;
  std::unique_ptr<Network> net;
  std::shared_ptr<messaging::SerializerRegistry> registry;
  std::unique_ptr<kmsg::kompics::KompicsSystem> sys_a, sys_b;
  messaging::NetworkComponent* net_a = nullptr;
  messaging::NetworkComponent* net_b = nullptr;
  ParityProbe* probe_a = nullptr;
  ParityProbe* probe_b = nullptr;
  HostId a = 0, b = 0;
  messaging::Address addr_a, addr_b;

  explicit WireWorld(unsigned shards) {
    if (shards == 0) {
      plain = std::make_unique<Simulator>();
      net = std::make_unique<Network>(*plain, /*seed=*/19);
    } else {
      ssim = std::make_unique<ShardedSimulator>(shards);
      net = std::make_unique<Network>(*ssim, /*seed=*/19);
    }
    const unsigned shard_b = shards >= 2 ? 1 : 0;
    a = net->add_host(0).id();
    b = net->add_host(shard_b).id();
    LinkConfig link;
    link.bandwidth_bytes_per_sec = 1e9;
    link.propagation_delay = Duration::micros(50);
    link.min_propagation_delay = Duration::micros(20);
    net->add_duplex_link(a, b, link);
    net->finalize_shards();

    registry = std::make_shared<messaging::SerializerRegistry>();
    kmsg::apps::register_app_serializers(*registry);
    kmsg::apps::register_app_delta_schemas(*registry);

    addr_a = messaging::Address{a, 1000};
    addr_b = messaging::Address{b, 2000};

    messaging::NetworkConfig nc;
    nc.enable_delta = true;
    nc.enable_coalescing = true;
    nc.delta_keyframe_interval = 8;  // several keyframe decisions per run

    // One Kompics system per host, each on its host's shard clock — the
    // whole stack above the network lives on the host's own shard.
    auto build_node = [&](HostId h, const messaging::Address& self)
        -> std::tuple<std::unique_ptr<kmsg::kompics::KompicsSystem>,
                      messaging::NetworkComponent*, ParityProbe*> {
      auto sys =
          std::make_unique<kmsg::kompics::KompicsSystem>(net->simulator_for(h));
      messaging::NetworkConfig cfg = nc;
      cfg.self = self;
      auto& netc = sys->create<messaging::NetworkComponent>(
          "network@" + self.to_string(), net->host(h), cfg, registry);
      auto& probe = sys->create<ParityProbe>("probe@" + self.to_string(),
                                             &net->simulator_for(h));
      sys->connect(netc.network_port(), probe.network());
      sys->start_all();
      return {std::move(sys), &netc, &probe};
    };
    std::tie(sys_a, net_a, probe_a) = build_node(a, addr_a);
    std::tie(sys_b, net_b, probe_b) = build_node(b, addr_b);

    // Script: telemetry bursts A->B (the coalescer gets frame-mates, the
    // delta codec a warm base) plus sparse reverse chatter B->A, so both
    // directions carry codec state.
    auto& sim_a = net->simulator_for(a);
    std::uint64_t seq = 0;
    for (int burst = 0; burst < 4; ++burst) {
      const auto at = TimePoint::from_nanos(5'000'000 + burst * 20'000'000);
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t s = seq++;
        sim_a.schedule_at(at, [this, s] {
          probe_a->send(parity_telemetry(addr_a, addr_b, s));
        });
      }
    }
    auto& sim_b = net->simulator_for(b);
    for (std::uint64_t i = 0; i < 6; ++i) {
      sim_b.schedule_at(TimePoint::from_nanos(12'000'000 + i * 9'000'000),
                        [this, i] {
                          probe_b->send(parity_telemetry(addr_b, addr_a,
                                                         500 + i));
                        });
    }
  }

  std::string run(unsigned threads) {
    // The messaging stack never quiesces (status/heartbeat timers re-arm
    // forever), so both modes run to a fixed horizon. Plain run_until is
    // inclusive of the bound while the sharded engine executes strictly
    // below it; the golden run stops 1 ns short to make the cut identical.
    constexpr std::int64_t kHorizonNs = 300'000'000;
    if (plain) {
      plain->run_until(TimePoint::from_nanos(kHorizonNs - 1));
    } else {
      ssim->run_until(TimePoint::from_nanos(kHorizonNs), threads);
    }
    auto stat_line = [](const char* tag,
                        const messaging::NetworkComponentStats& s) {
      std::ostringstream os;
      os << tag << " sent=" << s.msgs_sent << " recv=" << s.msgs_received
         << " bytes=" << s.bytes_sent << "/" << s.bytes_received
         << " deltas=" << s.deltas_sent << "/" << s.deltas_received
         << " kf=" << s.delta_keyframes_sent << " saved=" << s.delta_bytes_saved
         << " coal=" << s.coalesced_frames_sent << "/" << s.coalesced_msgs_sent
         << " wire=" << s.wire_bytes_sent << " hb=" << s.heartbeats_sent << "/"
         << s.heartbeats_received << " corrupt=" << s.frames_corrupt
         << " resets=" << s.delta_resets_sent << "/" << s.delta_resets_received
         << " fail=" << s.serialize_failures << "/" << s.deserialize_failures;
      return os.str();
    };
    std::ostringstream os;
    for (const auto& l : probe_a->trace) os << "A " << l << "\n";
    for (const auto& l : probe_b->trace) os << "B " << l << "\n";
    os << stat_line("statsA", net_a->net_stats()) << "\n";
    os << stat_line("statsB", net_b->net_stats()) << "\n";
    return os.str();
  }
};

TEST(ShardParity, WireEfficiencyStackIdenticalAcrossLayouts) {
  WireWorld golden(0);
  const std::string reference = golden.run(0);
  // The workload must exercise the machinery for parity to mean anything:
  // every message delivered in both directions, and the wire-efficiency
  // features actually engaged.
  EXPECT_EQ(golden.probe_b->trace.size(), 32u);
  EXPECT_EQ(golden.probe_a->trace.size(), 6u);
  const auto& sa = golden.net_a->net_stats();
  ASSERT_GT(sa.deltas_sent, 0u) << "delta codec never engaged";
  ASSERT_GT(sa.coalesced_frames_sent, 0u) << "coalescer never engaged";
  ASSERT_GT(sa.heartbeats_received, 0u) << "supervision never engaged";
  EXPECT_EQ(sa.frames_corrupt, 0u);

  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(WireWorld(shards).run(0), reference)
        << shards << " shards, threaded";
    EXPECT_EQ(WireWorld(shards).run(1), reference)
        << shards << " shards, round-robin";
  }
}

// --- Gossip-overlay parity over generated topologies -------------------------

struct WorldResult {
  std::uint64_t gossip_fp = 0;
  GossipStats stats;
  std::string chaos_trace;
  std::uint64_t partition_drops = 0;
  std::uint64_t routing_drops = 0;
  std::uint64_t host_down_drops = 0;

  bool operator==(const WorldResult&) const = default;
};

enum class Topo { kStar, kFatTree, kWanMesh };

TopologySpec make_topo(Topo t, std::uint64_t seed) {
  switch (t) {
    case Topo::kStar: {
      kmsg::netsim::StarOfRegionsConfig cfg;
      cfg.regions = 5;
      cfg.hosts_per_region = 4;
      return kmsg::netsim::make_star_of_regions(cfg, seed);
    }
    case Topo::kFatTree: {
      kmsg::netsim::FatTreeConfig cfg;
      cfg.pods = 4;
      cfg.racks_per_pod = 2;
      cfg.hosts_per_rack = 2;
      return kmsg::netsim::make_fat_tree(cfg, seed);
    }
    case Topo::kWanMesh: {
      kmsg::netsim::WanMeshConfig cfg;
      cfg.regions = 4;
      cfg.hosts_per_region = 4;
      cfg.symmetric_delays = false;
      return kmsg::netsim::make_wan_mesh(cfg, seed);
    }
  }
  return {};
}

GossipConfig gossip_config() {
  GossipConfig cfg;
  cfg.run_for = Duration::seconds(3.0);
  cfg.heartbeat_period = Duration::millis(200);
  cfg.suspect_timeout = Duration::millis(500);
  cfg.dead_timeout = Duration::millis(1100);
  cfg.rumors = 5;
  cfg.rumor_window = Duration::seconds(1.5);
  cfg.fanout = 3;
  cfg.churn_events = 3;
  cfg.churn_from = Duration::millis(500);
  cfg.churn_to = Duration::seconds(2.0);
  cfg.churn_down_for = Duration::millis(900);
  return cfg;
}

// Builds the world, runs it to quiescence, returns the observables.
// shards == 0: plain sequential Network + Simulator (the golden reference).
WorldResult run_world(Topo topo, std::uint64_t seed, unsigned shards,
                      unsigned threads) {
  const TopologySpec spec = make_topo(topo, seed);
  std::unique_ptr<Simulator> plain;
  std::unique_ptr<ShardedSimulator> ssim;
  std::unique_ptr<Network> net;
  if (shards == 0) {
    plain = std::make_unique<Simulator>();
    net = std::make_unique<Network>(*plain, seed ^ 0xbeef);
  } else {
    ssim = std::make_unique<ShardedSimulator>(shards);
    net = std::make_unique<Network>(*ssim, seed ^ 0xbeef);
  }
  const std::vector<HostId> ids = kmsg::netsim::build_topology(spec, *net);
  net->finalize_shards();

  // Chaos: flaps, a partition epoch, and a delay squeeze (which the floors
  // clamp identically in every layout).
  ChaosSchedule chaos(*net, seed ^ 0xc4a05);
  std::vector<HostId> left(ids.begin(), ids.begin() + ids.size() / 2);
  std::vector<HostId> right(ids.begin() + ids.size() / 2, ids.end());
  chaos.partition_at(Duration::millis(800), {left, right})
      .heal_at(Duration::millis(1400))
      .loss_all_at(Duration::millis(300), 0.02)
      .delay_all_at(Duration::millis(1700), Duration::nanos(1))
      // Node faults: one crash-recovery mid-rumor-window and one crash-stop
      // that outlives the run — zombie in-flight datagrams, fault-listener
      // callbacks, and link-queue clearing must all be layout-invariant.
      .crash_recover_at(Duration::millis(600), ids[1], Duration::millis(400))
      .crash_at(Duration::millis(2000), ids[2])
      .random_flaps(6, Duration::millis(200), Duration::seconds(2.5),
                    Duration::millis(700));
  chaos.arm();

  GossipOverlay overlay(*net, gossip_config(), seed * 2654435761u + 1);
  overlay.start();

  if (plain) {
    plain->run();
  } else {
    ssim->run_to_quiescence(TimePoint::from_nanos(Duration::millis(10).as_nanos()),
                            threads);
    EXPECT_TRUE(ssim->idle());
  }

  WorldResult r;
  r.gossip_fp = overlay.fingerprint();
  r.stats = overlay.stats();
  r.chaos_trace = chaos.trace_string();
  r.partition_drops = net->partition_drops();
  r.routing_drops = net->routing_drops();
  for (const HostId h : ids) {
    r.host_down_drops += net->host(h).dropped_while_down();
  }
  return r;
}

class ShardParitySweep
    : public ::testing::TestWithParam<std::tuple<Topo, std::uint64_t>> {};

TEST_P(ShardParitySweep, BitIdenticalAcrossShardCounts) {
  const auto [topo, seed] = GetParam();
  kmsg::test::set_repro_seed(seed);
  const WorldResult reference = run_world(topo, seed, 0, 0);
  // The workload must actually exercise the machinery for parity to mean
  // anything: messages flowed, supervision fired, chaos applied — including
  // the node-fault events and the traffic they killed.
  ASSERT_GT(reference.stats.heartbeats_received, 0u);
  ASSERT_GT(reference.stats.rumor_deliveries, 0u);
  ASSERT_GT(reference.stats.suspects, 0u);
  ASSERT_FALSE(reference.chaos_trace.empty());
  ASSERT_NE(reference.chaos_trace.find("crash"), std::string::npos);
  ASSERT_GT(reference.host_down_drops, 0u);

  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    const WorldResult threaded = run_world(topo, seed, shards, 0);
    EXPECT_EQ(threaded, reference) << shards << " shards, threaded";
    const WorldResult rr = run_world(topo, seed, shards, 1);
    EXPECT_EQ(rr, reference) << shards << " shards, round-robin";
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<Topo, std::uint64_t>>& info) {
  static const char* const names[] = {"Star", "FatTree", "WanMesh"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSeeds, ShardParitySweep,
    ::testing::Combine(::testing::Values(Topo::kStar, Topo::kFatTree,
                                         Topo::kWanMesh),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{42},
                                         std::uint64_t{1337})),
    sweep_name);

}  // namespace
