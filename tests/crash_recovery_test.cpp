// Node crash-recovery tests: the netsim process fault domain (crash-stop /
// crash-recovery with incarnation bumps), supervision-tree restart policies,
// and incarnation-fenced sessions with dead-letter replay to the reborn peer.
//
// "No leaked arena events" across crash/restart cycles is asserted by the
// ASan/LSan CI job running this binary — a kill that dropped mailbox events
// without releasing them would report a leak there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/gossip.hpp"
#include "apps/messages.hpp"
#include "messaging/reliable.hpp"
#include "netsim/chaos.hpp"
#include "chaos_repro.hpp"

namespace kmsg {
namespace {

// =====================================================================
// Netsim process fault domain
// =====================================================================

TEST(NodeCrashNetsimTest, CrashRecoveryWindowDropsTrafficAndBumpsIncarnation) {
  test::set_repro_seed(99);
  sim::Simulator s;
  netsim::Network net(s, 99);
  const auto a = net.add_host().id();
  const auto b = net.add_host().id();
  netsim::LinkConfig lc;
  lc.bandwidth_bytes_per_sec = 1e9;
  lc.propagation_delay = Duration::millis(1);
  net.add_duplex_link(a, b, lc);
  net.finalize_shards();

  std::vector<Duration> arrivals;
  net.host(b).bind(netsim::IpProto::kUdp, 7, [&](const netsim::Datagram&) {
    arrivals.push_back(s.now() - TimePoint{});
  });
  std::vector<std::pair<bool, std::uint64_t>> fault_log;
  net.host(b).set_fault_listener([&](bool up, std::uint64_t inc) {
    fault_log.emplace_back(up, inc);
  });

  // One datagram a -> b every 100 ms for 3 s.
  for (int i = 1; i <= 30; ++i) {
    s.schedule_at(TimePoint{} + Duration::millis(100 * i), [&net, a, b] {
      netsim::Datagram dg;
      dg.dst = b;
      dg.dst_port = 7;
      dg.proto = netsim::IpProto::kUdp;
      dg.wire_bytes = 100;
      net.host(a).send(dg);
    });
  }
  // A stale timer closure on the dead process tries to transmit mid-window:
  // the send must be dropped at the source, not reach the wire.
  s.schedule_at(TimePoint{} + Duration::millis(1500), [&net, a, b] {
    netsim::Datagram dg;
    dg.dst = a;
    dg.dst_port = 9;
    dg.proto = netsim::IpProto::kUdp;
    dg.wire_bytes = 50;
    net.host(b).send(dg);
  });

  netsim::ChaosSchedule chaos(net, 99);
  chaos.crash_recover_at(Duration::millis(1050), b, Duration::millis(1000));
  chaos.arm();
  s.run();

  EXPECT_TRUE(net.host(b).is_up());
  EXPECT_EQ(net.host(b).incarnation(), 2u);
  ASSERT_EQ(fault_log.size(), 2u);
  EXPECT_EQ(fault_log[0], (std::pair<bool, std::uint64_t>{false, 1}));
  EXPECT_EQ(fault_log[1], (std::pair<bool, std::uint64_t>{true, 2}));

  // Arrivals land at send + 1 ms: the ten inside [1.05 s, 2.05 s) die.
  EXPECT_EQ(arrivals.size(), 20u);
  for (const Duration& at : arrivals) {
    EXPECT_TRUE(at < Duration::millis(1050) || at >= Duration::millis(2050))
        << "datagram delivered to a crashed host at t=" << at.as_millis()
        << " ms";
  }
  // 10 inbound deliveries + 1 outbound send dropped while down.
  EXPECT_EQ(net.host(b).dropped_while_down(), 11u);
  EXPECT_EQ(chaos.stats().node_crashes, 1u);
  EXPECT_EQ(chaos.stats().node_recoveries, 1u);
  EXPECT_NE(chaos.trace_string().find("crash"), std::string::npos);
}

TEST(NodeCrashNetsimTest, CrashClearsQueuedLinkDatagrams) {
  test::set_repro_seed(7);
  sim::Simulator s;
  netsim::Network net(s, 7);
  const auto a = net.add_host().id();
  const auto b = net.add_host().id();
  netsim::LinkConfig slow;
  slow.bandwidth_bytes_per_sec = 1000;  // 200 B datagram = 200 ms serialise
  slow.propagation_delay = Duration::millis(1);
  net.add_duplex_link(a, b, slow);
  net.finalize_shards();

  std::size_t delivered = 0;
  net.host(b).bind(netsim::IpProto::kUdp, 7,
                   [&](const netsim::Datagram&) { ++delivered; });

  // Burst five datagrams into a 1 s serialisation backlog, then crash the
  // receiver while most of them still sit in the link queue.
  s.schedule_at(TimePoint{} + Duration::millis(500), [&net, a, b] {
    for (int i = 0; i < 5; ++i) {
      netsim::Datagram dg;
      dg.dst = b;
      dg.dst_port = 7;
      dg.proto = netsim::IpProto::kUdp;
      dg.wire_bytes = 200;
      net.host(a).send(dg);
    }
  });
  netsim::ChaosSchedule chaos(net, 7);
  chaos.crash_at(Duration::millis(700), b);
  chaos.arm();
  s.run();

  EXPECT_LE(delivered, 1u);
  EXPECT_GE(net.link(a, b)->stats().drops_host_down, 3u)
      << "crash did not clear the link queue";
}

// =====================================================================
// Gossip overlay: crash-stop of a node mid-rumor (acceptance a)
// =====================================================================

TEST(GossipCrashStopTest, CrashedNodeIsDeclaredDeadByEveryPeer) {
  test::set_repro_seed(1234);
  sim::Simulator s;
  netsim::Network net(s, 1234);
  netsim::LinkConfig lc;
  lc.bandwidth_bytes_per_sec = 100e6;
  lc.propagation_delay = Duration::millis(1);
  std::vector<netsim::HostId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(net.add_host().id());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      net.add_duplex_link(ids[i], ids[j], lc);
    }
  }
  net.finalize_shards();

  apps::GossipConfig gc;
  gc.run_for = Duration::seconds(5.0);
  gc.heartbeat_period = Duration::millis(200);
  gc.suspect_timeout = Duration::millis(600);
  gc.dead_timeout = Duration::millis(1200);
  gc.rumors = 3;
  gc.rumor_window = Duration::seconds(1.0);
  gc.fanout = 3;

  // Crash mid-rumor-window: no churn scripting, no overlay cooperation — the
  // node simply goes silent and its peers' timeout FSMs must walk
  // Healthy -> Suspected -> Dead on silence alone.
  netsim::ChaosSchedule chaos(net, 1234);
  chaos.crash_at(Duration::millis(600), ids[3]);
  chaos.arm();

  apps::GossipOverlay overlay(net, gc, 1234);
  overlay.start();
  s.run();

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(overlay.node(ids[static_cast<std::size_t>(i)]).peer_health(ids[3]),
              apps::PeerHealth::kDead)
        << "survivor " << i << " never declared the crashed node dead";
  }
  EXPECT_GE(overlay.stats().deaths, 3u);
  EXPECT_GT(overlay.stats().rumor_deliveries, 0u);
  // The crashed node's own heartbeat timers keep firing — their sends (and
  // inbound deliveries to it) must be dropped, not delivered.
  EXPECT_GT(net.host(ids[3]).dropped_while_down(), 0u);
}

// =====================================================================
// Supervision trees: restart policies (acceptance d)
// =====================================================================

struct WorkCmd final : kompics::KompicsEvent {
  explicit WorkCmd(bool b) : bomb(b) {}
  bool bomb;
};

struct WorkPort : kompics::PortType {
  WorkPort() {
    set_name("Work");
    request<WorkCmd>();
  }
};

/// Throws on a bomb command (a handler fault), counts everything else.
/// Counters are atomic so the pool-mode test can poll them cross-thread.
class Worker final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    port_ = &provides<WorkPort>();
    subscribe<kompics::Start>(control(), [this](const kompics::Start&) {
      starts.fetch_add(1, std::memory_order_release);
    });
    subscribe<WorkCmd>(*port_, [this](const WorkCmd& cmd) {
      if (cmd.bomb) throw std::runtime_error("worker bomb");
      handled.fetch_add(1, std::memory_order_release);
    });
  }
  kompics::PortInstance& port() { return *port_; }

  std::atomic<std::uint32_t> starts{0};
  std::atomic<std::uint32_t> handled{0};

 private:
  kompics::PortInstance* port_ = nullptr;
};

/// A supervisor with `n` Worker children under the given policy.
class Crew final : public kompics::ComponentDefinition {
 public:
  Crew(kompics::SupervisorPolicy policy, std::size_t n)
      : policy_(policy), n_(n) {}

  void setup() override {
    supervise(policy_);
    for (std::size_t i = 0; i < n_; ++i) {
      workers_.push_back(&create_child<Worker>("worker" + std::to_string(i)));
    }
  }
  Worker& worker(std::size_t i) { return *workers_.at(i); }

 private:
  kompics::SupervisorPolicy policy_;
  std::size_t n_;
  std::vector<Worker*> workers_;
};

/// A supervisor whose only child is itself a supervisor — for testing fault
/// escalation past an exhausted intermediate.
class Grand final : public kompics::ComponentDefinition {
 public:
  Grand(kompics::SupervisorPolicy own, kompics::SupervisorPolicy crew_policy)
      : own_(own), crew_policy_(crew_policy) {}

  void setup() override {
    supervise(own_);
    crew_ = &create_child<Crew>("crew", crew_policy_, std::size_t{1});
  }
  Crew& crew() { return *crew_; }

 private:
  kompics::SupervisorPolicy own_;
  kompics::SupervisorPolicy crew_policy_;
  Crew* crew_ = nullptr;
};

class Driver final : public kompics::ComponentDefinition {
 public:
  void setup() override { port_ = &require<WorkPort>(); }
  kompics::PortInstance& port() { return *port_; }
  void poke(bool bomb) { trigger(kompics::make_event<WorkCmd>(bomb), *port_); }

 private:
  kompics::PortInstance* port_ = nullptr;
};

struct SupervisionTreeFixture : ::testing::Test {
  sim::Simulator sim;
  kompics::KompicsSystem sys{sim};
};

TEST_F(SupervisionTreeFixture, OneForOneRestartsOnlyFaultedChild) {
  kompics::SupervisorPolicy policy;
  policy.restart = kompics::RestartPolicy::kOneForOne;
  policy.max_restarts = 3;
  auto& crew = sys.create<Crew>("crew", policy, std::size_t{2});
  auto& d0 = sys.create<Driver>("d0");
  auto& d1 = sys.create<Driver>("d1");
  sys.connect(crew.worker(0).port(), d0.port());
  sys.connect(crew.worker(1).port(), d1.port());
  sys.start_all();
  sim.run();
  ASSERT_EQ(crew.worker(0).starts.load(), 1u);
  ASSERT_EQ(crew.worker(1).starts.load(), 1u);

  d0.poke(true);  // bomb
  sim.run();

  EXPECT_EQ(crew.worker(0).starts.load(), 2u) << "faulted child not restarted";
  EXPECT_EQ(crew.worker(1).starts.load(), 1u) << "sibling restarted under one-for-one";
  EXPECT_EQ(sys.life_state(crew.worker(0)), kompics::LifeState::kActive);
  EXPECT_EQ(sys.life_state(crew.worker(1)), kompics::LifeState::kActive);
  EXPECT_EQ(sys.life_state(crew), kompics::LifeState::kActive);

  // The restarted worker handles new work.
  d0.poke(false);
  d1.poke(false);
  sim.run();
  EXPECT_EQ(crew.worker(0).handled.load(), 1u);
  EXPECT_EQ(crew.worker(1).handled.load(), 1u);
}

TEST_F(SupervisionTreeFixture, AllForOneRestartsEverySibling) {
  kompics::SupervisorPolicy policy;
  policy.restart = kompics::RestartPolicy::kAllForOne;
  policy.max_restarts = 3;
  auto& crew = sys.create<Crew>("crew", policy, std::size_t{2});
  auto& d0 = sys.create<Driver>("d0");
  sys.connect(crew.worker(0).port(), d0.port());
  sys.start_all();
  sim.run();

  d0.poke(true);  // bomb worker 0
  sim.run();

  EXPECT_EQ(crew.worker(0).starts.load(), 2u);
  EXPECT_EQ(crew.worker(1).starts.load(), 2u) << "all-for-one spared a sibling";
  EXPECT_EQ(sys.life_state(crew.worker(0)), kompics::LifeState::kActive);
  EXPECT_EQ(sys.life_state(crew.worker(1)), kompics::LifeState::kActive);
}

TEST_F(SupervisionTreeFixture, ExhaustedRootSupervisorKillsChildAndSurvives) {
  kompics::SupervisorPolicy policy;
  policy.max_restarts = 0;  // first fault exhausts the budget
  auto& crew = sys.create<Crew>("crew", policy, std::size_t{2});
  auto& d0 = sys.create<Driver>("d0");
  auto& d1 = sys.create<Driver>("d1");
  sys.connect(crew.worker(0).port(), d0.port());
  sys.connect(crew.worker(1).port(), d1.port());
  sys.start_all();
  sim.run();

  d0.poke(true);
  sim.run();

  // The faulted child's subtree is killed; at the root there is no
  // grandparent to escalate to, so the supervisor itself stays up and its
  // healthy children keep working.
  EXPECT_EQ(sys.life_state(crew.worker(0)), kompics::LifeState::kDead);
  EXPECT_EQ(sys.life_state(crew), kompics::LifeState::kActive);
  EXPECT_EQ(sys.life_state(crew.worker(1)), kompics::LifeState::kActive);
  d1.poke(false);
  sim.run();
  EXPECT_EQ(crew.worker(1).handled.load(), 1u);
  // A dead component never executes again.
  d0.poke(false);
  sim.run();
  EXPECT_EQ(crew.worker(0).handled.load(), 0u);
}

TEST_F(SupervisionTreeFixture, ExhaustedMidTreeSupervisorEscalatesToGrandparent) {
  kompics::SupervisorPolicy grand_policy;  // tolerant: restarts the crew
  grand_policy.max_restarts = 3;
  kompics::SupervisorPolicy crew_policy;
  crew_policy.max_restarts = 0;  // intolerant: escalates on first fault
  auto& grand = sys.create<Grand>("grand", grand_policy, crew_policy);
  auto& d0 = sys.create<Driver>("d0");
  sys.connect(grand.crew().worker(0).port(), d0.port());
  sys.start_all();
  sim.run();

  d0.poke(true);
  sim.run();

  // Worker faults -> crew's budget (0) is exhausted -> worker subtree is
  // killed and the fault escalates -> grandparent restarts the crew.
  EXPECT_EQ(sys.life_state(grand.crew().worker(0)), kompics::LifeState::kDead);
  EXPECT_EQ(sys.life_state(grand.crew()), kompics::LifeState::kActive)
      << "grandparent did not restart the escalating supervisor";
  EXPECT_EQ(sys.life_state(grand), kompics::LifeState::kActive);
}

// Restart under the work-stealing pool: a fault on one worker thread must
// not wedge the pool, and the restarted component must keep handling work.
// (Runs under TSan via the "mt|kompics|crash" label set.)
TEST(SupervisionPoolTest, RestartUnderWorkStealingPoolKeepsPoolAlive) {
  kompics::KompicsSystem sys(std::size_t{4});
  kompics::SupervisorPolicy policy;
  policy.restart = kompics::RestartPolicy::kOneForOne;
  policy.max_restarts = 8;
  auto& crew = sys.create<Crew>("crew", policy, std::size_t{2});
  auto& d0 = sys.create<Driver>("d0");
  auto& d1 = sys.create<Driver>("d1");
  sys.connect(crew.worker(0).port(), d0.port());
  sys.connect(crew.worker(1).port(), d1.port());
  sys.start_all();

  const auto spin_until = [](const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  ASSERT_TRUE(spin_until([&] {
    return crew.worker(0).starts.load(std::memory_order_acquire) >= 1 &&
           crew.worker(1).starts.load(std::memory_order_acquire) >= 1;
  })) << "workers never started";

  d0.poke(true);  // bomb worker 0 on the pool
  ASSERT_TRUE(spin_until([&] {
    return crew.worker(0).starts.load(std::memory_order_acquire) >= 2;
  })) << "pool-mode restart never completed";

  d0.poke(false);
  d1.poke(false);
  ASSERT_TRUE(spin_until([&] {
    return crew.worker(0).handled.load(std::memory_order_acquire) >= 1 &&
           crew.worker(1).handled.load(std::memory_order_acquire) >= 1;
  })) << "pool wedged after a supervised restart";

  sys.shutdown();
  // Safe to read non-atomic lifecycle state once the workers are joined.
  EXPECT_GE(crew.worker(0).starts.load(), 2u);
  EXPECT_EQ(crew.worker(1).starts.load(), 1u);
}

// =====================================================================
// Messaging: crash-stop and crash-recovery end to end
// =====================================================================

/// Network-port probe that also records PeerRestarted notifications.
class CrashProbe final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe_ptr<messaging::Msg>(*net_, [this](messaging::MsgPtr m) {
      messages.push_back(std::move(m));
    });
    subscribe<messaging::ConnectionStatus>(
        *net_, [this](const messaging::ConnectionStatus& cs) {
          transitions.push_back(cs);
        });
    subscribe<messaging::PeerRestarted>(
        *net_, [this](const messaging::PeerRestarted& pr) {
          restarts.push_back(pr);
        });
  }
  kompics::PortInstance& network() { return *net_; }
  void send(messaging::MsgPtr m) { trigger(std::move(m), *net_); }

  std::size_t pings_with_seq(std::uint64_t seq) const {
    std::size_t n = 0;
    for (const auto& m : messages) {
      const auto* p = dynamic_cast<const apps::PingMsg*>(m.get());
      if (p != nullptr && p->seq() == seq) ++n;
    }
    return n;
  }

  std::vector<messaging::MsgPtr> messages;
  std::vector<messaging::ConnectionStatus> transitions;
  std::vector<messaging::PeerRestarted> restarts;

 private:
  kompics::PortInstance* net_ = nullptr;
};

messaging::MsgPtr make_ping(const messaging::Address& src,
                            const messaging::Address& dst, std::uint64_t seq) {
  messaging::BasicHeader h{src, dst, messaging::Transport::kTcp};
  return kompics::make_event<apps::PingMsg>(h, seq, 0);
}

// Crash-stop of a filetransfer sender mid-transfer: the surviving peer walks
// its supervision FSM to Dead, leaks no queued bytes, and the stream stops
// for good (the killed source and network component never execute again).
TEST(CrashStopTest, SenderCrashMidTransferDrivesPeerDead) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.tcp.initial_rto = Duration::millis(200);
  cfg.net.tcp.max_syn_retries = 2;
  cfg.net.tcp.max_data_retries = 3;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  apps::TwoNodeExperiment exp(cfg);

  // The source lives on node B, streaming to a sink on node A; the probe's
  // ping gives A an outbound session of its own to supervise B with.
  apps::DataSourceConfig src_cfg;
  src_cfg.self = exp.addr_b();
  src_cfg.dst = exp.addr_a();
  src_cfg.total_bytes = 0;  // stream until the crash
  src_cfg.chunk_bytes = 20000;
  src_cfg.window_chunks = 8;
  src_cfg.protocol = messaging::Transport::kTcp;
  src_cfg.retry_backoff = Duration::millis(100);
  auto& source = exp.system().create<apps::DataSource>("source_b", src_cfg);
  apps::DataSinkConfig sink_cfg;
  sink_cfg.self = exp.addr_a();
  sink_cfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink_a", sink_cfg);
  auto& probe_a = exp.system().create<CrashProbe>("crash_probe_a");
  exp.connect_b(source.network());
  exp.connect_a(sink.network());
  exp.connect_a(probe_a.network());
  exp.start();

  probe_a.send(make_ping(exp.addr_a(), exp.addr_b(), 1));
  exp.run_for(Duration::seconds(1.0));
  ASSERT_GT(sink.bytes_received(), 0u) << "transfer never started";

  exp.crash_b();
  exp.system().kill(source);
  exp.run_for(Duration::seconds(4.0));

  auto& net_a = exp.network_a();
  EXPECT_EQ(net_a.peer_health(exp.addr_b()), messaging::PeerHealth::kDead);
  EXPECT_GE(net_a.net_stats().peers_died, 1u);
  EXPECT_EQ(net_a.queued_bytes_total(), 0u) << "dead peer leaked queue bytes";
  EXPECT_EQ(exp.system().life_state(exp.network_b()),
            kompics::LifeState::kDead);
  EXPECT_EQ(exp.system().life_state(source), kompics::LifeState::kDead);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);

  const std::uint64_t frozen = sink.bytes_received();
  exp.run_for(Duration::seconds(1.0));
  EXPECT_EQ(sink.bytes_received(), frozen) << "a dead sender kept sending";
}

// Crash-recovery of the sink node: B comes back with incarnation 2, its
// hello fences the old incarnation, dead letters parked while B was down
// replay exactly once to the new process, and the transfer — rewound by the
// source on PeerRestarted — runs to completion against the reborn sink.
TEST(CrashRecoveryTest, TransferResumesAcrossSinkRestartWithDeadLetterReplay) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  netsim::LinkConfig slow;  // 1 MB/s so a 2 MB transfer spans the timeline
  slow.bandwidth_bytes_per_sec = 1e6;
  slow.propagation_delay = Duration::millis(5);
  slow.min_propagation_delay = Duration::millis(1);
  cfg.link_override = slow;
  cfg.net.tcp.initial_rto = Duration::millis(200);
  cfg.net.tcp.max_syn_retries = 2;
  cfg.net.tcp.max_data_retries = 3;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  apps::TwoNodeExperiment exp(cfg);

  constexpr std::uint64_t kTotal = 2'000'000;
  apps::DataSourceConfig src_cfg;
  src_cfg.self = exp.addr_a();
  src_cfg.dst = exp.addr_b();
  src_cfg.total_bytes = kTotal;
  src_cfg.chunk_bytes = 20000;
  src_cfg.window_chunks = 8;
  src_cfg.protocol = messaging::Transport::kTcp;
  src_cfg.retry_backoff = Duration::millis(200);
  src_cfg.transfer_id = 7;
  auto& source = exp.system().create<apps::DataSource>("source_a", src_cfg);
  apps::DataSinkConfig sink_cfg;
  sink_cfg.self = exp.addr_b();
  sink_cfg.verify_payload = true;
  auto& sink1 = exp.system().create<apps::DataSink>("sink_b1", sink_cfg);
  auto& probe_a = exp.system().create<CrashProbe>("crash_probe_a");
  auto& probe_b1 = exp.system().create<CrashProbe>("crash_probe_b1");
  exp.connect_a(source.network());
  exp.connect_a(probe_a.network());
  exp.connect_b(sink1.network());
  exp.connect_b(probe_b1.network());
  exp.start();

  // B announces itself once so A records incarnation 1 from B's hello —
  // without a baseline the later hello cannot register as a *restart*.
  probe_b1.send(make_ping(exp.addr_b(), exp.addr_a(), 90));

  exp.run_for(Duration::seconds(0.6));
  ASSERT_GT(sink1.bytes_received(), 0u) << "transfer never started";
  ASSERT_FALSE(source.finished()) << "transfer too fast to crash mid-flight";

  exp.crash_b();
  exp.system().kill(sink1);
  exp.system().kill(probe_b1);

  exp.run_for(Duration::seconds(3.4));  // t = 4.0 s
  auto& net_a = exp.network_a();
  ASSERT_EQ(net_a.peer_health(exp.addr_b()), messaging::PeerHealth::kDead);
  EXPECT_EQ(net_a.queued_bytes_total(), 0u);

  // Fire-and-forget pings into the dead peer park as dead letters.
  for (std::uint64_t seq : {101u, 102u, 103u}) {
    probe_a.send(make_ping(exp.addr_a(), exp.addr_b(), seq));
  }
  exp.run_for(Duration::millis(200));  // t = 4.2 s
  EXPECT_GE(net_a.net_stats().dead_letters_buffered, 3u);

  // --- Recovery: incarnation 2 binds the same address. ---
  exp.recover_b();
  EXPECT_EQ(exp.network().host(exp.addr_b().host).incarnation(), 2u);
  EXPECT_EQ(exp.b_restarts(), 1u);
  auto& sink2 = exp.system().create<apps::DataSink>("sink_b2", sink_cfg);
  auto& probe_b2 = exp.system().create<CrashProbe>("crash_probe_b2");
  exp.connect_b(sink2.network());
  exp.connect_b(probe_b2.network());
  exp.system().start(sink2);
  exp.system().start(probe_b2);
  // The reborn process announces itself; the hello riding this outbound
  // session is how A learns the new incarnation.
  probe_b2.send(make_ping(exp.addr_b(), exp.addr_a(), 900));

  exp.run_for(Duration::seconds(8.0));  // t = 12.2 s

  // A observed the restart and the source rewound the transfer.
  ASSERT_FALSE(probe_a.restarts.empty()) << "PeerRestarted never surfaced";
  EXPECT_EQ(probe_a.restarts.front().old_incarnation, 1u);
  EXPECT_EQ(probe_a.restarts.front().new_incarnation, 2u);
  EXPECT_GE(net_a.net_stats().peer_restarts, 1u);
  EXPECT_GE(net_a.net_stats().hellos_received, 1u);
  EXPECT_GE(source.restarts_observed(), 1u);
  EXPECT_TRUE(source.finished())
      << "transfer never completed against the reborn sink";
  EXPECT_GE(sink2.bytes_received(), kTotal);
  EXPECT_EQ(sink2.corrupt_chunks(), 0u);

  // Dead letters replayed to incarnation 2 exactly once each.
  EXPECT_GE(net_a.net_stats().dead_letters_flushed, 3u);
  for (std::uint64_t seq : {101u, 102u, 103u}) {
    EXPECT_EQ(probe_b2.pings_with_seq(seq), 1u)
        << "dead letter " << seq << " lost or duplicated on replay";
  }
  EXPECT_GE(net_a.net_stats().peers_recovered, 1u);
  EXPECT_EQ(net_a.peer_health(exp.addr_b()), messaging::PeerHealth::kHealthy);
}

// Zombie frames: datagrams from the old incarnation still in flight when the
// node restarts must be fenced at the receiver, not delivered as fresh
// traffic from the new process.
TEST(CrashRecoveryTest, StaleFramesFromOldIncarnationAreFenced) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  apps::TwoNodeExperiment exp(cfg);
  auto& probe_a = exp.system().create<CrashProbe>("crash_probe_a");
  auto& probe_b1 = exp.system().create<CrashProbe>("crash_probe_b1");
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b1.network());
  exp.start();

  // Stretch the B->A path to 500 ms at t=1.0 so a frame sent at t=1.1 is
  // still in propagation when B crashes at 1.15 and restarts at 1.3 — then
  // restore the path so the new incarnation's handshake wins the race.
  netsim::ChaosSchedule chaos(exp.network());
  chaos.delay_at(Duration::seconds(1.0), exp.addr_a().host, exp.addr_b().host,
                 Duration::millis(500))
      .delay_at(Duration::millis(1250), exp.addr_a().host, exp.addr_b().host,
                Duration::millis(1));
  chaos.arm();

  probe_b1.send(make_ping(exp.addr_b(), exp.addr_a(), 1));  // hello inc=1
  exp.run_for(Duration::seconds(1.1));
  probe_b1.send(make_ping(exp.addr_b(), exp.addr_a(), 2));  // the zombie
  exp.run_for(Duration::millis(50));  // t = 1.15: seq 2 is in the long pipe

  exp.crash_b();
  exp.system().kill(probe_b1);
  exp.run_for(Duration::millis(150));  // t = 1.3
  exp.recover_b();
  auto& probe_b2 = exp.system().create<CrashProbe>("crash_probe_b2");
  exp.connect_b(probe_b2.network());
  exp.system().start(probe_b2);
  probe_b2.send(make_ping(exp.addr_b(), exp.addr_a(), 3));  // hello inc=2

  exp.run_for(Duration::seconds(1.0));  // t = 2.3: zombie arrived ~1.6, fenced

  auto& net_a = exp.network_a();
  EXPECT_EQ(probe_a.pings_with_seq(1), 1u);
  EXPECT_EQ(probe_a.pings_with_seq(3), 1u)
      << "new incarnation's traffic did not get through";
  EXPECT_EQ(probe_a.pings_with_seq(2), 0u)
      << "zombie frame from the dead incarnation leaked through the fence";
  EXPECT_GE(net_a.net_stats().stale_frames_fenced, 1u);
  EXPECT_GE(net_a.net_stats().peer_restarts, 1u);
  ASSERT_FALSE(probe_a.restarts.empty());
  EXPECT_EQ(probe_a.restarts.front().old_incarnation, 1u);
  EXPECT_EQ(probe_a.restarts.front().new_incarnation, 2u);
}

}  // namespace
}  // namespace kmsg
