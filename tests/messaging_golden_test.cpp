// Golden values for the messaging layer.
//
// Six seeded two-node scenarios run through the full stack: simulated
// links, stream transports, framing, sessions, supervision, incarnation
// fencing, delta encoding and coalescing. Each scenario pins, as exact
// integers:
//   - every NetworkComponentStats field of every NetworkComponent it ran;
//   - the ordered ConnectionStatus and PeerRestarted indications of both
//     hosts (sim ns, scope, old state, new state, reason);
//   - the ordered notify answers (sim ns, status, via, bytes).
// Phi scores are doubles and are left out. A change to NetworkComponent
// that keeps these strings keeps what each session does with its queue,
// its timers and its frames. On a mismatch the actual text is printed in a
// form that can be pasted back as the new golden value.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/messages.hpp"
#include "kompics/system.hpp"
#include "messaging/network_component.hpp"
#include "netsim/chaos.hpp"
#include "netsim/topology.hpp"
#include "chaos_repro.hpp"

namespace kmsg::messaging {
namespace {

// A new stats field must be added to stats_text() and to every golden value.
static_assert(sizeof(NetworkComponentStats) == 36 * sizeof(std::uint64_t));

std::string stats_text(const std::string& who, const NetworkComponentStats& s) {
  std::ostringstream os;
  os << who << " msgs sent=" << s.msgs_sent << " received=" << s.msgs_received
     << " reflected=" << s.msgs_reflected << " dropped=" << s.msgs_dropped
     << " bytes_sent=" << s.bytes_sent
     << " bytes_received=" << s.bytes_received << "\n"
     << who << " errors serialize=" << s.serialize_failures
     << " deserialize=" << s.deserialize_failures
     << " corrupt=" << s.frames_corrupt << " overflow=" << s.queue_overflow
     << " unsupported=" << s.unsupported_transport << "\n"
     << who << " sessions opened=" << s.sessions_opened
     << " accepted=" << s.sessions_accepted << " closed=" << s.sessions_closed
     << " reconnects=" << s.session_reconnects << "\n"
     << who << " health hb_sent=" << s.heartbeats_sent
     << " hb_received=" << s.heartbeats_received
     << " suspected=" << s.peers_suspected << " died=" << s.peers_died
     << " recovered=" << s.peers_recovered << "\n"
     << who << " letters buffered=" << s.dead_letters_buffered
     << " flushed=" << s.dead_letters_flushed
     << " dropped=" << s.dead_letters_dropped << "\n"
     << who << " fencing hellos_sent=" << s.hellos_sent
     << " hellos_received=" << s.hellos_received
     << " restarts=" << s.peer_restarts << " fenced=" << s.stale_frames_fenced
     << "\n"
     << who << " delta sent=" << s.deltas_sent
     << " keyframes=" << s.delta_keyframes_sent
     << " saved=" << s.delta_bytes_saved << " received=" << s.deltas_received
     << " resets_sent=" << s.delta_resets_sent
     << " resets_received=" << s.delta_resets_received << "\n"
     << who << " wire coalesced_frames=" << s.coalesced_frames_sent
     << " coalesced_msgs=" << s.coalesced_msgs_sent
     << " bytes=" << s.wire_bytes_sent << "\n";
  return os.str();
}

/// Writes what one host's Network port indicates into a log shared by both
/// hosts, one line per event, so the interleaving is pinned too.
class GoldenProbe final : public kompics::ComponentDefinition {
 public:
  GoldenProbe(std::string host, std::vector<std::string>* log)
      : host_(std::move(host)), log_(log) {}

  void setup() override {
    net_ = &require<Network>();
    subscribe<MessageNotifyResp>(*net_, [this](const MessageNotifyResp& r) {
      record(std::string("notify ") + to_string(r.status) + " " +
             to_string(r.via) + " " + std::to_string(r.bytes));
    });
    subscribe<ConnectionStatus>(*net_, [this](const ConnectionStatus& cs) {
      record(std::string("status ") +
             (cs.transport ? to_string(*cs.transport) : "peer") + " " +
             to_string(cs.old_state) + "->" + to_string(cs.new_state) + " " +
             to_string(cs.reason));
    });
    subscribe<PeerRestarted>(*net_, [this](const PeerRestarted& pr) {
      record("restarted " + std::to_string(pr.old_incarnation) + "->" +
             std::to_string(pr.new_incarnation));
    });
  }

  kompics::PortInstance& network() { return *net_; }
  void send(MsgPtr m) { trigger(std::move(m), *net_); }
  void send_notified(MsgPtr m) {
    trigger(kompics::make_event<MessageNotifyReq>(std::move(m),
                                                  next_notify_id()),
            *net_);
  }

 private:
  void record(const std::string& what) {
    log_->push_back(std::to_string(clock().now().as_nanos()) + " " + host_ +
                    " " + what);
  }

  std::string host_;
  std::vector<std::string>* log_;
  kompics::PortInstance* net_ = nullptr;
};

std::shared_ptr<SerializerRegistry> app_registry() {
  auto r = std::make_shared<SerializerRegistry>();
  apps::register_app_serializers(*r);
  return r;
}

/// Two EU-VPC hosts, A (port 1000) and B (port 2000), each with its own
/// serializer registry, NetworkComponent and probe. B can crash and come
/// back as a new process with the next incarnation. Separate registries let
/// B learn a delta schema later than A, which is how a receiver ends up
/// without the base a diff refers to.
class GoldenWorld {
 public:
  explicit GoldenWorld(NetworkConfig net)
      : net_config_(net), world_(sim_, netsim::Setup::kEuVpc, 42), sys_(sim_) {
    a_ = Address{world_.sender, 1000};
    b_ = Address{world_.receiver, 2000};
    net_a_ = &make_net(a_, world_.sender, reg_a_, "A");
    net_b_ = &make_net(b_, world_.receiver, reg_b_, "B");
    probe_a_ = &make_probe("A", *net_a_);
    probe_b_ = &make_probe("B", *net_b_);
    sys_.start_all();
  }

  Address a() const { return a_; }
  Address b() const { return b_; }
  GoldenProbe& probe_a() { return *probe_a_; }
  GoldenProbe& probe_b() { return *probe_b_; }
  NetworkComponent& net_a() { return *net_a_; }
  SerializerRegistry& registry_a() { return *reg_a_; }
  SerializerRegistry& registry_b() { return *reg_b_; }
  kompics::KompicsSystem& system() { return sys_; }
  netsim::Network& network() { return world_.net; }
  netsim::Link& link(const Address& from, const Address& to) {
    return *world_.net.link(from.host, to.host);
  }
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  /// B's host stops routing, then its process (network component and probe)
  /// is killed.
  void crash_b() {
    world_.net.host(world_.receiver).crash();
    sys_.kill(*net_b_);
    sys_.kill(*probe_b_);
  }
  /// B's host comes back with the next incarnation, running a new process.
  void recover_b() {
    auto& host = world_.net.host(world_.receiver);
    host.recover();
    const std::string name = "B#" + std::to_string(host.incarnation());
    net_b_ = &make_net(b_, world_.receiver, reg_b_, name);
    probe_b_ = &make_probe("B", *net_b_);
    sys_.start(*net_b_);
    sys_.start(*probe_b_);
  }

  /// The event log, then the stats of every NetworkComponent created.
  std::string summary() const {
    std::string out;
    for (const auto& line : log_) out += line + "\n";
    for (const auto& [name, net] : nets_) {
      out += stats_text(name, net->net_stats());
    }
    return out;
  }

 private:
  NetworkComponent& make_net(const Address& self, netsim::HostId host,
                             const std::shared_ptr<SerializerRegistry>& reg,
                             const std::string& name) {
    NetworkConfig cfg = net_config_;
    cfg.self = self;
    auto& net = sys_.create<NetworkComponent>("network@" + name,
                                              world_.net.host(host), cfg, reg);
    nets_.emplace_back(name, &net);
    return net;
  }
  GoldenProbe& make_probe(const std::string& host, NetworkComponent& net) {
    auto& p = sys_.create<GoldenProbe>("probe@" + host, host, &log_);
    sys_.connect(net.network_port(), p.network());
    return p;
  }

  NetworkConfig net_config_;
  sim::Simulator sim_;
  netsim::TwoHostWorld world_;
  kompics::KompicsSystem sys_;
  std::shared_ptr<SerializerRegistry> reg_a_ = app_registry();
  std::shared_ptr<SerializerRegistry> reg_b_ = app_registry();
  Address a_;
  Address b_;
  NetworkComponent* net_a_ = nullptr;
  NetworkComponent* net_b_ = nullptr;
  GoldenProbe* probe_a_ = nullptr;
  GoldenProbe* probe_b_ = nullptr;
  std::vector<std::pair<std::string, NetworkComponent*>> nets_;
  std::vector<std::string> log_;
};

MsgPtr chunk(const Address& from, const Address& to, std::uint64_t offset,
             std::size_t len) {
  return kompics::make_event<apps::DataChunkMsg>(
      DataHeader{from, to, Transport::kTcp}, 1, offset,
      apps::make_payload_slice(offset, len), false);
}

MsgPtr ping(const Address& from, const Address& to, std::uint64_t seq) {
  return kompics::make_event<apps::PingMsg>(
      BasicHeader{from, to, Transport::kTcp}, seq, 0);
}

MsgPtr telemetry(const Address& from, const Address& to, std::uint64_t seq) {
  std::array<std::uint64_t, apps::TelemetryMsg::kReadings> readings{};
  for (std::size_t j = 0; j < readings.size(); ++j) readings[j] = 1000 + j;
  readings[seq % readings.size()] = seq;
  return kompics::make_event<apps::TelemetryMsg>(
      BasicHeader{from, to, Transport::kTcp}, "sensor-7", seq,
      static_cast<std::uint8_t>(seq & 0xff), readings);
}

/// `expected` is a raw string literal that starts on the line after its
/// opening R"(.
void expect_golden(const std::string& actual, const std::string& expected) {
  EXPECT_EQ("\n" + actual, expected) << "actual:\n" << actual;
}

// A partition cuts an established TCP session with frames queued; every
// reconnect fails, so the peer is declared Dead: notifies answer PeerFailed,
// fire-and-forget messages become dead letters. After the heal a probe
// connect finds the peer and the letters flush.
TEST(MessagingGoldenTest, PartitionExhaustsReconnectsThenHeals) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.tcp.initial_rto = Duration::millis(200);
  net.tcp.max_syn_retries = 1;
  net.tcp.max_data_retries = 2;
  net.tcp.send_buffer_bytes = 32 * 1024;
  net.session_reconnect_attempts = 2;
  net.session_reconnect_backoff = Duration::millis(100);
  net.phi.acceptable_pause = Duration::seconds(30.0);
  net.phi_connect_fail_penalty = 0.0;
  net.dead_peer_probe_interval = Duration::millis(500);
  net.dead_letter_ttl = Duration::seconds(30.0);
  GoldenWorld w(net);
  const Address a = w.a();
  const Address b = w.b();

  netsim::ChaosSchedule chaos(w.network());
  chaos.partition_at(Duration::seconds(1.0), {{a.host}, {b.host}})
      .heal_at(Duration::seconds(8.0));
  chaos.arm();

  w.probe_a().send(ping(a, b, 1));
  w.run_for(Duration::seconds(1.0));
  for (std::uint64_t i = 0; i < 4; ++i) {
    w.probe_a().send_notified(chunk(a, b, 20000 * i, 20000));
  }
  w.run_for(Duration::seconds(1.6));
  w.probe_a().send(chunk(a, b, 900000, 5000));
  w.probe_a().send(chunk(a, b, 905000, 5000));
  w.run_for(Duration::seconds(3.9));
  w.probe_a().send_notified(chunk(a, b, 950000, 1000));
  w.probe_a().send(chunk(a, b, 960000, 1000));
  w.run_for(Duration::seconds(6.2));

  expect_golden(w.summary(), R"(
1000000000 A notify Sent TCP 20022
2400000000 A status TCP Healthy->Suspected suspicion
3900000000 A notify PeerFailed TCP 20024
3900000000 A notify PeerFailed TCP 20024
3900000000 A notify PeerFailed TCP 20024
3900000000 A status TCP Suspected->Dead reconnect-exhausted
3900000000 A status peer Healthy->Dead reconnect-exhausted
6500000000 A notify PeerFailed TCP 1023
8803000666 A status peer Dead->Recovering probe-succeeded
8806001665 A status peer Recovering->Healthy connected
A msgs sent=5 received=0 reflected=0 dropped=4 bytes_sent=31116 bytes_received=0
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=2 accepted=0 closed=3 reconnects=2
A health hb_sent=49 hb_received=47 suspected=0 died=1 recovered=1
A letters buffered=3 flushed=3 dropped=0
A fencing hellos_sent=2 hellos_received=0 restarts=0 fenced=0
A delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
A wire coalesced_frames=0 coalesced_msgs=0 bytes=32684
B msgs sent=0 received=4 reflected=0 dropped=0 bytes_sent=0 bytes_received=11094
B errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B sessions opened=0 accepted=3 closed=0 reconnects=0
B health hb_sent=47 hb_received=47 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=0 hellos_received=2 restarts=0 fenced=0
B delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B wire coalesced_frames=0 coalesced_msgs=0 bytes=0
)");
}

// B's process crashes with A's notified chunks still queued: A's phi
// detector times them out. Frames B sent just before the crash are held on
// a slow B->A path and arrive after B's next incarnation said hello, so A
// fences them. A fire-and-forget chunk parked while B was dead is flushed
// to the new incarnation.
TEST(MessagingGoldenTest, ReceiverCrashTimesOutFencesAndRestarts) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.tcp.send_buffer_bytes = 32 * 1024;
  net.dead_peer_probe_interval = Duration::millis(500);
  GoldenWorld w(net);
  const Address a = w.a();
  const Address b = w.b();

  w.probe_a().send(ping(a, b, 1));
  w.probe_b().send(ping(b, a, 1));  // hello: incarnation 1
  w.run_for(Duration::millis(900));

  netsim::Link& b_to_a = w.link(b, a);
  const Duration normal = b_to_a.config().propagation_delay;
  b_to_a.set_propagation_delay(Duration::seconds(3.0));
  w.probe_b().send(ping(b, a, 2));  // the zombie
  w.run_for(Duration::millis(50));
  b_to_a.set_propagation_delay(normal);
  w.crash_b();
  for (std::uint64_t i = 0; i < 3; ++i) {
    w.probe_a().send_notified(chunk(a, b, 20000 * i, 20000));
  }
  w.run_for(Duration::millis(1850));  // t = 2.8 s: B declared dead
  w.probe_a().send(chunk(a, b, 700000, 3000));  // parked as a dead letter
  w.run_for(Duration::millis(200));

  w.recover_b();  // t = 3.0 s
  w.probe_b().send(ping(b, a, 3));  // hello: incarnation 2
  w.run_for(Duration::seconds(3.0));  // zombies land at ~3.9 s

  expect_golden(w.summary(), R"(
950000000 A notify Sent TCP 20022
2100000000 A status peer Healthy->Suspected suspicion
2500000000 A notify TimedOut TCP 20024
2500000000 A notify TimedOut TCP 20024
2500000000 A status TCP Healthy->Dead suspicion-expired
2500000000 A status peer Suspected->Dead suspicion-expired
3003000666 A status peer Dead->Recovering probe-succeeded
3004501574 A restarted 1->2
3004501574 A status peer Recovering->Healthy peer-restarted
A msgs sent=3 received=2 reflected=0 dropped=2 bytes_sent=23070 bytes_received=50
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=2 accepted=2 closed=1 reconnects=0
A health hb_sent=76 hb_received=74 suspected=1 died=1 recovered=1
A letters buffered=1 flushed=1 dropped=0
A fencing hellos_sent=2 hellos_received=2 restarts=1 fenced=3
A delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
A wire coalesced_frames=0 coalesced_msgs=0 bytes=25432
B msgs sent=2 received=1 reflected=0 dropped=0 bytes_sent=50 bytes_received=25
B errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B sessions opened=1 accepted=1 closed=1 reconnects=0
B health hb_sent=18 hb_received=17 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=1 hellos_received=1 restarts=0 fenced=0
B delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B wire coalesced_frames=0 coalesced_msgs=0 bytes=635
B#2 msgs sent=1 received=1 reflected=0 dropped=0 bytes_sent=25 bytes_received=3023
B#2 errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B#2 sessions opened=1 accepted=2 closed=0 reconnects=0
B#2 health hb_sent=59 hb_received=58 suspected=0 died=0 recovered=0
B#2 letters buffered=0 flushed=0 dropped=0
B#2 fencing hellos_sent=1 hellos_received=1 restarts=0 fenced=0
B#2 delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B#2 wire coalesced_frames=0 coalesced_msgs=0 bytes=1832
)");
}

// Bit errors on a bulk TCP stream escape the transport and fail the frame
// CRC: B's decoder is poisoned, B aborts the connection, and A re-opens the
// session and replays its queued frames.
TEST(MessagingGoldenTest, CorruptBulkStreamAbortsAndReconnects) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.tcp.send_buffer_bytes = 64 * 1024;  // keep frames queued in the session
  GoldenWorld w(net);
  const Address a = w.a();
  const Address b = w.b();

  w.probe_a().send(ping(a, b, 1));
  w.run_for(Duration::seconds(1.0));
  netsim::Link& a_to_b = w.link(a, b);
  a_to_b.set_corrupt_rate(0.02);
  for (std::uint64_t burst = 0; burst < 10; ++burst) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint64_t offset = (burst * 8 + i) * 32000;
      if (i % 2 == 0) {
        w.probe_a().send_notified(chunk(a, b, offset, 32000));
      } else {
        w.probe_a().send(chunk(a, b, offset, 32000));
      }
    }
    w.run_for(Duration::millis(100));
  }
  // Pings on a drained session: an abort now finds nothing queued, so the
  // session just closes and the next ping opens a new one.
  w.run_for(Duration::seconds(1.0));
  a_to_b.set_corrupt_rate(0.1);
  for (std::uint64_t seq = 2; seq < 22; ++seq) {
    w.probe_a().send(ping(a, b, seq));
    w.run_for(Duration::millis(20));
  }
  a_to_b.set_corrupt_rate(0.0);
  w.run_for(Duration::seconds(1.0));

  expect_golden(w.summary(), R"(
1000000000 A notify Sent TCP 32022
1003269165 A notify Sent TCP 32024
1006332547 A notify Sent TCP 32024
1009395346 A notify Sent TCP 32024
1100000000 A notify Sent TCP 32024
1103269181 A notify Sent TCP 32024
1106332564 A notify Sent TCP 32024
1106601163 A status TCP Healthy->Suspected suspicion
1309601829 A status TCP Suspected->Healthy connected
1309601829 A notify Sent TCP 32024
1313139600 A notify Sent TCP 32024
1316202733 A notify Sent TCP 32024
1318996601 A status TCP Healthy->Suspected suspicion
1521997267 A status TCP Suspected->Healthy connected
1521997267 A notify Sent TCP 32024
1525535038 A notify Sent TCP 32024
1528598171 A notify Sent TCP 32024
1531661304 A notify Sent TCP 32024
1534717170 A notify Sent TCP 32024
1537787236 A notify Sent TCP 32024
1540850369 A status TCP Healthy->Suspected suspicion
1743851035 A status TCP Suspected->Healthy connected
1743851035 A notify Sent TCP 32024
1747119966 A notify Sent TCP 32024
1750183007 A notify Sent TCP 32024
1750451939 A status TCP Healthy->Suspected suspicion
1953452605 A status TCP Suspected->Healthy connected
1953452605 A notify Sent TCP 32024
1956990376 A notify Sent TCP 32024
1960053509 A notify Sent TCP 32024
1963116642 A notify Sent TCP 32024
1966172508 A notify Sent TCP 32024
1969242574 A notify Sent TCP 32024
1972305707 A status TCP Healthy->Suspected suspicion
2175306373 A status TCP Suspected->Healthy connected
2175306373 A notify Sent TCP 32024
2178575304 A notify Sent TCP 32024
2178844144 A status TCP Healthy->Suspected suspicion
2381844810 A status TCP Suspected->Healthy connected
2381844810 A notify Sent TCP 32024
2385382581 A notify Sent TCP 32024
2388445714 A status TCP Healthy->Suspected suspicion
2591446380 A status TCP Suspected->Healthy connected
2591446380 A notify Sent TCP 32024
2594715311 A notify Sent TCP 32024
2597778352 A notify Sent TCP 32024
2600841152 A status TCP Healthy->Suspected suspicion
2803841818 A status TCP Suspected->Healthy connected
2803841818 A notify Sent TCP 32024
2807110749 A notify Sent TCP 32025
2810173799 A notify Sent TCP 32025
2813236615 A status TCP Healthy->Suspected suspicion
3016237281 A status TCP Suspected->Healthy connected
3016237281 A notify Sent TCP 32025
3019506221 A notify Sent TCP 32025
3022569278 A notify Sent TCP 32025
3025632094 A notify Sent TCP 32025
3028687344 A notify Sent TCP 32025
A msgs sent=101 received=0 reflected=0 dropped=0 bytes_sent=2562457 bytes_received=0
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=6 accepted=0 closed=14 reconnects=9
A health hb_sent=24 hb_received=23 suspected=0 died=0 recovered=0
A letters buffered=0 flushed=0 dropped=0
A fencing hellos_sent=15 hellos_received=0 restarts=0 fenced=0
A delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
A wire coalesced_frames=0 coalesced_msgs=0 bytes=2564420
B msgs sent=0 received=78 reflected=0 dropped=0 bytes_sent=0 bytes_received=1985898
B errors serialize=0 deserialize=0 corrupt=14 overflow=0 unsupported=0
B sessions opened=0 accepted=15 closed=0 reconnects=0
B health hb_sent=23 hb_received=23 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=0 hellos_received=15 restarts=0 fenced=0
B delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B wire coalesced_frames=0 coalesced_msgs=0 bytes=0
)");
}

// A's NetworkComponent is killed with notified chunks still queued behind a
// small send buffer: teardown answers each queued notify and aborts the
// session, and B reaps the connection.
TEST(MessagingGoldenTest, SenderKillFailsQueuedNotifies) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.tcp.send_buffer_bytes = 32 * 1024;
  GoldenWorld w(net);
  const Address a = w.a();
  const Address b = w.b();

  w.probe_a().send(ping(a, b, 1));
  w.run_for(Duration::millis(500));
  for (std::uint64_t i = 0; i < 5; ++i) {
    w.probe_a().send_notified(chunk(a, b, 20000 * i, 20000));
  }
  w.probe_a().send(chunk(a, b, 100000, 20000));
  w.run_for(Duration::millis(1));
  w.system().kill(w.net_a());
  w.run_for(Duration::seconds(1.0));

  expect_golden(w.summary(), R"(
500000000 A notify Sent TCP 20022
501000000 A notify Failed TCP 20024
501000000 A notify Failed TCP 20024
501000000 A notify Failed TCP 20024
501000000 A notify Failed TCP 20024
A msgs sent=2 received=0 reflected=0 dropped=5 bytes_sent=20047 bytes_received=0
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=1 accepted=0 closed=1 reconnects=0
A health hb_sent=5 hb_received=4 suspected=0 died=0 recovered=0
A letters buffered=0 flushed=0 dropped=0
A fencing hellos_sent=1 hellos_received=0 restarts=0 fenced=0
A delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
A wire coalesced_frames=0 coalesced_msgs=0 bytes=20242
B msgs sent=0 received=2 reflected=0 dropped=0 bytes_sent=0 bytes_received=20047
B errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B sessions opened=0 accepted=1 closed=0 reconnects=0
B health hb_sent=5 hb_received=5 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=0 hellos_received=1 restarts=0 fenced=0
B delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B wire coalesced_frames=0 coalesced_msgs=0 bytes=0
)");
}

// Delta encoding and coalescing on both hosts. B learns the telemetry
// schema only after A's first keyframe went by, so B holds no base for the
// diffs that follow: it drops them and asks A for a keyframe, and the
// stream recovers.
TEST(MessagingGoldenTest, LostDeltaBaseSendsReset) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.enable_delta = true;
  net.enable_coalescing = true;
  GoldenWorld w(net);
  apps::register_app_delta_schemas(w.registry_a());
  const Address a = w.a();
  const Address b = w.b();

  w.probe_a().send(telemetry(a, b, 0));
  w.run_for(Duration::millis(100));
  apps::register_app_delta_schemas(w.registry_b());
  std::uint64_t seq = 1;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 6; ++i) w.probe_a().send(telemetry(a, b, seq++));
    w.probe_a().send_notified(telemetry(a, b, seq++));
    w.run_for(Duration::millis(100));
  }
  w.run_for(Duration::seconds(1.0));

  expect_golden(w.summary(), R"(
100500000 A notify Sent TCP 91
200500000 A notify Sent TCP 91
300500000 A notify Sent TCP 91
400500000 A notify Sent TCP 91
A msgs sent=29 received=0 reflected=0 dropped=0 bytes_sent=2639 bytes_received=0
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=1 accepted=1 closed=0 reconnects=0
A health hb_sent=28 hb_received=27 suspected=0 died=0 recovered=0
A letters buffered=0 flushed=0 dropped=0
A fencing hellos_sent=1 hellos_received=1 restarts=0 fenced=0
A delta sent=27 keyframes=31 saved=1898 received=0 resets_sent=0 resets_received=7
A wire coalesced_frames=5 coalesced_msgs=30 bytes=1730
B msgs sent=0 received=22 reflected=0 dropped=0 bytes_sent=0 bytes_received=2002
B errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B sessions opened=1 accepted=1 closed=0 reconnects=0
B health hb_sent=28 hb_received=27 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=1 hellos_received=1 restarts=0 fenced=0
B delta sent=0 keyframes=35 saved=0 received=20 resets_sent=7 resets_received=0
B wire coalesced_frames=1 coalesced_msgs=8 bytes=1029
)");
}

// An idle outbound session outlives idle_session_timeout and is closed; the
// next message opens a fresh one. While the session lives, B answers A's
// heartbeats down the connection A opened.
TEST(MessagingGoldenTest, IdleSessionIsReclaimedAndReopened) {
  test::set_repro_seed(42);
  NetworkConfig net;
  net.idle_session_timeout = Duration::millis(500);
  GoldenWorld w(net);
  const Address a = w.a();
  const Address b = w.b();

  w.probe_a().send_notified(ping(a, b, 1));
  w.run_for(Duration::seconds(2.0));
  w.probe_a().send_notified(ping(a, b, 2));
  w.run_for(Duration::millis(300));

  expect_golden(w.summary(), R"(
3000666 A notify Sent TCP 25
2003000666 A notify Sent TCP 25
A msgs sent=2 received=0 reflected=0 dropped=0 bytes_sent=50 bytes_received=0
A errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
A sessions opened=2 accepted=0 closed=1 reconnects=0
A health hb_sent=8 hb_received=7 suspected=0 died=0 recovered=0
A letters buffered=0 flushed=0 dropped=0
A fencing hellos_sent=2 hellos_received=0 restarts=0 fenced=0
A delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
A wire coalesced_frames=0 coalesced_msgs=0 bytes=364
B msgs sent=0 received=2 reflected=0 dropped=0 bytes_sent=0 bytes_received=50
B errors serialize=0 deserialize=0 corrupt=0 overflow=0 unsupported=0
B sessions opened=0 accepted=2 closed=0 reconnects=0
B health hb_sent=7 hb_received=7 suspected=0 died=0 recovered=0
B letters buffered=0 flushed=0 dropped=0
B fencing hellos_sent=0 hellos_received=2 restarts=0 fenced=0
B delta sent=0 keyframes=0 saved=0 received=0 resets_sent=0 resets_received=0
B wire coalesced_frames=0 coalesced_msgs=0 bytes=0
)");
}

}  // namespace
}  // namespace kmsg::messaging
