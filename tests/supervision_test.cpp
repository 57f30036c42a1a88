// Channel-supervision tests: peer-health FSM driven by heartbeat phi accrual
// and transport-level failures, dead-letter delivery semantics, backpressure
// at the session queue cap, transport fallback in the adaptive interceptor,
// and the deterministic acceptance scenario (seeded partition; every
// notify-requested message is eventually answered; the peer returns to
// Healthy after the heal).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/messages.hpp"
#include "netsim/chaos.hpp"
#include "chaos_repro.hpp"

namespace kmsg::messaging {
namespace {

using apps::DataChunkMsg;
using apps::PingMsg;

/// Collects everything the Network port indicates: messages, notify
/// responses (with their delivery status) and supervision transitions.
class SupProbe final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<Network>();
    subscribe_ptr<Msg>(*net_, [this](MsgPtr m) {
      messages.push_back(std::move(m));
    });
    subscribe<MessageNotifyResp>(*net_, [this](const MessageNotifyResp& r) {
      responses.emplace_back(r.id, r.status);
    });
    subscribe<ConnectionStatus>(*net_, [this](const ConnectionStatus& cs) {
      transitions.push_back(cs);
    });
  }
  kompics::PortInstance& network() { return *net_; }
  void send(MsgPtr m) { trigger(std::move(m), *net_); }
  void send_notified(MsgPtr m, NotifyId id) {
    trigger(kompics::make_event<MessageNotifyReq>(std::move(m), id), *net_);
  }

  std::size_t count_status(DeliveryStatus s) const {
    std::size_t n = 0;
    for (const auto& [id, st] : responses) {
      if (st == s) ++n;
    }
    return n;
  }
  /// Peer-scope (transport == nullopt) transition into `state` for `reason`.
  bool saw_peer_transition(PeerHealth state, HealthReason reason) const {
    for (const auto& t : transitions) {
      if (!t.transport && t.new_state == state && t.reason == reason) {
        return true;
      }
    }
    return false;
  }
  std::size_t count_via(Transport t) const {
    std::size_t n = 0;
    for (const auto& m : messages) {
      if (m->header().protocol() == t) ++n;
    }
    return n;
  }

  std::vector<MsgPtr> messages;
  std::vector<std::pair<NotifyId, DeliveryStatus>> responses;
  std::vector<ConnectionStatus> transitions;

 private:
  kompics::PortInstance* net_ = nullptr;
};

/// A message type no serializer was registered for; sending it must answer
/// the notify with Failed instead of wedging the session.
class UnregisteredMsg final : public Msg {
 public:
  explicit UnregisteredMsg(BasicHeader h) : header_(h) {}
  const Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return 0x7A7A7A7A; }

 private:
  BasicHeader header_;
};

struct SupervisionFixture : ::testing::Test {
  std::unique_ptr<apps::TwoNodeExperiment> exp;
  SupProbe* probe_a = nullptr;
  SupProbe* probe_b = nullptr;

  void build(apps::ExperimentConfig cfg) {
    exp = std::make_unique<apps::TwoNodeExperiment>(cfg);
    probe_a = &exp->system().create<SupProbe>("sup_probe_a");
    probe_b = &exp->system().create<SupProbe>("sup_probe_b");
    exp->connect_a(probe_a->network());
    exp->connect_b(probe_b->network());
    exp->start();
  }

  MsgPtr chunk(Transport proto, std::uint64_t offset, std::size_t len) {
    DataHeader h = (proto == Transport::kData)
                       ? DataHeader{exp->addr_a(), exp->addr_b()}
                       : DataHeader{exp->addr_a(), exp->addr_b(), proto};
    return kompics::make_event<DataChunkMsg>(
        h, 1, offset, apps::make_payload_slice(offset, len), false);
  }
  MsgPtr ping(std::uint64_t seq,
              Transport proto = Transport::kTcp) {
    BasicHeader h{exp->addr_a(), exp->addr_b(), proto};
    return kompics::make_event<PingMsg>(h, seq, 0);
  }
};

// After the established channel collapses mid-partition and every reconnect
// attempt fails, the peer must be declared Dead (reconnect-exhausted):
// notify-requested queued messages answered PeerFailed, fire-and-forget ones
// parked as dead letters, session queues fully drained. After the heal the
// probe cycle detects life, dead letters flush to the peer, and the FSM
// walks Dead -> Recovering -> Healthy.
TEST_F(SupervisionFixture, ReconnectExhaustionDeclaresPeerDeadAndHealRecovers) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.tcp.initial_rto = Duration::millis(200);
  cfg.net.tcp.max_syn_retries = 1;
  cfg.net.tcp.max_data_retries = 2;
  cfg.net.tcp.send_buffer_bytes = 32 * 1024;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  // Keep phi quiet so the transport-exhaustion path drives the FSM.
  cfg.net.phi.acceptable_pause = Duration::seconds(30.0);
  cfg.net.phi_connect_fail_penalty = 0.0;
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  cfg.net.dead_letter_ttl = Duration::seconds(30.0);
  build(cfg);

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::seconds(1.0),
                     {{exp->addr_a().host}, {exp->addr_b().host}})
      .heal_at(Duration::seconds(8.0));
  chaos.arm();

  probe_a->send(ping(1));
  exp->run_for(Duration::seconds(1.0));  // channel established, then cut

  // Stuff the channel: 20 kB chunks exceed the 32 kB transport buffer so
  // some frames are still queued when the connection dies.
  std::vector<NotifyId> partition_ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = next_notify_id();
    partition_ids.push_back(id);
    probe_a->send_notified(chunk(Transport::kTcp, 20000u * i, 20000), id);
  }
  exp->run_for(Duration::seconds(1.6));  // connection torn down, reconnecting
  probe_a->send(chunk(Transport::kTcp, 900000, 5000));  // -> dead letters
  probe_a->send(chunk(Transport::kTcp, 905000, 5000));
  exp->run_for(Duration::seconds(3.9));  // t = 6.5 s: reconnects exhausted

  auto& net_a = exp->network_a();
  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kDead);
  EXPECT_EQ(net_a.queued_bytes_total(), 0u) << "dead peer leaked queue bytes";
  EXPECT_EQ(net_a.session_count(), 0u);
  EXPECT_TRUE(probe_a->saw_peer_transition(PeerHealth::kDead,
                                           HealthReason::kReconnectExhausted));
  EXPECT_GE(probe_a->count_status(DeliveryStatus::kPeerFailed), 1u);
  // Every notify-requested message sent into the partition is answered.
  EXPECT_EQ(probe_a->responses.size(), partition_ids.size());
  EXPECT_GE(net_a.net_stats().dead_letters_buffered, 2u);

  // While Dead: notifies fail fast, fire-and-forget parks another letter.
  const auto late_id = next_notify_id();
  probe_a->send_notified(chunk(Transport::kTcp, 950000, 1000), late_id);
  probe_a->send(chunk(Transport::kTcp, 960000, 1000));
  exp->run_for(Duration::millis(200));
  bool late_failed = false;
  for (const auto& [id, st] : probe_a->responses) {
    if (id == late_id) late_failed = (st == DeliveryStatus::kPeerFailed);
  }
  EXPECT_TRUE(late_failed);
  EXPECT_GE(net_a.net_stats().dead_letters_buffered, 3u);

  const std::size_t msgs_at_b_before_heal = probe_b->messages.size();
  exp->run_for(Duration::seconds(6.0));  // across the heal + probe + flush

  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kHealthy);
  EXPECT_TRUE(probe_a->saw_peer_transition(PeerHealth::kRecovering,
                                           HealthReason::kProbeSucceeded));
  EXPECT_GE(net_a.net_stats().peers_recovered, 1u);
  EXPECT_GE(net_a.net_stats().dead_letters_flushed, 3u);
  EXPECT_EQ(net_a.dead_letter_bytes_total(), 0u);
  EXPECT_GT(probe_b->messages.size(), msgs_at_b_before_heal)
      << "flushed dead letters never reached the peer";
}

// With transport retries too patient to notice, the heartbeat stream going
// silent must drive the phi detector through Suspected into Dead
// (suspicion-expired) and answer still-queued notifies with TimedOut.
TEST_F(SupervisionFixture, PhiSuspicionTimesOutQueuedMessages) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.tcp.send_buffer_bytes = 32 * 1024;  // keep frames queued
  build(cfg);  // default phi: suspect ~1.3 s, dead ~1.8 s of true silence

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::seconds(1.0),
                     {{exp->addr_a().host}, {exp->addr_b().host}});
  chaos.arm();

  probe_a->send(ping(1));
  exp->run_for(Duration::seconds(1.0));  // heartbeats flowing, then silence

  std::vector<NotifyId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto id = next_notify_id();
    ids.push_back(id);
    probe_a->send_notified(chunk(Transport::kTcp, 20000u * i, 20000), id);
  }
  exp->run_for(Duration::seconds(5.0));

  auto& net_a = exp->network_a();
  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kDead);
  EXPECT_TRUE(probe_a->saw_peer_transition(PeerHealth::kSuspected,
                                           HealthReason::kSuspicion));
  EXPECT_TRUE(probe_a->saw_peer_transition(PeerHealth::kDead,
                                           HealthReason::kSuspicionExpired));
  EXPECT_EQ(probe_a->responses.size(), ids.size());
  EXPECT_GE(probe_a->count_status(DeliveryStatus::kTimedOut), 1u);
  EXPECT_EQ(net_a.queued_bytes_total(), 0u);
  const auto& st = net_a.net_stats();
  EXPECT_GE(st.peers_suspected, 1u);
  EXPECT_GE(st.peers_died, 1u);
  EXPECT_GT(st.heartbeats_sent, 0u);
  EXPECT_GT(st.heartbeats_received, 0u);
}

/// Occurrences of a DataChunkMsg with the given offset among a probe's
/// received messages (for exactly-once dead-letter replay assertions).
std::size_t count_chunks_at(const SupProbe& p, std::uint64_t offset) {
  std::size_t n = 0;
  for (const auto& m : p.messages) {
    const auto* c = dynamic_cast<const DataChunkMsg*>(m.get());
    if (c != nullptr && c->offset() == offset) ++n;
  }
  return n;
}

// Dead-letter overflow: when parked letters exceed the buffer cap, the
// OLDEST are evicted (and counted dropped); the flush after recovery replays
// exactly the surviving letters once each — evicted ones stay gone.
TEST_F(SupervisionFixture, DeadLetterOverflowEvictsOldestFirst) {
  kmsg::test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.tcp.initial_rto = Duration::millis(200);
  cfg.net.tcp.max_syn_retries = 1;
  cfg.net.tcp.max_data_retries = 2;
  cfg.net.tcp.send_buffer_bytes = 32 * 1024;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.phi.acceptable_pause = Duration::seconds(30.0);
  cfg.net.phi_connect_fail_penalty = 0.0;
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  cfg.net.dead_letter_ttl = Duration::seconds(30.0);
  // Room for roughly three of the 1 kB letters below — the other three must
  // be evicted oldest-first.
  cfg.net.dead_letter_limit_bytes = 3500;
  build(cfg);

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::seconds(1.0),
                     {{exp->addr_a().host}, {exp->addr_b().host}})
      .heal_at(Duration::seconds(8.0));
  chaos.arm();

  probe_a->send(ping(1));
  exp->run_for(Duration::seconds(1.0));
  // Stuff the channel with notify-requested chunks only: they are answered
  // PeerFailed at death, never parked, so the letter buffer holds exactly
  // the fire-and-forget chunks sent below.
  for (int i = 0; i < 4; ++i) {
    probe_a->send_notified(chunk(Transport::kTcp, 20000u * i, 20000),
                           next_notify_id());
  }
  exp->run_for(Duration::seconds(5.5));  // t = 6.5 s: reconnects exhausted

  auto& net_a = exp->network_a();
  ASSERT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kDead);

  // Six 1 kB fire-and-forget chunks into the dead peer: roughly double the
  // letter cap, so parking must evict from the oldest end.
  const std::uint64_t kBase = 777000;
  for (int i = 0; i < 6; ++i) {
    probe_a->send(chunk(Transport::kTcp, kBase + 1000u * i, 1000));
  }
  exp->run_for(Duration::millis(200));
  EXPECT_GE(net_a.net_stats().dead_letters_dropped, 1u);
  EXPECT_LE(net_a.dead_letter_bytes_total(), 3500u);

  exp->run_for(Duration::seconds(5.0));  // across the heal + probe + flush

  const auto& st = net_a.net_stats();
  const std::uint64_t dropped = st.dead_letters_dropped;
  EXPECT_EQ(dropped + st.dead_letters_flushed, 6u)
      << "every letter must be either evicted or flushed, exactly once";
  EXPECT_GE(dropped, 1u);
  EXPECT_LT(dropped, 6u) << "the cap should have kept at least one letter";
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::size_t copies = count_chunks_at(*probe_b, kBase + 1000u * i);
    if (i < dropped) {
      EXPECT_EQ(copies, 0u) << "evicted letter " << i << " was replayed";
    } else {
      EXPECT_EQ(copies, 1u) << "surviving letter " << i
                            << " lost or duplicated";
    }
  }
  EXPECT_EQ(net_a.dead_letter_bytes_total(), 0u);
  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kHealthy);
}

// Regression for the mid-flush re-failure path: when a dead-letter flush
// pushes letters into a channel that immediately fails again, the letters
// must be re-parked — not lost, not duplicated — and retried on the next
// sign of life. A UDP blackhole makes this deterministic: the UDT letters
// bounce through park -> flush -> channel-death -> re-park cycles for
// seconds (the peer stays Healthy via TCP heartbeats the whole time), then
// deliver exactly once when the blackhole lifts.
TEST_F(SupervisionFixture, DeadLetterFlushReparksWhenChannelStaysDown) {
  kmsg::test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.udt.handshake_retries = 2;  // UDT connects fail fast
  cfg.net.session_reconnect_attempts = 1;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.phi.acceptable_pause = Duration::seconds(30.0);
  cfg.net.phi_connect_fail_penalty = 0.0;
  cfg.net.dead_letter_ttl = Duration::seconds(30.0);
  build(cfg);

  netsim::ChaosSchedule chaos(exp->network());
  chaos.block_udp_at(Duration::millis(500), exp->addr_a().host,
                     exp->addr_b().host, true)
      .block_udp_at(Duration::seconds(4.0), exp->addr_a().host,
                    exp->addr_b().host, false);
  chaos.arm();

  probe_a->send(ping(1));  // TCP session: continuous heartbeat evidence
  exp->run_for(Duration::seconds(1.0));

  const std::uint64_t kBase = 600000;
  for (int i = 0; i < 3; ++i) {
    probe_a->send(chunk(Transport::kUdt, kBase + 1000u * i, 800));
  }
  exp->run_for(Duration::seconds(3.0));  // t = 4.0 s: flush/re-fail cycles

  auto& net_a = exp->network_a();
  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kHealthy);
  EXPECT_GE(net_a.net_stats().dead_letters_buffered, 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(count_chunks_at(*probe_b, kBase + 1000u * i), 0u)
        << "letter crossed a blackholed channel";
  }

  exp->run_for(Duration::seconds(3.0));  // t = 7.0 s: blackhole lifted at 4.0

  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(count_chunks_at(*probe_b, kBase + 1000u * i), 1u)
        << "re-parked letter " << i << " lost or duplicated";
  }
  EXPECT_EQ(net_a.dead_letter_bytes_total(), 0u);
  EXPECT_GE(net_a.net_stats().dead_letters_flushed, 3u);
  // Channel-level UDT death and the flush/re-park cycles must never
  // escalate to peer scope while TCP evidence keeps flowing.
  for (const auto& t : probe_a->transitions) {
    if (!t.transport) {
      EXPECT_NE(t.new_state, PeerHealth::kDead)
          << "peer declared dead despite a live TCP channel";
    }
  }
}

// Backpressure at the session queue cap: during a partition a 64 KiB cap
// holds four 16 kB chunks; the notified chunks past it wait unanswered, the
// capped queue never exceeds the cap, and after the heal every notify is
// answered Sent exactly once, in submission order, with each chunk
// delivered once and in order.
TEST_F(SupervisionFixture, NotifiedOverflowWaitsAndIsSentInOrderAfterHeal) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.session_queue_limit_bytes = 64 * 1024;
  cfg.net.tcp.initial_rto = Duration::millis(200);  // SYN retried at 200 ms
  build(cfg);

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::zero(),
                     {{exp->addr_a().host}, {exp->addr_b().host}})
      .heal_at(Duration::millis(150));
  chaos.arm();
  exp->run_for(Duration::millis(1));  // partition in force before any send

  std::vector<NotifyId> ids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ids.push_back(next_notify_id());
    probe_a->send_notified(chunk(Transport::kTcp, 16000u * i, 16000),
                           ids.back());
  }
  auto& net_a = exp->network_a();
  std::size_t peak_queued = 0;
  for (int step = 0; step < 300; ++step) {  // 3 s in 10 ms steps
    exp->run_for(Duration::millis(10));
    peak_queued = std::max(peak_queued, net_a.queued_bytes_total());
    if (step == 10) {  // t = 111 ms: still partitioned
      EXPECT_TRUE(probe_a->responses.empty())
          << "a waiting chunk was answered before it was written";
      EXPECT_GT(net_a.queued_bytes_total(), 3u * 16000u);
    }
  }

  EXPECT_LE(peak_queued, 64u * 1024u);
  ASSERT_EQ(probe_a->responses.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(probe_a->responses[i].first, ids[i]) << "answer " << i;
    EXPECT_EQ(probe_a->responses[i].second, DeliveryStatus::kSent)
        << "answer " << i;
  }
  ASSERT_EQ(probe_b->messages.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto* c = dynamic_cast<const DataChunkMsg*>(probe_b->messages[i].get());
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->offset(), 16000u * i) << "chunk " << i << " out of order";
  }
  const auto& st = net_a.net_stats();
  EXPECT_EQ(st.queue_overflow, 0u);
  EXPECT_EQ(st.msgs_sent, ids.size());
  EXPECT_EQ(net_a.queued_bytes_total(), 0u);
}

// If the partition outlasts supervision and the peer is declared Dead, every
// waiting notify is answered exactly once, TimedOut or PeerFailed, and the
// session leaves nothing behind.
TEST_F(SupervisionFixture, WaitingNotifiesAnsweredOnceWhenPeerDies) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.session_queue_limit_bytes = 64 * 1024;
  build(cfg);  // default phi: Dead ~1.8 s into the silence

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::zero(),
                     {{exp->addr_a().host}, {exp->addr_b().host}});
  chaos.arm();
  exp->run_for(Duration::millis(1));

  std::set<NotifyId> ids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto id = next_notify_id();
    ids.insert(id);
    probe_a->send_notified(chunk(Transport::kTcp, 16000u * i, 16000), id);
  }
  exp->run_for(Duration::seconds(5.0));

  auto& net_a = exp->network_a();
  EXPECT_EQ(net_a.peer_health(exp->addr_b()), PeerHealth::kDead);
  ASSERT_EQ(probe_a->responses.size(), ids.size());
  std::set<NotifyId> answered;
  for (const auto& [id, status] : probe_a->responses) {
    EXPECT_TRUE(ids.count(id)) << "answer for an unknown notify " << id;
    EXPECT_TRUE(answered.insert(id).second) << "notify " << id
                                            << " answered twice";
    EXPECT_TRUE(status == DeliveryStatus::kTimedOut ||
                status == DeliveryStatus::kPeerFailed)
        << "notify " << id << " answered " << to_string(status);
  }
  EXPECT_EQ(net_a.net_stats().queue_overflow, 0u);
  EXPECT_EQ(net_a.queued_bytes_total(), 0u);
  EXPECT_EQ(net_a.session_count(), 0u);
}

// Fire-and-forget messages past the cap are still dropped and counted: no
// sender bounds them. One that fits enters at once, passing the notified
// chunks waiting for room.
TEST_F(SupervisionFixture, FireAndForgetOverflowDropsAndCounts) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.session_queue_limit_bytes = 64 * 1024;
  cfg.net.tcp.initial_rto = Duration::millis(200);
  build(cfg);

  netsim::ChaosSchedule chaos(exp->network());
  chaos.partition_at(Duration::zero(),
                     {{exp->addr_a().host}, {exp->addr_b().host}})
      .heal_at(Duration::millis(150));
  chaos.arm();
  exp->run_for(Duration::millis(1));

  // Four notified chunks fill the queue, two more wait.
  for (std::uint64_t i = 0; i < 6; ++i) {
    probe_a->send_notified(chunk(Transport::kTcp, 16000u * i, 16000),
                           next_notify_id());
  }
  probe_a->send(ping(1));  // fits in the slack under the cap
  for (std::uint64_t i = 6; i < 9; ++i) {
    probe_a->send(chunk(Transport::kTcp, 16000u * i, 16000));
  }
  exp->run_for(Duration::millis(100));

  auto& net_a = exp->network_a();
  EXPECT_EQ(net_a.net_stats().queue_overflow, 3u);
  EXPECT_LE(net_a.queued_bytes_total(), 64u * 1024u);
  EXPECT_TRUE(probe_a->responses.empty());

  exp->run_for(Duration::seconds(3.0));
  EXPECT_EQ(probe_a->count_status(DeliveryStatus::kSent), 6u);
  EXPECT_EQ(probe_a->responses.size(), 6u);
  EXPECT_EQ(net_a.net_stats().queue_overflow, 3u);
  // B sees chunks 0-3, the ping, then the two chunks that waited.
  std::vector<std::string> order;
  for (const auto& m : probe_b->messages) {
    if (const auto* c = dynamic_cast<const DataChunkMsg*>(m.get())) {
      order.push_back(std::to_string(c->offset() / 16000u));
    } else if (dynamic_cast<const PingMsg*>(m.get()) != nullptr) {
      order.push_back("ping");
    }
  }
  EXPECT_EQ(order, (std::vector<std::string>{"0", "1", "2", "3", "ping", "4",
                                             "5"}));
}

// A default DataSource keeps 96 chunks (6.2 MB) outstanding against the
// 4 MiB session queue. A 4 MiB transfer over TCP must finish without a
// single refusal: no queue_overflow on either side, no Failed answer, and
// every chunk sent and received exactly once, intact.
TEST(BackpressureTest, DefaultWindowTransferNeverOverflows) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig src_cfg;
  src_cfg.self = exp.addr_a();
  src_cfg.dst = exp.addr_b();
  src_cfg.total_bytes = 4 * 1024 * 1024;
  src_cfg.protocol = Transport::kTcp;
  auto& source = exp.system().create<apps::DataSource>("source", src_cfg);
  apps::DataSinkConfig sink_cfg;
  sink_cfg.self = exp.addr_b();
  sink_cfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", sink_cfg);
  auto& probe_a = exp.system().create<SupProbe>("probe_a");
  auto& probe_b = exp.system().create<SupProbe>("probe_b");
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b.network());
  exp.start();

  for (int s = 0; s < 60 && !source.finished(); ++s) {
    exp.run_for(Duration::seconds(1.0));
  }
  ASSERT_TRUE(source.finished());

  const std::uint64_t chunks =
      (src_cfg.total_bytes + src_cfg.chunk_bytes - 1) / src_cfg.chunk_bytes;
  EXPECT_EQ(exp.network_a().net_stats().queue_overflow, 0u);
  EXPECT_EQ(exp.network_b().net_stats().queue_overflow, 0u);
  EXPECT_EQ(probe_a.count_status(DeliveryStatus::kFailed), 0u);
  EXPECT_EQ(probe_a.count_status(DeliveryStatus::kSent), chunks);
  EXPECT_EQ(exp.network_a().net_stats().msgs_sent, chunks);
  EXPECT_EQ(sink.chunks_received(), chunks);
  EXPECT_EQ(sink.bytes_received(), src_cfg.total_bytes);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);
  std::map<std::uint64_t, int> seen;
  for (const auto& m : probe_b.messages) {
    if (const auto* c = dynamic_cast<const DataChunkMsg*>(m.get())) {
      ++seen[c->offset()];
    }
  }
  ASSERT_EQ(seen.size(), chunks);
  for (const auto& [offset, n] : seen) {
    EXPECT_EQ(n, 1) << "chunk at offset " << offset;
  }
}

// A heartbeat echo written down an accepted connection is all or nothing. B
// has no session back to A, so it answers A's pings on the connection A
// opened. With a 101-byte send buffer and B->A TCP blocked, the echoes pile
// up unacked; a short write would leave a frame prefix on the stream, and
// A's decoder would read the next frame as its rest once the link reopens.
TEST_F(SupervisionFixture, HeartbeatEchoNeverLeavesHalfAFrame) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.net.tcp.send_buffer_bytes = 101;
  build(cfg);

  probe_a->send(ping(1));
  exp->run_for(Duration::seconds(1.0));
  netsim::Link* b_to_a =
      exp->network().link(exp->addr_b().host, exp->addr_a().host);
  ASSERT_NE(b_to_a, nullptr);
  b_to_a->set_block_tcp(true);
  exp->run_for(Duration::millis(500));
  b_to_a->set_block_tcp(false);
  exp->run_for(Duration::seconds(2.0));

  const auto& st = exp->network_a().net_stats();
  EXPECT_GT(exp->network_b().net_stats().heartbeats_sent, 0u);
  EXPECT_EQ(st.frames_corrupt, 0u) << "an echo left half a frame on the stream";
  EXPECT_EQ(st.sessions_closed, 0u);
  EXPECT_EQ(exp->network_a().session_count(), 1u);
}

// Satellite (b): serialisation failures and nonsense transports answer the
// notify with Failed (and count) rather than silently dropping or crashing.
TEST_F(SupervisionFixture, SerializeFailureAndUnsupportedTransportAnswer) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  build(cfg);

  const auto unreg_id = next_notify_id();
  probe_a->send_notified(
      kompics::make_event<UnregisteredMsg>(
          BasicHeader{exp->addr_a(), exp->addr_b(), Transport::kTcp}),
      unreg_id);

  const auto bogus_id = next_notify_id();
  BasicHeader bogus{exp->addr_a(), exp->addr_b(),
                    static_cast<Transport>(9)};
  probe_a->send_notified(kompics::make_event<PingMsg>(bogus, 1, 0), bogus_id);

  exp->run_for(Duration::millis(500));

  std::map<NotifyId, DeliveryStatus> by_id(probe_a->responses.begin(),
                                           probe_a->responses.end());
  ASSERT_TRUE(by_id.count(unreg_id));
  ASSERT_TRUE(by_id.count(bogus_id));
  EXPECT_EQ(by_id[unreg_id], DeliveryStatus::kFailed);
  EXPECT_EQ(by_id[bogus_id], DeliveryStatus::kFailed);
  const auto& st = exp->network_a().net_stats();
  EXPECT_GE(st.serialize_failures, 1u);
  EXPECT_GE(st.unsupported_transport, 1u);
}

// Satellite (d): a UDP blackhole kills only the UDT channel. The interceptor
// must blacklist UDT on the channel-Dead indication and pin DATA to TCP; when
// the blackhole lifts, a probation retry re-opens UDT and the ratio recovers.
TEST(SupervisionFallbackTest, InterceptorFallsBackToTcpDuringUdtBlackhole) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.use_data_network = true;
  cfg.data.prp_kind = adaptive::PrpKind::kStatic;
  cfg.data.static_prob_udt = 0.5;
  cfg.data.initial_prob_udt = 0.5;
  cfg.data.fallback_probation = Duration::seconds(2.0);
  cfg.net.udt.max_exp_events = 4;       // UDT channel dies ~2 s into silence
  cfg.net.udt.handshake_retries = 2;    // and reconnects fail fast
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig src_cfg;
  src_cfg.self = exp.addr_a();
  src_cfg.dst = exp.addr_b();
  src_cfg.total_bytes = 0;  // stream
  src_cfg.chunk_bytes = 10000;
  src_cfg.window_chunks = 16;
  auto& source = exp.system().create<apps::DataSource>("source", src_cfg);
  apps::DataSinkConfig sink_cfg;
  sink_cfg.self = exp.addr_b();
  sink_cfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", sink_cfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.start();

  netsim::ChaosSchedule chaos(exp.network());
  chaos.block_udp_at(Duration::seconds(2.0), exp.addr_a().host,
                     exp.addr_b().host, true)
      .block_udp_at(Duration::seconds(9.0), exp.addr_a().host,
                    exp.addr_b().host, false);
  chaos.arm();

  exp.run_for(Duration::seconds(2.0));
  EXPECT_GT(sink.chunks_via(messaging::Transport::kUdt), 0u);
  EXPECT_GT(sink.chunks_via(messaging::Transport::kTcp), 0u);

  // Through the blackhole: the UDT channel needs EXP events + failed
  // reconnects to be declared dead (~4 s), then the blacklist engages.
  bool udt_blacklisted_seen = false;
  std::uint64_t udt_frozen = 0, tcp_mid = 0;
  for (int i = 0; i < 16; ++i) {  // t = 2 .. 6 s
    exp.run_for(Duration::millis(250));
    const auto flows = exp.interceptor()->flows();
    if (!flows.empty() && flows[0].udt_blacklisted) udt_blacklisted_seen = true;
    if (i == 15) {  // t = 6 s: blackhole long established
      udt_frozen = sink.chunks_via(messaging::Transport::kUdt);
      tcp_mid = sink.chunks_via(messaging::Transport::kTcp);
    }
  }
  for (int i = 0; i < 10; ++i) {  // t = 6 .. 8.5 s
    exp.run_for(Duration::millis(250));
    const auto flows = exp.interceptor()->flows();
    if (!flows.empty() && flows[0].udt_blacklisted) udt_blacklisted_seen = true;
  }
  EXPECT_TRUE(udt_blacklisted_seen);

  // While blocked, no UDT chunk can arrive; TCP must keep the stream alive.
  EXPECT_EQ(sink.chunks_via(messaging::Transport::kUdt), udt_frozen);
  EXPECT_GT(sink.chunks_via(messaging::Transport::kTcp), tcp_mid);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);

  // After the unblock a probation retry must re-open the UDT channel.
  exp.run_for(Duration::seconds(9.5));  // t = 18 s
  EXPECT_GT(sink.chunks_via(messaging::Transport::kUdt), udt_frozen);
  EXPECT_EQ(exp.network_a().peer_health(exp.addr_b()),
            messaging::PeerHealth::kHealthy);
  const auto flows = exp.interceptor()->flows();
  ASSERT_FALSE(flows.empty());
  EXPECT_FALSE(flows[0].udt_blacklisted);
  EXPECT_FALSE(flows[0].peer_dead);
}

// The issue's acceptance scenario: under a seeded partition + heal, every
// notify-requested DATA message is eventually answered (Sent, PeerFailed or
// TimedOut), the peer returns to Healthy, DATA flows over both transports
// again after recovery — and the whole run is deterministic: two runs with
// the same seed produce the identical outcome fingerprint.
class AcceptanceScenario {
 public:
  std::string run(std::uint64_t seed) {
    apps::ExperimentConfig cfg;
    cfg.setup = netsim::Setup::kEuVpc;
    cfg.seed = seed;
    cfg.use_data_network = true;
    cfg.data.prp_kind = adaptive::PrpKind::kStatic;
    cfg.data.static_prob_udt = 0.5;
    cfg.data.initial_prob_udt = 0.5;
    cfg.data.fallback_probation = Duration::seconds(2.0);
    cfg.net.tcp.initial_rto = Duration::millis(200);
    cfg.net.tcp.max_syn_retries = 2;
    cfg.net.tcp.max_data_retries = 3;
    cfg.net.udt.max_exp_events = 4;
    cfg.net.udt.handshake_retries = 2;
    cfg.net.session_reconnect_attempts = 2;
    cfg.net.session_reconnect_backoff = Duration::millis(100);
    cfg.net.dead_peer_probe_interval = Duration::millis(500);
    cfg.net.dead_letter_ttl = Duration::seconds(30.0);
    apps::TwoNodeExperiment exp(cfg);
    auto& probe_a = exp.system().create<SupProbe>("acc_probe_a");
    auto& probe_b = exp.system().create<SupProbe>("acc_probe_b");
    exp.connect_a(probe_a.network());
    exp.connect_b(probe_b.network());
    exp.start();

    netsim::ChaosSchedule chaos(exp.network(), seed);
    chaos.partition_at(Duration::seconds(3.0),
                       {{exp.addr_a().host}, {exp.addr_b().host}})
        .heal_at(Duration::seconds(8.0));
    chaos.arm();

    // One notify-requested DATA chunk every 100 ms across the whole
    // timeline: before, during and after the partition.
    std::vector<NotifyId> ids;
    std::size_t tcp_at_heal = 0, udt_at_heal = 0;
    for (int i = 0; i < 120; ++i) {
      const auto id = next_notify_id();
      ids.push_back(id);
      DataHeader h{exp.addr_a(), exp.addr_b()};
      probe_a.send_notified(
          kompics::make_event<DataChunkMsg>(
              h, 1, 1000u * static_cast<std::uint64_t>(i),
              apps::make_payload_slice(1000u * static_cast<std::uint64_t>(i),
                                       1000),
              false),
          id);
      exp.run_for(Duration::millis(100));
      if (i == 79) {  // t = 8.0 s: the heal instant
        tcp_at_heal = probe_b.count_via(Transport::kTcp);
        udt_at_heal = probe_b.count_via(Transport::kUdt);
      }
    }
    exp.run_for(Duration::seconds(10.0));  // settle

    // Liveness: every notify answered with a definitive status.
    std::map<NotifyId, DeliveryStatus> by_id(probe_a.responses.begin(),
                                             probe_a.responses.end());
    EXPECT_EQ(by_id.size(), ids.size());
    EXPECT_EQ(probe_a.responses.size(), ids.size());

    // Recovery: peer healthy again, DATA rebalanced across both transports.
    EXPECT_EQ(exp.network_a().peer_health(exp.addr_b()),
              PeerHealth::kHealthy);
    EXPECT_GT(probe_b.count_via(Transport::kTcp), tcp_at_heal);
    EXPECT_GT(probe_b.count_via(Transport::kUdt), udt_at_heal);
    // The partition was actually felt by the supervision layer. (Chunks
    // themselves may all end up Sent: the interceptor's in-flight pacing
    // holds DATA in its own queue while the peer is down and releases it
    // after recovery — that is the dead-letter semantics working.)
    const auto& st = exp.network_a().net_stats();
    EXPECT_GE(st.peers_suspected, 1u);
    EXPECT_GE(st.peers_died, 1u);
    EXPECT_GE(st.peers_recovered, 1u);
    EXPECT_FALSE(probe_a.transitions.empty());

    // Fingerprint: per-send outcome (by send index, not global id), the
    // supervision transition log, final tallies and the chaos trace.
    std::ostringstream os;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto it = by_id.find(ids[i]);
      os << i << ":" << (it == by_id.end() ? "?" : to_string(it->second))
         << ";";
    }
    os << "|";
    for (const auto& t : probe_a.transitions) {
      os << (t.transport ? to_string(*t.transport) : "peer") << ":"
         << to_string(t.old_state) << ">" << to_string(t.new_state) << ":"
         << to_string(t.reason) << ";";
    }
    os << "|tcp=" << probe_b.count_via(Transport::kTcp)
       << ",udt=" << probe_b.count_via(Transport::kUdt)
       << "|health=" << to_string(exp.network_a().peer_health(exp.addr_b()))
       << "|" << chaos.trace_string();
    return os.str();
  }
};

TEST(SupervisionAcceptanceTest, PartitionHealAnswersEveryNotifyDeterministically) {
  AcceptanceScenario scenario;
  const std::string first = scenario.run(7);
  const std::string second = scenario.run(7);
  EXPECT_EQ(first, second) << "same-seed runs diverged";
}

}  // namespace
}  // namespace kmsg::messaging
