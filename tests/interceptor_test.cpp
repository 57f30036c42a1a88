// Focused tests for the data-network-interceptor (paper §IV-A): DATA
// resolution against the prescribed ratio, transparent passthrough,
// notification id preservation, and in-flight pacing.
#include <gtest/gtest.h>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/messages.hpp"

namespace kmsg::adaptive {
namespace {

using apps::DataChunkMsg;
using apps::PingMsg;
using messaging::BasicHeader;
using messaging::DataHeader;
using messaging::MsgPtr;
using messaging::Transport;

class Probe final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe_ptr<messaging::Msg>(*net_, [this](MsgPtr m) {
      messages.push_back(std::move(m));
    });
    subscribe<messaging::MessageNotifyResp>(
        *net_, [this](const messaging::MessageNotifyResp& r) {
          notify_ids.push_back(r.id);
        });
  }
  kompics::PortInstance& network() { return *net_; }
  void send(MsgPtr m) { trigger(std::move(m), *net_); }
  void send_notified(MsgPtr m, messaging::NotifyId id) {
    trigger(kompics::make_event<messaging::MessageNotifyReq>(std::move(m), id),
            *net_);
  }
  std::vector<MsgPtr> messages;
  std::vector<messaging::NotifyId> notify_ids;

 private:
  kompics::PortInstance* net_ = nullptr;
};

struct InterceptorFixture : ::testing::Test {
  std::unique_ptr<apps::TwoNodeExperiment> exp;
  Probe* probe_a = nullptr;
  Probe* probe_b = nullptr;

  void build(PrpKind prp, double static_prob, PspKind psp = PspKind::kPattern) {
    apps::ExperimentConfig cfg;
    cfg.setup = netsim::Setup::kEuVpc;
    cfg.use_data_network = true;
    cfg.data.prp_kind = prp;
    cfg.data.static_prob_udt = static_prob;
    cfg.data.initial_prob_udt = static_prob;
    cfg.data.psp_kind = psp;
    exp = std::make_unique<apps::TwoNodeExperiment>(cfg);
    probe_a = &exp->system().create<Probe>("probe_a");
    probe_b = &exp->system().create<Probe>("probe_b");
    exp->connect_a(probe_a->network());
    exp->connect_b(probe_b->network());
    exp->start();
  }

  MsgPtr data_chunk(std::uint64_t offset, std::size_t len = 1000) {
    DataHeader h{exp->addr_a(), exp->addr_b()};
    return kompics::make_event<DataChunkMsg>(
        h, 1, offset, apps::make_payload_slice(offset, len), false);
  }
};

TEST_F(InterceptorFixture, ResolvesDataToStaticRatio) {
  build(PrpKind::kStatic, 0.25);  // 1 UDT per 3 TCP
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    probe_a->send(data_chunk(static_cast<std::uint64_t>(i) * 1000));
  }
  exp->run_for(Duration::seconds(10.0));
  ASSERT_EQ(probe_b->messages.size(), static_cast<std::size_t>(n));
  int tcp = 0, udt = 0, other = 0;
  for (const auto& m : probe_b->messages) {
    switch (m->header().protocol()) {
      case Transport::kTcp: ++tcp; break;
      case Transport::kUdt: ++udt; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_EQ(udt, n / 4);       // pattern selection is exact over full cycles
  EXPECT_EQ(tcp, n - n / 4);
}

TEST_F(InterceptorFixture, PureTcpAndPureUdtRatios) {
  build(PrpKind::kStatic, 0.0);
  for (int i = 0; i < 20; ++i) {
    probe_a->send(data_chunk(static_cast<std::uint64_t>(i) * 1000));
  }
  exp->run_for(Duration::seconds(5.0));
  for (const auto& m : probe_b->messages) {
    EXPECT_EQ(m->header().protocol(), Transport::kTcp);
  }
  ASSERT_EQ(probe_b->messages.size(), 20u);
}

TEST_F(InterceptorFixture, NonDataTrafficPassesThrough) {
  build(PrpKind::kStatic, 1.0);
  // A plain ping (BasicHeader, not DATA) must cross untouched even though
  // the stack chains through the interceptor.
  BasicHeader h{exp->addr_a(), exp->addr_b(), Transport::kTcp};
  probe_a->send(kompics::make_event<PingMsg>(h, 5, 0));
  exp->run_for(Duration::seconds(1.0));
  ASSERT_EQ(probe_b->messages.size(), 1u);
  EXPECT_EQ(probe_b->messages[0]->header().protocol(), Transport::kTcp);
  // No flow state was created for non-DATA traffic.
  EXPECT_TRUE(exp->interceptor()->flows().empty());
}

TEST_F(InterceptorFixture, AlreadyResolvedDataPassesThrough) {
  build(PrpKind::kStatic, 1.0);  // would resolve to UDT if intercepted
  DataHeader resolved{exp->addr_a(), exp->addr_b(), Transport::kTcp};
  probe_a->send(kompics::make_event<DataChunkMsg>(
      resolved, 1, 0, apps::make_payload_slice(0, 100), false));
  exp->run_for(Duration::seconds(1.0));
  ASSERT_EQ(probe_b->messages.size(), 1u);
  EXPECT_EQ(probe_b->messages[0]->header().protocol(), Transport::kTcp);
  EXPECT_TRUE(exp->interceptor()->flows().empty());
}

TEST_F(InterceptorFixture, NotifyIdsPreservedThroughInterception) {
  build(PrpKind::kStatic, 0.5);
  probe_a->send_notified(data_chunk(0), 4242);
  probe_a->send_notified(data_chunk(1000), 4243);
  exp->run_for(Duration::seconds(2.0));
  ASSERT_EQ(probe_a->notify_ids.size(), 2u);
  EXPECT_EQ(probe_a->notify_ids[0], 4242u);
  EXPECT_EQ(probe_a->notify_ids[1], 4243u);
}

TEST_F(InterceptorFixture, FlowSnapshotAccounting) {
  build(PrpKind::kStatic, 0.5);
  for (int i = 0; i < 40; ++i) {
    probe_a->send(data_chunk(static_cast<std::uint64_t>(i) * 1000));
  }
  exp->run_for(Duration::seconds(5.0));
  auto flows = exp->interceptor()->flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].released_tcp + flows[0].released_udt, 40u);
  EXPECT_DOUBLE_EQ(flows[0].target_prob_udt, 0.5);
  EXPECT_EQ(flows[0].queued_messages, 0u);
  EXPECT_GE(flows[0].episodes, 3u);
}

TEST_F(InterceptorFixture, PacingBoundsInflightBytes) {
  // Flood far more data than the in-flight window: the interceptor must
  // queue the excess rather than dumping everything into the transports.
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEu2Us;  // slow drain: 155 ms RTT
  cfg.use_data_network = true;
  cfg.data.prp_kind = PrpKind::kStatic;
  cfg.data.static_prob_udt = 0.0;  // all TCP: ~3 MB/s drain
  cfg.data.inflight_window_bytes = 2 * 1024 * 1024;
  exp = std::make_unique<apps::TwoNodeExperiment>(cfg);
  probe_a = &exp->system().create<Probe>("probe_a");
  probe_b = &exp->system().create<Probe>("probe_b");
  exp->connect_a(probe_a->network());
  exp->connect_b(probe_b->network());
  exp->start();

  const int n = 300;  // ~19 MB of 65 kB chunks
  for (int i = 0; i < n; ++i) {
    DataHeader h{exp->addr_a(), exp->addr_b()};
    probe_a->send(kompics::make_event<DataChunkMsg>(
        h, 1, static_cast<std::uint64_t>(i) * 65000,
        apps::make_payload_slice(0, 65000), false));
  }
  exp->run_for(Duration::seconds(1.0));
  auto flows = exp->interceptor()->flows();
  ASSERT_EQ(flows.size(), 1u);
  // Most of the flood is still queued in the interceptor after 1 s, and the
  // in-flight estimate respects the window (with one message of slack).
  EXPECT_GT(flows[0].queued_messages, 100u);
  EXPECT_LE(flows[0].inflight_estimate, 2u * 1024 * 1024 + 65000);
  // Eventually everything drains.
  exp->run_for(Duration::seconds(60.0));
  flows = exp->interceptor()->flows();
  EXPECT_EQ(flows[0].queued_messages, 0u);
  EXPECT_EQ(probe_b->messages.size(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace kmsg::adaptive
