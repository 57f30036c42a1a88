#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "transport/udp.hpp"

namespace kmsg::transport {
namespace {

struct UdpFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<netsim::Network> net;
  netsim::Host* a = nullptr;
  netsim::Host* b = nullptr;

  void build(netsim::LinkConfig cfg, std::uint64_t seed = 42) {
    net = std::make_unique<netsim::Network>(sim, seed);
    a = &net->add_host();
    b = &net->add_host();
    net->add_duplex_link(a->id(), b->id(), cfg);
  }
};

std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t fill = 7) {
  return std::vector<std::uint8_t>(n, fill);
}

std::vector<std::uint8_t> to_vec(const wire::BufSlice& s) {
  return {s.data(), s.data() + s.size()};
}

TEST_F(UdpFixture, SingleDatagramDelivery) {
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  auto eb = UdpEndpoint::open(*b, 200);
  std::vector<std::uint8_t> got;
  netsim::HostId src_host = 999;
  netsim::Port src_port = 0;
  eb->set_on_message([&](netsim::HostId h, netsim::Port p, wire::BufSlice m) {
    src_host = h;
    src_port = p;
    got = to_vec(m);
  });
  EXPECT_TRUE(ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(100))));
  sim.run();
  EXPECT_EQ(got, payload(100));
  EXPECT_EQ(src_host, a->id());
  EXPECT_EQ(src_port, 100);
}

TEST_F(UdpFixture, FragmentationRoundTrip) {
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  auto eb = UdpEndpoint::open(*b, 200);
  std::vector<std::uint8_t> got;
  eb->set_on_message([&](netsim::HostId, netsim::Port, wire::BufSlice m) {
    got = to_vec(m);
  });
  // 65 kB message -> 8 fragments at the jumbo MTU.
  std::vector<std::uint8_t> msg(65000);
  Rng rng(5);
  for (auto& c : msg) c = static_cast<std::uint8_t>(rng.next());
  EXPECT_TRUE(ea->send(b->id(), 200, wire::BufSlice::copy_of(msg)));
  sim.run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(ea->stats().fragments_sent, 8u);
}

TEST_F(UdpFixture, LostFragmentLosesWholeMessage) {
  netsim::LinkConfig cfg;
  cfg.random_loss_rate = 0.15;
  build(cfg, 17);
  UdpConfig ucfg;
  ucfg.reassembly_timeout = Duration::millis(100);
  auto ea = UdpEndpoint::open(*a, 100, ucfg);
  auto eb = UdpEndpoint::open(*b, 200, ucfg);
  int complete = 0;
  eb->set_on_message([&](netsim::HostId, netsim::Port, wire::BufSlice m) {
    ++complete;
    EXPECT_EQ(m.size(), 60000u);  // never partial
  });
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    sim.schedule_after(Duration::millis(i * 5), [&] {
      ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(60000)));
    });
  }
  sim.run();
  // P(message survives) = (1-0.15)^7 fragments ~ 0.32; all-or-nothing.
  EXPECT_GT(complete, 20);
  EXPECT_LT(complete, n - 40);
}

TEST_F(UdpFixture, OversizeMessageRejected) {
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  EXPECT_FALSE(ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(300 * 1024))));
  EXPECT_EQ(ea->stats().oversize_rejected, 1u);
}

TEST_F(UdpFixture, NoOrderingGuarantee) {
  // Two messages where the first is large (multi-fragment) and the second is
  // tiny can arrive out of order when the large one loses a fragment and is
  // never completed — at minimum, delivery completes per message.
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  auto eb = UdpEndpoint::open(*b, 200);
  std::vector<std::size_t> sizes;
  eb->set_on_message([&](netsim::HostId, netsim::Port, wire::BufSlice m) {
    sizes.push_back(m.size());
  });
  ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(60000)));
  ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(10)));
  sim.run();
  ASSERT_EQ(sizes.size(), 2u);
}

TEST_F(UdpFixture, DuplicatePortRejected) {
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  EXPECT_NE(ea, nullptr);
  auto dup = UdpEndpoint::open(*a, 100);
  EXPECT_EQ(dup, nullptr);
}

TEST_F(UdpFixture, CloseUnbindsPort) {
  build({});
  auto ea = UdpEndpoint::open(*a, 100);
  ea->close();
  auto again = UdpEndpoint::open(*a, 100);
  EXPECT_NE(again, nullptr);
}

TEST_F(UdpFixture, EphemeralPortWhenZero) {
  build({});
  auto ea = UdpEndpoint::open(*a, 0);
  EXPECT_GE(ea->port(), 49152);
}

TEST_F(UdpFixture, ReassemblyTimeoutExpiresPartials) {
  netsim::LinkConfig cfg;
  cfg.random_loss_rate = 0.5;
  build(cfg, 23);
  UdpConfig ucfg;
  ucfg.reassembly_timeout = Duration::millis(50);
  auto ea = UdpEndpoint::open(*a, 100, ucfg);
  auto eb = UdpEndpoint::open(*b, 200, ucfg);
  eb->set_on_message([](netsim::HostId, netsim::Port, wire::BufSlice) {});
  for (int i = 0; i < 50; ++i) {
    sim.schedule_after(Duration::millis(i * 20), [&] {
      ea->send(b->id(), 200, wire::BufSlice::copy_of(payload(60000)));
    });
  }
  sim.run();
  EXPECT_GT(eb->stats().reassembly_expired, 0u);
}

}  // namespace
}  // namespace kmsg::transport
