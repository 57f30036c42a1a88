// Tests for the transport extensions: CUBIC congestion control and the
// LEDBAT background transport.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "transport/ledbat.hpp"
#include "transport/tcp.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed = 0) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

struct World {
  sim::Simulator sim;
  std::unique_ptr<netsim::Network> net;
  netsim::Host* a = nullptr;
  netsim::Host* b = nullptr;

  explicit World(netsim::LinkConfig cfg, std::uint64_t seed = 42) {
    net = std::make_unique<netsim::Network>(sim, seed);
    a = &net->add_host();
    b = &net->add_host();
    net->add_duplex_link(a->id(), b->id(), cfg);
  }
};

netsim::LinkConfig bottleneck(double bw = 20e6, Duration delay = Duration::millis(20)) {
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = bw;
  cfg.propagation_delay = delay;
  cfg.queue_capacity_bytes = 1 << 20;
  return cfg;
}

// --- CUBIC ---

TEST(CubicTest, TransferIntegrity) {
  World w(bottleneck());
  TcpConfig cfg;
  cfg.congestion = TcpCongestion::kCubic;
  std::shared_ptr<TcpConnection> server;
  std::vector<std::uint8_t> received;
  TcpListener listener(*w.b, 80, cfg, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = TcpConnection::connect(*w.a, w.b->id(), 80, cfg);
  const auto data = pattern_bytes(2'000'000, 3);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < data.size()) {
      const std::size_t n = client->write(std::span<const std::uint8_t>(
          data.data() + written, data.size() - written));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run();
  EXPECT_EQ(received, data);
}

TEST(CubicTest, IntegrityUnderLoss) {
  auto cfg = bottleneck();
  cfg.random_loss_rate = 0.01;
  World w(cfg, 17);
  TcpConfig tcfg;
  tcfg.congestion = TcpCongestion::kCubic;
  std::shared_ptr<TcpConnection> server;
  std::uint64_t received = 0;
  TcpListener listener(*w.b, 80, tcfg, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = TcpConnection::connect(*w.a, w.b->id(), 80, tcfg);
  const auto data = pattern_bytes(1'000'000, 4);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < data.size()) {
      const std::size_t n = client->write(std::span<const std::uint8_t>(
          data.data() + written, data.size() - written));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run();
  EXPECT_EQ(received, data.size());
}

TEST(CubicTest, WindowRecoversAboveRenoAfterCongestionEvent) {
  // The RFC 8312 property, tested on the deterministic window trajectory:
  // after the first congestion event, CUBIC's multiplicative cut is gentler
  // (beta = 0.7 vs 0.5) and its concave profile returns toward W_max faster
  // than Reno's one-MSS-per-RTT climb, so a fixed time after the event the
  // CUBIC window is the larger one.
  auto trajectory = [&](TcpCongestion cc) {
    netsim::LinkConfig link;
    link.bandwidth_bytes_per_sec = 20e6;
    link.propagation_delay = Duration::millis(50);
    link.queue_capacity_bytes = 512 * 1024;
    World w(link, 7);
    TcpConfig cfg;
    cfg.congestion = cc;
    cfg.recv_buffer_bytes = 16 * 1024 * 1024;
    cfg.send_buffer_bytes = 16 * 1024 * 1024;
    cfg.initial_ssthresh_bytes = 1e6;  // clean CA entry, no slow-start crash
    std::shared_ptr<TcpConnection> server;
    TcpListener listener(*w.b, 80, cfg, [&](auto conn) {
      server = conn;
      server->set_on_data([](std::span<const std::uint8_t>) {});
    });
    auto client = TcpConnection::connect(*w.a, w.b->id(), 80, cfg);
    const auto chunk = pattern_bytes(256 * 1024);
    auto pump = [&] {
      while (client->write(chunk) > 0) {
      }
    };
    client->set_on_connected(pump);
    client->set_on_writable(pump);
    // Sample cwnd every 100 ms for 60 s.
    std::vector<double> samples;
    for (int i = 0; i < 600; ++i) {
      w.sim.run_until(w.sim.now() + Duration::millis(100));
      samples.push_back(client->cwnd_bytes());
    }
    return samples;
  };
  const auto reno = trajectory(TcpCongestion::kNewReno);
  const auto cubic = trajectory(TcpCongestion::kCubic);

  // Locate each run's first congestion cut (first big drop).
  auto first_drop = [](const std::vector<double>& xs) {
    for (std::size_t i = 1; i < xs.size(); ++i) {
      if (xs[i] < xs[i - 1] * 0.85) return i;
    }
    return xs.size();
  };
  const std::size_t rd = first_drop(reno);
  const std::size_t cd = first_drop(cubic);
  ASSERT_LT(rd + 30, reno.size());
  ASSERT_LT(cd + 30, cubic.size());
  // Three seconds after the cut, CUBIC's window exceeds Reno's.
  EXPECT_GT(cubic[cd + 30], reno[rd + 30]);
}

// --- LEDBAT ---

TEST(LedbatTest, HandshakeAndTransferIntegrity) {
  World w(bottleneck());
  std::shared_ptr<LedbatConnection> server;
  std::vector<std::uint8_t> received;
  LedbatListener listener(*w.b, 70, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 70, {});
  const auto data = pattern_bytes(1'000'000, 5);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < data.size()) {
      const std::size_t n = client->write(std::span<const std::uint8_t>(
          data.data() + written, data.size() - written));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run_until(TimePoint::zero() + Duration::seconds(60.0));
  EXPECT_EQ(received, data);
}

TEST(LedbatTest, IntegrityUnderLoss) {
  auto cfg = bottleneck();
  cfg.random_loss_rate = 0.01;
  World w(cfg, 23);
  std::shared_ptr<LedbatConnection> server;
  std::uint64_t received = 0;
  LedbatListener listener(*w.b, 70, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 70, {});
  const auto data = pattern_bytes(500'000, 6);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < data.size()) {
      const std::size_t n = client->write(std::span<const std::uint8_t>(
          data.data() + written, data.size() - written));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run_until(TimePoint::zero() + Duration::seconds(120.0));
  EXPECT_EQ(received, data.size());
}

TEST(LedbatTest, AloneUsesAvailableBandwidth) {
  World w(bottleneck(20e6, Duration::millis(20)));
  std::shared_ptr<LedbatConnection> server;
  std::uint64_t received = 0;
  LedbatListener listener(*w.b, 70, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 70, {});
  const auto chunk = pattern_bytes(128 * 1024);
  auto pump = [&] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run_until(TimePoint::zero() + Duration::seconds(20.0));
  // Should reach a large fraction of the 20 MB/s bottleneck on its own.
  EXPECT_GT(static_cast<double>(received) / 20.0, 10e6);
}

TEST(LedbatTest, YieldsToCompetingTcpFlow) {
  // The scavenger property (RFC 6817): when a loss-based TCP flow shares
  // the bottleneck, LEDBAT detects the rising queueing delay and backs off,
  // leaving TCP most of the capacity.
  World w(bottleneck(20e6, Duration::millis(20)));

  // LEDBAT flow first (10 s head start to fill the pipe).
  std::shared_ptr<LedbatConnection> lb_server;
  std::uint64_t lb_received = 0;
  LedbatListener lb_listener(*w.b, 70, {}, [&](auto conn) {
    lb_server = conn;
    lb_server->set_on_data(
        [&](std::span<const std::uint8_t> d) { lb_received += d.size(); });
  });
  auto lb_client = LedbatConnection::connect(*w.a, w.b->id(), 70, {});
  const auto chunk = pattern_bytes(128 * 1024);
  auto lb_pump = [&] {
    while (lb_client->write(chunk) > 0) {
    }
  };
  lb_client->set_on_connected(lb_pump);
  lb_client->set_on_writable(lb_pump);

  w.sim.run_until(TimePoint::zero() + Duration::seconds(10.0));
  const double lb_alone = static_cast<double>(lb_received) / 10.0;

  // TCP flow joins.
  std::shared_ptr<TcpConnection> tcp_server;
  std::uint64_t tcp_received = 0;
  TcpConfig tcfg;
  tcfg.recv_buffer_bytes = 4 * 1024 * 1024;
  TcpListener tcp_listener(*w.b, 80, tcfg, [&](auto conn) {
    tcp_server = conn;
    tcp_server->set_on_data(
        [&](std::span<const std::uint8_t> d) { tcp_received += d.size(); });
  });
  auto tcp_client = TcpConnection::connect(*w.a, w.b->id(), 80, tcfg);
  auto tcp_pump = [&] {
    while (tcp_client->write(chunk) > 0) {
    }
  };
  tcp_client->set_on_connected(tcp_pump);
  tcp_client->set_on_writable(tcp_pump);

  const std::uint64_t lb_mark = lb_received;
  w.sim.run_until(TimePoint::zero() + Duration::seconds(40.0));
  const double lb_contended =
      static_cast<double>(lb_received - lb_mark) / 30.0;
  const double tcp_rate = static_cast<double>(tcp_received) / 30.0;

  EXPECT_GT(lb_alone, 10e6);             // used the pipe alone
  EXPECT_GT(tcp_rate, lb_contended * 2); // TCP dominates under contention
  EXPECT_LT(lb_contended, lb_alone * 0.5);  // LEDBAT backed off
}

TEST(LedbatTest, QueuingDelayStaysNearTarget) {
  // Solo LEDBAT should stabilise queueing delay around its 25 ms target
  // instead of filling the buffer like loss-based CC does.
  World w(bottleneck(20e6, Duration::millis(20)));
  LedbatConfig cfg;
  std::shared_ptr<LedbatConnection> server;
  LedbatListener listener(*w.b, 70, cfg, [&](auto conn) {
    server = conn;
    server->set_on_data([](std::span<const std::uint8_t>) {});
  });
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 70, cfg);
  const auto chunk = pattern_bytes(128 * 1024);
  auto pump = [&] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  w.sim.run_until(TimePoint::zero() + Duration::seconds(20.0));
  EXPECT_LT(client->cc_stats().queuing_delay_ms, 60.0);
  EXPECT_GT(client->cc_stats().cwnd_bytes, 2.0 * 8928);
}

TEST(LedbatTest, GracefulClose) {
  World w(bottleneck());
  std::shared_ptr<LedbatConnection> server;
  std::uint64_t received = 0;
  bool server_closed = false, client_closed = false;
  LedbatListener listener(*w.b, 70, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
    server->set_on_closed([&] { server_closed = true; });
  });
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 70, {});
  client->set_on_closed([&] { client_closed = true; });
  const auto data = pattern_bytes(200'000, 9);
  client->set_on_connected([&] {
    client->write(data);
    client->close();
  });
  w.sim.run_until(TimePoint::zero() + Duration::seconds(30.0));
  EXPECT_EQ(received, data.size());
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
}

TEST(LedbatTest, ConnectTimeoutWithoutListener) {
  World w(bottleneck());
  LedbatConfig cfg;
  cfg.handshake_retries = 2;
  cfg.handshake_rto = Duration::millis(50);
  bool closed = false;
  auto client = LedbatConnection::connect(*w.a, w.b->id(), 71, cfg);
  client->set_on_closed([&] { closed = true; });
  w.sim.run();
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace kmsg::transport
