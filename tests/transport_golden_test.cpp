// Pins what the stream transports put on the wire. For TCP NewReno, TCP
// CUBIC, UDT and LEDBAT, a 2 MiB transfer over a clean link and over a
// seeded 1%-loss link must deliver the same bytes at the same simulated
// instant, with the same sender counters, as when the values below were
// recorded. Any change to segment sizes, timers, window or rate decisions,
// or retransmission choices moves at least one of them; a refactor of the
// engines must leave every row unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "netsim/network.hpp"
#include "transport/ledbat.hpp"
#include "transport/tcp.hpp"
#include "transport/udt.hpp"

namespace kmsg::transport {
namespace {

constexpr std::uint64_t kTransferBytes = 2 * 1024 * 1024;
/// Smaller than the transfer, so writes fill the send buffer and resume
/// from the writable callback as acknowledgements release it.
constexpr std::size_t kSendBufferBytes = 512 * 1024;

struct Outcome {
  std::int64_t last_byte_ns = 0;  ///< sim time the last byte was delivered
  std::int64_t closed_ns = 0;     ///< sim time the client finished closing
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bytes_sent_wire = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t fnv1a = 0;  ///< FNV-1a 64 over the delivered bytes

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{" << o.last_byte_ns << ", " << o.closed_ns << ", "
            << o.segments_sent << ", " << o.segments_retransmitted << ", "
            << o.timeouts << ", " << o.bytes_sent_wire << ", " << o.bytes_acked
            << ", 0x" << std::hex << o.fnv1a << std::dec << "ULL}";
}

netsim::LinkConfig golden_link(double loss) {
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 12.5e6;  // 100 Mbit/s
  cfg.propagation_delay = Duration::millis(10);
  cfg.queue_capacity_bytes = 256 * 1024;
  cfg.random_loss_rate = loss;
  return cfg;
}

std::uint8_t stream_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131) ^ (offset >> 9));
}

/// Streams kTransferBytes from a client to an accepting server, closes the
/// client once everything is written, and runs until the client is closed.
template <typename Conn, typename Listener, typename Config>
Outcome transfer(const Config& cfg, double loss) {
  sim::Simulator sim;
  netsim::Network net(sim, 7);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), golden_link(loss));

  Outcome out;
  out.fnv1a = 0xcbf29ce484222325ULL;
  std::uint64_t received = 0;
  std::shared_ptr<Conn> server;
  Listener listener(b, 80, cfg, [&](std::shared_ptr<Conn> c) {
    server = std::move(c);
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      for (const std::uint8_t x : d) out.fnv1a = (out.fnv1a ^ x) * 0x100000001b3ULL;
      received += d.size();
      out.last_byte_ns = (sim.now() - TimePoint::zero()).as_nanos();
    });
  });

  auto client = Conn::connect(a, b.id(), 80, cfg);
  std::uint64_t written = 0;
  std::vector<std::uint8_t> block(64 * 1024);
  const auto pump = [&] {
    while (written < kTransferBytes) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(block.size(), kTransferBytes - written));
      for (std::size_t i = 0; i < want; ++i) block[i] = stream_byte(written + i);
      const std::size_t n = client->write({block.data(), want});
      written += n;
      if (n < want) break;
    }
  };
  client->set_on_writable(pump);
  client->set_on_closed(
      [&] { out.closed_ns = (sim.now() - TimePoint::zero()).as_nanos(); });
  pump();

  const TimePoint limit = TimePoint::zero() + Duration::seconds(120.0);
  bool close_requested = false;
  while (client->state() != ConnState::kClosed && sim.now() < limit) {
    if (written == kTransferBytes && !close_requested) {
      client->close();
      close_requested = true;
    }
    sim.run_until(sim.now() + Duration::millis(10));
  }
  EXPECT_EQ(received, kTransferBytes);
  EXPECT_EQ(client->state(), ConnState::kClosed);

  const ConnStats& st = client->stats();
  out.segments_sent = st.segments_sent;
  out.segments_retransmitted = st.segments_retransmitted;
  out.timeouts = st.timeouts;
  out.bytes_sent_wire = st.bytes_sent_wire;
  out.bytes_acked = st.bytes_acked;
  return out;
}

Outcome tcp(TcpCongestion congestion, double loss) {
  TcpConfig cfg;
  cfg.congestion = congestion;
  cfg.send_buffer_bytes = kSendBufferBytes;
  return transfer<TcpConnection, TcpListener>(cfg, loss);
}

Outcome udt(double loss) {
  UdtConfig cfg;
  cfg.send_buffer_bytes = kSendBufferBytes;
  return transfer<UdtConnection, UdtListener>(cfg, loss);
}

Outcome ledbat(double loss) {
  LedbatConfig cfg;
  cfg.send_buffer_bytes = kSendBufferBytes;
  return transfer<LedbatConnection, LedbatListener>(cfg, loss);
}

// Recorded from the engines before they shared a connection core. A change
// that means to alter the packets must re-record these (the failure message
// prints each observed row in this syntax). Every row delivers the same
// stream, so every row carries the same hash.
constexpr std::uint64_t kStreamHash = 0x9f32d5b87658a325ULL;

TEST(TransportGoldenTest, TcpNewRenoClean) {
  EXPECT_EQ(tcp(TcpCongestion::kNewReno, 0.0),
            (Outcome{261626240, 271632640, 279, 39, 0, 2434528, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, TcpNewRenoLoss1) {
  EXPECT_EQ(tcp(TcpCongestion::kNewReno, 0.01),
            (Outcome{303652640, 313659040, 373, 116, 0, 3098798, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, TcpCubicClean) {
  EXPECT_EQ(tcp(TcpCongestion::kCubic, 0.0),
            (Outcome{356161279, 366164479, 503, 261, 0, 4374464, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, TcpCubicLoss1) {
  EXPECT_EQ(tcp(TcpCongestion::kCubic, 0.01),
            (Outcome{320592800, 330596000, 375, 119, 0, 3102302, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, UdtClean) {
  EXPECT_EQ(udt(0.0),
            (Outcome{225601918, 240008320, 236, 0, 0, 2097152, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, UdtLoss1) {
  EXPECT_EQ(udt(0.01),
            (Outcome{572506493, 590008320, 238, 3, 0, 2123936, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, LedbatClean) {
  EXPECT_EQ(ledbat(0.0),
            (Outcome{458407836, 468412636, 801, 0, 0, 2097152, 2097152, kStreamHash}));
}

TEST(TransportGoldenTest, LedbatLoss1) {
  EXPECT_EQ(ledbat(0.01),
            (Outcome{855638316, 865643116, 505, 8, 0, 2168576, 2097152, kStreamHash}));
}

}  // namespace
}  // namespace kmsg::transport
