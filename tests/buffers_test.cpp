#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "netsim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/connection.hpp"
#include "transport/reassembly.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// --- StreamConnection's send queue ---

/// The stream core alone: a one-host world, the five protocol hooks stubbed,
/// and the send side opened up for inspection.
class SendQueue final : public StreamConnection {
 public:
  SendQueue(netsim::Host& host, std::size_t capacity)
      : StreamConnection(host, host.id(), 1, /*passive=*/false,
                         netsim::IpProto::kTcp, 0, capacity, 1024) {}

  using StreamConnection::notify_writable;
  using StreamConnection::payload_at;
  using StreamConnection::release_acked;
  using StreamConnection::send_end;
  std::uint64_t snd_una() const { return snd_una_; }

 private:
  void on_datagram(const netsim::Datagram&) override {}
  void kick() override {}
  void close_when_drained() override {}
  std::shared_ptr<const netsim::DatagramBody> shutdown_packet() const override {
    return nullptr;
  }
  void cancel_timers() override {}
};

struct OneHost {
  sim::Simulator sim;
  netsim::Network net{sim};
  netsim::Host& host = net.add_host();
};

std::vector<std::uint8_t> bytes_of(const wire::BufSlice& s) {
  return {s.span().begin(), s.span().end()};
}

TEST(SendQueueTest, RetainedRangesMatchTheWrittenHistory) {
  // Property: every retained range reads back as the same range of the full
  // byte history, across arbitrary interleavings of writes through both
  // overloads and cumulative releases — including ranges that straddle
  // writes, which payload_at gathers.
  OneHost world;
  SendQueue q(world.host, 64);
  Rng rng(1);
  std::vector<std::uint8_t> history;  // every byte ever accepted
  const auto matches = [&](std::uint64_t at, std::size_t len) {
    const wire::BufSlice got = q.payload_at(at, len);
    return got.size() == len &&
           std::equal(got.span().begin(), got.span().end(),
                      history.begin() + static_cast<std::ptrdiff_t>(at));
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> chunk(1 + rng.next_below(20));
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
    const std::size_t written = rng.next_bool(0.5)
                                    ? q.write(chunk)
                                    : q.write(wire::BufSlice::copy_of(chunk));
    history.insert(history.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(written));
    ASSERT_EQ(q.send_end(), history.size());
    const std::uint64_t una = q.snd_una();
    const std::size_t unacked = q.unacked_bytes();
    ASSERT_EQ(una + unacked, q.send_end());
    if (unacked > 0) {
      ASSERT_TRUE(matches(una, unacked)) << "round " << round;
      const std::uint64_t at = una + rng.next_below(unacked);
      const auto len = static_cast<std::size_t>(
          1 + rng.next_below(q.send_end() - at));
      ASSERT_TRUE(matches(at, len))
          << "round " << round << " [" << at << ", +" << len << ")";
    }
    const std::uint64_t release = rng.next_below(unacked + 1);
    if (release > 0) q.release_acked(una + release);
  }
}

TEST(SendQueueTest, FullBufferAcceptsAPrefixThenSignalsRoom) {
  OneHost world;
  SendQueue q(world.host, 4);
  int writable = 0;
  q.set_on_writable([&writable] { ++writable; });
  const auto data = bytes({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(q.write(data), 4u);
  EXPECT_EQ(q.writable_bytes(), 0u);
  EXPECT_EQ(q.write(wire::BufSlice::copy_of(data)), 0u);
  q.notify_writable();
  EXPECT_EQ(writable, 0);  // still full
  q.release_acked(2);
  EXPECT_EQ(q.writable_bytes(), 2u);
  q.notify_writable();
  EXPECT_EQ(writable, 1);
  EXPECT_EQ(q.write(wire::BufSlice::copy_of(data)), 2u);
  EXPECT_EQ(bytes_of(q.payload_at(2, 4)), bytes({3, 4, 1, 2}));
  q.notify_writable();  // the short write wants room, but none is free
  EXPECT_EQ(writable, 1);
}

TEST(SendQueueTest, PayloadOutsideTheUnackedStreamThrows) {
  OneHost world;
  SendQueue q(world.host, 8);
  q.write(bytes({1, 2, 3}));
  EXPECT_THROW(q.payload_at(0, 4), std::out_of_range);
  EXPECT_THROW(q.payload_at(3, 1), std::out_of_range);
  q.release_acked(2);
  EXPECT_THROW(q.payload_at(1, 1), std::out_of_range);
  EXPECT_EQ(bytes_of(q.payload_at(2, 1)), bytes({3}));
  q.release_acked(4);  // a FIN's sequence number, one past the data
  EXPECT_EQ(q.unacked_bytes(), 0u);
  EXPECT_THROW(q.payload_at(3, 1), std::out_of_range);
}

TEST(SendQueueTest, ZeroCapacityRejected) {
  OneHost world;
  EXPECT_THROW(SendQueue(world.host, 0), std::invalid_argument);
}

// --- ReassemblyBuffer ---

/// Offers [at, at + data.size()) and collects every run the buffer
/// surrenders, in order.
std::vector<std::uint8_t> offer(ReassemblyBuffer& rb, std::uint64_t at,
                                const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out;
  rb.offer_span(at, data, [&out](std::span<const std::uint8_t> run) {
    out.insert(out.end(), run.begin(), run.end());
  });
  return out;
}

TEST(ReassemblyTest, InOrderFastPath) {
  ReassemblyBuffer rb(1024);
  auto out = offer(rb, 0, bytes({1, 2, 3}));
  EXPECT_EQ(out, bytes({1, 2, 3}));
  EXPECT_EQ(rb.expected(), 3u);
  out = offer(rb, 3, bytes({4, 5}));
  EXPECT_EQ(out, bytes({4, 5}));
  EXPECT_EQ(rb.expected(), 5u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReassemblyTest, OutOfOrderHoldsThenReleases) {
  ReassemblyBuffer rb(1024);
  EXPECT_TRUE(offer(rb, 3, bytes({4, 5})).empty());
  EXPECT_EQ(rb.buffered_bytes(), 2u);
  auto out = offer(rb, 0, bytes({1, 2, 3}));
  EXPECT_EQ(out, bytes({1, 2, 3, 4, 5}));
  EXPECT_EQ(rb.expected(), 5u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReassemblyTest, DuplicatesTrimmed) {
  ReassemblyBuffer rb(1024);
  offer(rb, 0, bytes({1, 2, 3}));
  EXPECT_TRUE(offer(rb, 0, bytes({1, 2, 3})).empty());  // full duplicate
  auto out = offer(rb, 1, bytes({2, 3, 4}));            // overlap + new byte
  EXPECT_EQ(out, bytes({4}));
  EXPECT_EQ(rb.expected(), 4u);
}

TEST(ReassemblyTest, OverlappingOutOfOrderSegments) {
  ReassemblyBuffer rb(1024);
  EXPECT_TRUE(offer(rb, 5, bytes({6, 7})).empty());
  EXPECT_TRUE(offer(rb, 4, bytes({5, 6, 7, 8})).empty());  // overlaps parked
  // The closing segment returns everything newly contiguous: itself plus the
  // absorbed parked bytes.
  auto out = offer(rb, 0, bytes({1, 2, 3, 4}));
  EXPECT_EQ(out, bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(rb.expected(), 8u);
}

TEST(ReassemblyTest, CapacityOverflowDrops) {
  ReassemblyBuffer rb(4);
  EXPECT_TRUE(offer(rb, 10, bytes({1, 2, 3})).empty());
  EXPECT_EQ(rb.drops(), 0u);
  EXPECT_TRUE(offer(rb, 20, bytes({4, 5})).empty());  // would exceed 4 bytes
  EXPECT_EQ(rb.drops(), 1u);
  EXPECT_EQ(rb.buffered_bytes(), 3u);
}

TEST(ReassemblyTest, AvailableShrinksWithParkedBytes) {
  ReassemblyBuffer rb(10);
  EXPECT_EQ(rb.available(), 10u);
  offer(rb, 5, bytes({1, 2, 3}));
  EXPECT_EQ(rb.available(), 7u);
}

TEST(ReassemblyTest, MissingRangesEnumeration) {
  ReassemblyBuffer rb(1024);
  offer(rb, 10, bytes({1, 2}));   // [10,12)
  offer(rb, 20, bytes({3}));      // [20,21)
  auto ranges = rb.missing_ranges(10);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], std::make_pair(std::uint64_t{0}, std::uint64_t{10}));
  EXPECT_EQ(ranges[1], std::make_pair(std::uint64_t{12}, std::uint64_t{20}));
  // Limit respected.
  EXPECT_EQ(rb.missing_ranges(1).size(), 1u);
}

TEST(ReassemblyTest, MissingRangesIncludesDroppedBytes) {
  ReassemblyBuffer rb(2);
  offer(rb, 10, bytes({1, 2, 3}));  // dropped (over capacity)
  EXPECT_EQ(rb.drops(), 1u);
  auto ranges = rb.missing_ranges(4);
  ASSERT_EQ(ranges.size(), 1u);
  // The dropped range still counts as missing, so NAKs re-request it.
  EXPECT_EQ(ranges[0], std::make_pair(std::uint64_t{0}, std::uint64_t{13}));
}

TEST(ReassemblyTest, RandomizedStreamReconstruction) {
  // Property: any permutation of overlapping segments reconstructs the
  // original stream exactly once.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t total = 500 + rng.next_below(500);
    std::vector<std::uint8_t> stream(total);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());

    // Build random overlapping segments covering the stream.
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> segs;
    for (std::size_t at = 0; at < total;) {
      const std::size_t len = 1 + rng.next_below(40);
      const std::size_t end = std::min(total, at + len);
      segs.emplace_back(at, std::vector<std::uint8_t>(
                                stream.begin() + static_cast<std::ptrdiff_t>(at),
                                stream.begin() + static_cast<std::ptrdiff_t>(end)));
      // Sometimes step back to create overlap.
      const std::size_t advance = rng.next_bool(0.3) && end - at > 2
                                      ? (end - at) - 2
                                      : (end - at);
      at += advance;
    }
    // Shuffle.
    for (std::size_t i = segs.size(); i > 1; --i) {
      std::swap(segs[i - 1], segs[rng.next_below(i)]);
    }

    ReassemblyBuffer rb(1 << 20);
    std::vector<std::uint8_t> got;
    for (auto& [at, seg] : segs) {
      auto out = offer(rb, at, seg);
      got.insert(got.end(), out.begin(), out.end());
    }
    EXPECT_EQ(got, stream) << "trial " << trial;
    EXPECT_EQ(rb.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace kmsg::transport
