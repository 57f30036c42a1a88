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

std::vector<std::uint8_t> bytes_of(const SegmentPayload& p) {
  std::vector<std::uint8_t> out;
  p.for_each([&out](const wire::BufSlice& v) {
    out.insert(out.end(), v.span().begin(), v.span().end());
  });
  return out;
}

std::uint64_t payload_copied() {
  return wire::SlabPool::instance().stats().payload_bytes_copied;
}

TEST(SendQueueTest, RetainedRangesMatchTheWrittenHistory) {
  // Property: every retained range reads back as the same range of the full
  // byte history, across arbitrary interleavings of writes through both
  // overloads and cumulative releases — including ranges that straddle
  // two writes, which payload_at returns as two views, and ranges spanning
  // more, which it gathers.
  OneHost world;
  SendQueue q(world.host, 64);
  Rng rng(1);
  std::vector<std::uint8_t> history;  // every byte ever accepted
  const auto matches = [&](std::uint64_t at, std::size_t len) {
    const SegmentPayload got = q.payload_at(at, len);
    const std::vector<std::uint8_t> read = bytes_of(got);
    return got.size() == len && (got.tail.empty() || !got.head.empty()) &&
           std::equal(read.begin(), read.end(),
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

TEST(SendQueueTest, StraddleOfTwoWritesIsTwoViews) {
  OneHost world;
  SendQueue q(world.host, 64);
  const wire::BufSlice a = wire::BufSlice::copy_of(bytes({1, 2, 3, 4}));
  const wire::BufSlice b = wire::BufSlice::copy_of(bytes({5, 6, 7}));
  ASSERT_EQ(q.write(a), 4u);
  ASSERT_EQ(q.write(b), 3u);
  const std::uint64_t copied0 = payload_copied();
  const SegmentPayload seg = q.payload_at(2, 4);
  EXPECT_EQ(payload_copied(), copied0);
  EXPECT_EQ(seg.head.data(), a.data() + 2);  // views of the written slabs
  EXPECT_EQ(seg.head.size(), 2u);
  EXPECT_EQ(seg.tail.data(), b.data());
  EXPECT_EQ(seg.tail.size(), 2u);
  EXPECT_EQ(bytes_of(seg), bytes({3, 4, 5, 6}));
  // Within one write: one view, no tail.
  const SegmentPayload inner = q.payload_at(4, 3);
  EXPECT_EQ(inner.head.data(), b.data());
  EXPECT_TRUE(inner.tail.empty());
}

TEST(SendQueueTest, RangeOverThreeWritesIsGatheredOnce) {
  OneHost world;
  SendQueue q(world.host, 64);
  ASSERT_EQ(q.write(wire::BufSlice::copy_of(bytes({1, 2}))), 2u);
  ASSERT_EQ(q.write(wire::BufSlice::copy_of(bytes({3}))), 1u);
  ASSERT_EQ(q.write(wire::BufSlice::copy_of(bytes({4, 5}))), 2u);
  const std::uint64_t copied0 = payload_copied();
  const SegmentPayload seg = q.payload_at(1, 4);
  EXPECT_EQ(payload_copied(), copied0 + 4);  // one counted copy of the range
  EXPECT_TRUE(seg.tail.empty());
  EXPECT_TRUE(seg.head.unique());  // a slab of its own
  EXPECT_EQ(bytes_of(seg), bytes({2, 3, 4, 5}));
}

// --- ReassemblyBuffer ---

/// Offers [at, at + data.size()) and collects every run the buffer
/// surrenders, in order.
std::vector<std::uint8_t> offer(ReassemblyBuffer& rb, std::uint64_t at,
                                const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out;
  rb.offer(at, wire::BufSlice::borrowed(data),
           [&out](const wire::BufSlice& run) {
             out.insert(out.end(), run.span().begin(), run.span().end());
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

TEST(ReassemblyTest, ParkingAnOwningSliceCopiesNothing) {
  // Segments carry views of the sender's slab; parking one out of order
  // keeps a sub-view of that slab instead of copying its bytes.
  const auto payload = bytes({1, 2, 3, 4, 5, 6});
  const wire::BufSlice seg = wire::BufSlice::copy_of(payload);
  ASSERT_EQ(seg.ref_count(), 1u);
  const std::uint64_t copied0 =
      wire::SlabPool::instance().stats().payload_bytes_copied;
  ReassemblyBuffer rb(1024);
  std::vector<std::uint8_t> out;
  const auto sink = [&out](const wire::BufSlice& run) {
    out.insert(out.end(), run.span().begin(), run.span().end());
  };
  rb.offer(2, seg, sink);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(seg.ref_count(), 2u);  // the parked view pins the slab
  EXPECT_EQ(wire::SlabPool::instance().stats().payload_bytes_copied, copied0);
  const auto head = bytes({9, 9});
  rb.offer(0, wire::BufSlice::borrowed(head), sink);
  EXPECT_EQ(out, bytes({9, 9, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(seg.ref_count(), 1u);  // delivered: the view is gone
}

TEST(ReassemblyTest, ParkingABorrowedSliceCopiesIt) {
  // A borrowed view's bytes may not outlive the call: parking copies them.
  auto payload = bytes({1, 2, 3});
  const std::uint64_t copied0 =
      wire::SlabPool::instance().stats().payload_bytes_copied;
  ReassemblyBuffer rb(1024);
  std::vector<std::uint8_t> out;
  const auto sink = [&out](const wire::BufSlice& run) {
    out.insert(out.end(), run.span().begin(), run.span().end());
  };
  rb.offer(1, wire::BufSlice::borrowed(payload), sink);
  EXPECT_EQ(wire::SlabPool::instance().stats().payload_bytes_copied,
            copied0 + payload.size());
  std::fill(payload.begin(), payload.end(), 0);  // the caller reuses its bytes
  const auto head = bytes({7});
  rb.offer(0, wire::BufSlice::borrowed(head), sink);
  EXPECT_EQ(out, bytes({7, 1, 2, 3}));
}

/// A segment straddling two writes: [1, 2, 3] of one slab and [4, 5, 6] of
/// another.
struct TwoViewSegment {
  wire::BufSlice first = wire::BufSlice::copy_of(bytes({1, 2, 3}));
  wire::BufSlice second = wire::BufSlice::copy_of(bytes({4, 5, 6}));
  SegmentPayload payload{first, second};
};

TEST(ReassemblyTest, TwoViewSegmentInOrderPassesItsOwnViews) {
  const TwoViewSegment seg;
  ReassemblyBuffer rb(1024);
  std::vector<const std::uint8_t*> runs;
  rb.offer(0, seg.payload, [&](const wire::BufSlice& run) {
    runs.push_back(run.data());
    EXPECT_EQ(run.ref_count(), 2u);  // the segment's view, not a new one
  });
  EXPECT_EQ(runs, (std::vector<const std::uint8_t*>{seg.first.data(),
                                                    seg.second.data()}));
  EXPECT_EQ(rb.expected(), 6u);
}

TEST(ReassemblyTest, TwoViewSegmentParkedIsTrimmedAcrossItsViews) {
  const TwoViewSegment seg;
  const std::uint64_t copied0 = payload_copied();
  ReassemblyBuffer rb(1024);
  std::vector<std::uint8_t> out;
  std::vector<const std::uint8_t*> runs;
  const auto sink = [&](const wire::BufSlice& run) {
    out.insert(out.end(), run.span().begin(), run.span().end());
    runs.push_back(run.data());
  };
  // Parked at [10, 16), then its first two bytes are covered by a parked
  // predecessor [8, 12) and its last by a parked successor [15, 17): the
  // kept range [12, 15) holds the last byte of the first view and two of
  // the second.
  const auto pre = bytes({90, 91, 1, 2});
  const auto post = bytes({6, 97});
  rb.offer(8, wire::BufSlice::copy_of(pre), sink);
  rb.offer(15, wire::BufSlice::copy_of(post), sink);
  rb.offer(10, seg.payload, sink);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rb.buffered_bytes(), 4u + 2u + 3u);
  // Parked as views, not copies: one reference more than the slice and
  // the segment hold.
  EXPECT_EQ(seg.first.ref_count(), 3u);
  EXPECT_EQ(seg.second.ref_count(), 3u);
  const auto head = bytes({80, 81, 82, 83, 84, 85, 86, 87});
  rb.offer(0, wire::BufSlice::borrowed(head), sink);
  EXPECT_EQ(out, bytes({80, 81, 82, 83, 84, 85, 86, 87, 90, 91, 1, 2, 3, 4,
                        5, 6, 97}));
  ASSERT_EQ(runs.size(), 5u);
  EXPECT_EQ(runs[2], seg.first.data() + 2);
  EXPECT_EQ(runs[3], seg.second.data());
  EXPECT_EQ(rb.buffered_bytes(), 0u);
  EXPECT_EQ(seg.first.ref_count(), 2u);
  EXPECT_EQ(seg.second.ref_count(), 2u);
  // Only the two owning copies made above.
  EXPECT_EQ(payload_copied(), copied0 + pre.size() + post.size());
}

TEST(ReassemblyTest, TwoViewSegmentDroppedWholeAtTheBudget) {
  const TwoViewSegment seg;
  ReassemblyBuffer rb(8);
  const auto sink = [](const wire::BufSlice&) {};
  rb.offer(20, wire::BufSlice::copy_of(bytes({1, 2, 3})), sink);
  // 3 parked + 6 would pass the budget of 8 although the first view fits.
  rb.offer(10, seg.payload, sink);
  EXPECT_EQ(rb.drops(), 1u);
  EXPECT_EQ(rb.buffered_bytes(), 3u);
  EXPECT_EQ(rb.available(), 5u);
  EXPECT_EQ(seg.first.ref_count(), 2u);  // nothing of it kept
  EXPECT_EQ(seg.second.ref_count(), 2u);
  // With room, the same segment parks whole.
  ReassemblyBuffer roomy(9);
  roomy.offer(20, wire::BufSlice::copy_of(bytes({1, 2, 3})), sink);
  roomy.offer(10, seg.payload, sink);
  EXPECT_EQ(roomy.drops(), 0u);
  EXPECT_EQ(roomy.buffered_bytes(), 9u);
  EXPECT_EQ(roomy.available(), 0u);
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
