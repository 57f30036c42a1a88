#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "transport/reassembly.hpp"
#include "transport/ring_buffer.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// --- RingBuffer ---

TEST(RingBufferTest, WriteReadRelease) {
  RingBuffer rb(16);
  auto data = bytes({1, 2, 3, 4, 5});
  EXPECT_EQ(rb.write(data), 5u);
  EXPECT_EQ(rb.size(), 5u);
  EXPECT_EQ(rb.read_at(0, 5), data);
  EXPECT_EQ(rb.read_at(2, 2), bytes({3, 4}));
  rb.release_until(3);
  EXPECT_EQ(rb.base(), 3u);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.read_at(3, 2), bytes({4, 5}));
}

TEST(RingBufferTest, PartialWriteWhenFull) {
  RingBuffer rb(4);
  auto data = bytes({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(rb.write(data), 4u);
  EXPECT_EQ(rb.free_space(), 0u);
  EXPECT_EQ(rb.write(data), 0u);
  rb.release_until(2);
  EXPECT_EQ(rb.write(data), 2u);
  EXPECT_EQ(rb.read_at(4, 2), bytes({1, 2}));
}

TEST(RingBufferTest, WrapAroundPreservesContent) {
  // Property: the retained window always equals the corresponding slice of
  // the full byte history, across arbitrary write/release interleavings
  // (exercising wrap-around many times at capacity 8).
  RingBuffer rb(8);
  Rng rng(1);
  std::vector<std::uint8_t> history;  // every byte ever accepted
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = 1 + rng.next_below(5);
    std::vector<std::uint8_t> chunk(n);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
    const std::size_t written = rb.write(chunk);
    history.insert(history.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(written));
    ASSERT_EQ(rb.end(), history.size());
    if (rb.size() > 0) {
      const auto window = rb.read_at(rb.base(), rb.size());
      for (std::size_t i = 0; i < window.size(); ++i) {
        ASSERT_EQ(window[i], history[static_cast<std::size_t>(rb.base()) + i])
            << "round " << round << " index " << i;
      }
    }
    rb.release_until(rb.base() + rng.next_below(rb.size() + 1));
  }
}

TEST(RingBufferTest, ReadOutsideRangeThrows) {
  RingBuffer rb(8);
  rb.write(bytes({1, 2, 3}));
  EXPECT_THROW(rb.read_at(0, 4), std::out_of_range);
  rb.release_until(2);
  EXPECT_THROW(rb.read_at(1, 1), std::out_of_range);
  EXPECT_NO_THROW(rb.read_at(2, 1));
}

TEST(RingBufferTest, ReleaseClamped) {
  RingBuffer rb(8);
  rb.write(bytes({1, 2, 3}));
  rb.release_until(100);  // clamped to end
  EXPECT_EQ(rb.base(), 3u);
  EXPECT_TRUE(rb.empty());
  rb.release_until(0);  // cannot go backwards
  EXPECT_EQ(rb.base(), 3u);
}

TEST(RingBufferTest, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer(0), std::invalid_argument);
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
