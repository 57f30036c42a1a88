// Receiver-side in-order reassembly, the receive buffer of the
// stream-connection core.
//
// Out-of-order byte segments are buffered (bounded by a configurable budget —
// exceeding it drops the segment, which is exactly the receive-buffer overflow
// the paper hit with UDT's 12 MB default buffers on high-BDP links) and
// contiguous prefixes are surrendered to the application.
//
// offer() copies nothing on the stream transports' path. A segment's payload
// is one view of a write, or two views when it straddles two writes
// (SegmentPayload). A segment arriving in order reaches the sink as its own
// views; an out-of-order one is parked as views of the same slabs — which
// the sender keeps until the bytes are acknowledged anyway — and parked
// segments that become contiguous are surrendered straight out of those
// views. A parked segment is trimmed and budgeted as one unit, whatever its
// number of views. Only a borrowed view is copied when parked, since its
// bytes may not outlive the call.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "wire/buffer.hpp"

namespace kmsg::transport {

/// A segment's stream bytes: a view of the write they lie in, or for a
/// segment straddling two writes, a view of each, in stream order — as
/// UDT's own packet points at the sender's buffer through an iovec pair
/// instead of copying it. `tail` is empty unless `head` is not.
struct SegmentPayload {
  wire::BufSlice head;
  wire::BufSlice tail;

  SegmentPayload() = default;
  /// One view (implicit: a single slice is a one-view payload).
  SegmentPayload(wire::BufSlice one) : head(std::move(one)) {}
  SegmentPayload(wire::BufSlice first, wire::BufSlice second)
      : head(std::move(first)), tail(std::move(second)) {}

  std::size_t size() const { return head.size() + tail.size(); }
  bool empty() const { return head.empty(); }

  /// Bytes [offset, offset + len) as views of the same slabs. Requires
  /// offset + len <= size().
  SegmentPayload slice(std::size_t offset, std::size_t len) const;
  /// Owning version: each borrowed view becomes a counted copy.
  SegmentPayload to_owned() const;

  /// Calls fn(const wire::BufSlice&) on each non-empty view, in order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!head.empty()) fn(head);
    if (!tail.empty()) fn(tail);
  }
};

class ReassemblyBuffer {
 public:
  explicit ReassemblyBuffer(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Next byte offset expected in order.
  std::uint64_t expected() const { return expected_; }
  /// Bytes currently parked out of order.
  std::size_t buffered_bytes() const { return buffered_; }
  std::size_t capacity() const { return capacity_; }
  /// Space the receiver can still advertise (capacity minus parked bytes).
  std::size_t available() const {
    return buffered_ >= capacity_ ? 0 : capacity_ - buffered_;
  }
  std::uint64_t drops() const { return drops_; }
  /// Highest byte offset seen (end of the furthest segment offered),
  /// including bytes that were dropped for lack of buffer space.
  std::uint64_t highest_seen() const { return highest_seen_; }

  /// Enumerates the holes in [expected, highest_seen): byte ranges that have
  /// not been received (or were dropped). At most `max_ranges` are returned.
  /// This feeds UDT's NAK reports.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing_ranges(
      std::size_t max_ranges) const;

  /// Offers a segment [at, at+data.size()). Newly contiguous bytes are
  /// surrendered in order through `sink(const wire::BufSlice&)`, one view
  /// per call, possibly several per offer. An in-order segment reaches the
  /// sink as its own views, untouched when nothing of it was delivered
  /// before (no reference-count traffic), else trimmed; an out-of-order one
  /// is parked as views of the same slabs (SegmentPayload::to_owned). The
  /// sink must not re-enter this buffer. Duplicate and overlapping bytes are
  /// trimmed; segments that would exceed the buffering budget are dropped
  /// (counted in drops()).
  template <typename Sink>
  void offer(std::uint64_t at, const SegmentPayload& data, Sink&& sink) {
    const std::size_t size = data.size();
    if (size == 0) return;
    const std::uint64_t seg_end = at + size;
    if (seg_end > highest_seen_) highest_seen_ = seg_end;

    // Trim anything already delivered.
    if (seg_end <= expected_) return;
    if (at <= expected_) {
      // Fast path: extends the contiguous prefix — deliver in place.
      const auto skip = static_cast<std::size_t>(expected_ - at);
      expected_ = seg_end;
      surrender(data, skip, sink);
      absorb(sink);
      return;
    }
    park(at, data);
  }

 private:
  /// Parks an out-of-order segment, trimming overlap against already-parked
  /// neighbours.
  void park(std::uint64_t at, const SegmentPayload& data);

  /// Hands the sink `seg`'s bytes from `skip` on: its own views when nothing
  /// is skipped, else trimmed ones.
  template <typename Sink>
  static void surrender(const SegmentPayload& seg, std::size_t skip,
                        Sink& sink) {
    if (skip == 0) {
      seg.for_each(sink);
    } else {
      seg.slice(skip, seg.size() - skip).for_each(sink);
    }
  }

  /// Surrenders parked segments made contiguous by an advance of expected_.
  template <typename Sink>
  void absorb(Sink&& sink) {
    for (;;) {
      auto it = segments_.begin();
      if (it == segments_.end() || it->first > expected_) break;
      auto node = segments_.extract(it);
      const SegmentPayload& seg = node.mapped();
      const std::size_t size = seg.size();
      buffered_ -= size;
      const std::uint64_t it_end = node.key() + size;
      if (it_end > expected_) {
        const auto skip = static_cast<std::size_t>(expected_ - node.key());
        expected_ = it_end;
        surrender(seg, skip, sink);
      }
    }
  }

  std::size_t capacity_;
  std::uint64_t expected_ = 0;
  std::size_t buffered_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t highest_seen_ = 0;
  std::map<std::uint64_t, SegmentPayload> segments_;
};

}  // namespace kmsg::transport
