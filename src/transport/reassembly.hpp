// Receiver-side in-order reassembly, the receive buffer of the
// stream-connection core.
//
// Out-of-order byte segments are buffered (bounded by a configurable budget —
// exceeding it drops the segment, which is exactly the receive-buffer overflow
// the paper hit with UDT's 12 MB default buffers on high-BDP links) and
// contiguous prefixes are surrendered to the application.
//
// offer() copies nothing on the stream transports' path: a segment arriving
// in order is handed to the sink as a span of the segment's own payload, an
// out-of-order segment is parked as a sub-slice of it — a view that shares
// the sender's slab, which the sender keeps until the bytes are acknowledged
// anyway — and parked segments that become contiguous are delivered as one
// sink call each, straight out of that view. Only a borrowed slice is copied
// when parked, since its bytes may not outlive the call.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "wire/buffer.hpp"

namespace kmsg::transport {

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

  /// Offers a segment [at, at+data.size()). Newly contiguous runs of bytes
  /// are surrendered in order through `sink(std::span<const std::uint8_t>)`,
  /// possibly more than once per call. An in-order segment reaches the sink
  /// as (a trim of) its own bytes; an out-of-order one is parked as a
  /// sub-slice of `data` (BufSlice::to_owned: a view of an owning slice, a
  /// copy of a borrowed one). The sink must not re-enter this buffer.
  /// Duplicate and overlapping bytes are trimmed; segments that would exceed
  /// the buffering budget are dropped (counted in drops()).
  template <typename Sink>
  void offer(std::uint64_t at, const wire::BufSlice& data, Sink&& sink) {
    if (data.empty()) return;
    const std::uint64_t seg_end = at + data.size();
    if (seg_end > highest_seen_) highest_seen_ = seg_end;

    // Trim anything already delivered.
    if (seg_end <= expected_) return;
    if (at <= expected_) {
      // Fast path: extends the contiguous prefix — deliver in place.
      const auto skip = static_cast<std::size_t>(expected_ - at);
      expected_ = seg_end;
      sink(data.span().subspan(skip));
      absorb(sink);
      return;
    }
    park(at, data);
  }

 private:
  /// Parks an out-of-order segment, trimming overlap against already-parked
  /// neighbours.
  void park(std::uint64_t at, const wire::BufSlice& data);

  /// Surrenders parked segments made contiguous by an advance of expected_.
  template <typename Sink>
  void absorb(Sink&& sink) {
    for (;;) {
      auto it = segments_.begin();
      if (it == segments_.end() || it->first > expected_) break;
      auto node = segments_.extract(it);
      const wire::BufSlice& seg = node.mapped();
      buffered_ -= seg.size();
      const std::uint64_t it_end = node.key() + seg.size();
      if (it_end > expected_) {
        const auto skip = static_cast<std::size_t>(expected_ - node.key());
        expected_ = it_end;
        sink(seg.span().subspan(skip));
      }
    }
  }

  std::size_t capacity_;
  std::uint64_t expected_ = 0;
  std::size_t buffered_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t highest_seen_ = 0;
  std::map<std::uint64_t, wire::BufSlice> segments_;
};

}  // namespace kmsg::transport
