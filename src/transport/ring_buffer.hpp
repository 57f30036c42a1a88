// Fixed-capacity byte ring addressed by an absolute, monotonically growing
// stream offset. This is the send buffer of the stream-connection core: bytes
// are appended at the tail, read back at arbitrary offsets for
// (re)transmission, and released from the head as they are acknowledged.
//
// The storage is allocated uninitialised, so a connection's buffer costs
// pages only as far as data has actually been written into it — opening a
// connection with the paper's 100 MB UDT buffers does not fault them in.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace kmsg::transport {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  /// Absolute offset of the first retained (unacknowledged) byte.
  std::uint64_t base() const { return base_; }
  /// Absolute offset one past the last appended byte.
  std::uint64_t end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }
  std::size_t free_space() const { return capacity() - size(); }
  bool empty() const { return base_ == end_; }

  /// Appends as many bytes from `data` as fit; returns the count appended.
  std::size_t write(std::span<const std::uint8_t> data);

  /// Copies `len` bytes starting at absolute offset `at` into a fresh vector.
  /// Requires [at, at+len) within [base, end).
  std::vector<std::uint8_t> read_at(std::uint64_t at, std::size_t len) const;

  /// Releases all bytes below absolute offset `to` (clamped to [base, end]).
  void release_until(std::uint64_t to);

 private:
  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace kmsg::transport
