#include "transport/ring_buffer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace kmsg::transport {

RingBuffer::RingBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("RingBuffer capacity must be > 0");
  buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
}

std::size_t RingBuffer::write(std::span<const std::uint8_t> data) {
  const std::size_t n = std::min(data.size(), free_space());
  std::size_t written = 0;
  while (written < n) {
    const std::size_t pos = static_cast<std::size_t>(end_ % capacity());
    const std::size_t chunk = std::min(n - written, capacity() - pos);
    std::memcpy(buf_.get() + pos, data.data() + written, chunk);
    written += chunk;
    end_ += chunk;
  }
  return n;
}

std::vector<std::uint8_t> RingBuffer::read_at(std::uint64_t at, std::size_t len) const {
  if (at < base_ || at + len > end_) {
    throw std::out_of_range("RingBuffer::read_at outside retained range");
  }
  std::vector<std::uint8_t> out(len);
  std::size_t read = 0;
  while (read < len) {
    const std::size_t pos = static_cast<std::size_t>((at + read) % capacity());
    const std::size_t chunk = std::min(len - read, capacity() - pos);
    std::memcpy(out.data() + read, buf_.get() + pos, chunk);
    read += chunk;
  }
  return out;
}

void RingBuffer::release_until(std::uint64_t to) {
  base_ = std::clamp(to, base_, end_);
}

}  // namespace kmsg::transport
