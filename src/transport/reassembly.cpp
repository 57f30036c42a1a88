#include "transport/reassembly.hpp"

#include <algorithm>

namespace kmsg::transport {

void ReassemblyBuffer::park(std::uint64_t at, const wire::BufSlice& data) {
  // The parked range is data[lo, hi), starting at stream offset at + lo.
  std::size_t lo = 0;
  std::size_t hi = data.size();
  // Trim against a predecessor that overlaps our start.
  auto it = segments_.upper_bound(at);
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end >= at + hi) return;  // fully covered
    if (prev_end > at) lo = static_cast<std::size_t>(prev_end - at);
  }
  // Then trim our tail against successors (drop covered successors).
  while (true) {
    auto next = segments_.lower_bound(at + lo);
    if (next == segments_.end() || next->first >= at + hi) break;
    const std::uint64_t next_end = next->first + next->second.size();
    if (next_end <= at + hi) {
      buffered_ -= next->second.size();
      segments_.erase(next);
      continue;
    }
    hi = static_cast<std::size_t>(next->first - at);
    break;
  }
  if (lo >= hi) return;
  const std::size_t len = hi - lo;
  if (buffered_ + len > capacity_) {
    ++drops_;
    return;  // receive buffer overflow: segment lost
  }
  buffered_ += len;
  segments_.emplace(at + lo, data.slice(lo, len).to_owned());
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ReassemblyBuffer::missing_ranges(
    std::size_t max_ranges) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = expected_;
  for (const auto& [at, seg] : segments_) {
    if (out.size() >= max_ranges) return out;
    if (at > cursor) out.emplace_back(cursor, at);
    cursor = std::max(cursor, at + seg.size());
  }
  if (cursor < highest_seen_ && out.size() < max_ranges) {
    out.emplace_back(cursor, highest_seen_);
  }
  return out;
}

}  // namespace kmsg::transport
