#include "wire/snappy.hpp"

#include <algorithm>
#include <cstring>

#include "wire/framing.hpp"

namespace kmsg::wire {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 131;   // tag encodes length-4 in 7 bits
constexpr std::size_t kMaxLiteral = 128;  // tag encodes run-1 in 7 bits
constexpr std::size_t kWindow = 65535;    // u16 offset
constexpr std::size_t kHashBits = 14;

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::size_t hash4(std::uint32_t v) {
  return static_cast<std::size_t>((v * 0x9E3779B1u) >> (32 - kHashBits));
}

void write_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool read_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                 std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (pos < in.size()) {
    const std::uint8_t b = in[pos++];
    if (shift >= 64) return false;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return true;
    shift += 7;
  }
  return false;
}

void emit_literals(std::vector<std::uint8_t>& out, const std::uint8_t* base,
                   std::size_t from, std::size_t to) {
  while (from < to) {
    const std::size_t run = std::min(to - from, kMaxLiteral);
    out.push_back(static_cast<std::uint8_t>(run - 1));  // high bit clear
    out.insert(out.end(), base + from, base + from + run);
    from += run;
  }
}

}  // namespace

std::vector<std::uint8_t> snappy_compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  write_varint(out, input.size());
  const std::uint8_t* p = input.data();
  const std::size_t n = input.size();

  std::vector<std::uint32_t> table(1u << kHashBits, 0xffffffffu);
  std::size_t i = 0;
  std::size_t literal_start = 0;

  while (i + kMinMatch <= n) {
    const std::uint32_t v = load32(p + i);
    const std::size_t h = hash4(v);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand != 0xffffffffu && i - cand <= kWindow && load32(p + cand) == v) {
      // Extend the match.
      std::size_t len = kMinMatch;
      const std::size_t max_len = std::min(kMaxMatch, n - i);
      while (len < max_len && p[cand + len] == p[i + len]) ++len;
      emit_literals(out, p, literal_start, i);
      out.push_back(static_cast<std::uint8_t>(0x80 | (len - kMinMatch)));
      const std::uint16_t off = static_cast<std::uint16_t>(i - cand);
      out.push_back(static_cast<std::uint8_t>(off >> 8));
      out.push_back(static_cast<std::uint8_t>(off));
      i += len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  emit_literals(out, p, literal_start, n);
  return out;
}

std::optional<std::vector<std::uint8_t>> snappy_decompress(
    std::span<const std::uint8_t> input) {
  std::size_t pos = 0;
  std::uint64_t expected = 0;
  if (!read_varint(input, pos, expected)) return std::nullopt;
  // Every receiver decompresses whatever a peer tags as a snappy block, so
  // the claimed length is outside input: no message may inflate past what
  // one frame may carry.
  if (expected > kDefaultMaxFrameBytes) return std::nullopt;

  std::vector<std::uint8_t> out;
  // Reserve only what the remaining input could actually produce: a copy tag
  // (3 bytes) emits at most 0x7f + kMinMatch bytes, so a truncated stream
  // whose length varint claims gigabytes cannot bomb the allocator here.
  const std::size_t max_producible = (input.size() - pos) * kMaxMatch;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(expected, max_producible)));
  while (pos < input.size()) {
    const std::uint8_t tag = input[pos++];
    if (tag & 0x80) {
      const std::size_t len = static_cast<std::size_t>(tag & 0x7f) + kMinMatch;
      if (pos + 2 > input.size()) return std::nullopt;
      const std::size_t off = (static_cast<std::size_t>(input[pos]) << 8) |
                              input[pos + 1];
      pos += 2;
      if (off == 0 || off > out.size()) return std::nullopt;
      // Byte-by-byte copy: overlapping copies replicate (RLE semantics).
      std::size_t src = out.size() - off;
      for (std::size_t k = 0; k < len; ++k) out.push_back(out[src + k]);
    } else {
      const std::size_t run = static_cast<std::size_t>(tag) + 1;
      if (pos + run > input.size()) return std::nullopt;
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
                 input.begin() + static_cast<std::ptrdiff_t>(pos + run));
      pos += run;
    }
    if (out.size() > expected) return std::nullopt;
  }
  if (out.size() != expected) return std::nullopt;
  return out;
}

}  // namespace kmsg::wire
