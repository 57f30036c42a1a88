#include "wire/framing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "wire/bytebuf.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define KMSG_CRC_CLMUL 1
#else
#define KMSG_CRC_CLMUL 0
#endif

namespace kmsg::wire {

namespace {

// Slicing-by-8 CRC-32 (IEEE polynomial): table[0] is the classic byte-at-a-
// time table; tables 1..7 extend it so the hot loop folds 8 input bytes per
// step with 8 independent lookups. Bit-identical to the byte-wise algorithm
// at roughly 4x its throughput. It is crc32's portable path, its path for
// short inputs and unaligned ends, and the reference the tests hold the
// folding path to.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t s = 1; s < 8; ++s) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[s][i] = c;
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

/// Advances the running (pre-inverted) CRC state `c` over n bytes.
std::uint32_t crc_sliced(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n) {
  // The 8-byte step below assumes little-endian loads; every supported
  // target is little-endian, and the byte-wise tail loop is the generic path.
  static_assert(std::endian::native == std::endian::little);
  while (n >= 8) {
    // memcpy compiles to one unaligned load; byte order is handled by XORing
    // the little-endian low word into the running CRC.
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, p, 8);
    chunk ^= c;
    c = kCrcTables[7][chunk & 0xFFu] ^
        kCrcTables[6][(chunk >> 8) & 0xFFu] ^
        kCrcTables[5][(chunk >> 16) & 0xFFu] ^
        kCrcTables[4][(chunk >> 24) & 0xFFu] ^
        kCrcTables[3][(chunk >> 32) & 0xFFu] ^
        kCrcTables[2][(chunk >> 40) & 0xFFu] ^
        kCrcTables[1][(chunk >> 48) & 0xFFu] ^
        kCrcTables[0][(chunk >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  for (; n != 0; --n, ++p) {
    c = kCrcTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if KMSG_CRC_CLMUL
/// Shortest 16-byte-aligned run worth folding: the fold loads four blocks
/// before its first step.
constexpr std::size_t kFoldMinBytes = 64;
/// Shortest 16-byte-aligned run the 512-bit fold takes: it loads four
/// 64-byte vectors before its first step.
constexpr std::size_t kFold512MinBytes = 256;

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected form the IEEE CRC uses. Four 128-bit accumulators each take
// one 16-byte block per step: multiplying an accumulator's two 64-bit halves
// by the constants below and XORing the products into the next block moves
// its value 64 bytes down the message without changing its remainder mod P.
// The four are then folded into one at a 16-byte distance, that one is
// reduced to 64 and 32 bits, and a Barrett step takes it mod P. Each
// constant is x^e mod P, bit-reflected and shifted left by one; moving a
// value d bits down pairs e = d + 32 (low half) with e = d - 32 (high half).
constexpr long long kFold4x128Lo = 0x154442bd4;  // e = 4*128 + 32
constexpr long long kFold4x128Hi = 0x1c6e41596;  // e = 4*128 - 32
constexpr long long kFold1x128Lo = 0x1751997d0;  // e = 128 + 32
constexpr long long kFold1x128Hi = 0x0ccaa009e;  // e = 128 - 32
constexpr long long kFold64 = 0x163cd6124;       // e = 64
constexpr long long kPoly = 0x1db710641;         // P, reflected
constexpr long long kBarrettMu = 0x1f7011641;    // x^64 / P, reflected
// The 512-bit fold: four 64-byte accumulators move 256 bytes per step, and
// the last one's four 128-bit lanes move 48, 32 and 16 bytes onto lane 3.
constexpr long long kFold4x512Lo = 0x11542778a;  // e = 16*128 + 32
constexpr long long kFold4x512Hi = 0x1322d1430;  // e = 16*128 - 32
constexpr long long kFold3x128Lo = 0x03db1ecdc;  // e = 3*128 + 32
constexpr long long kFold3x128Hi = 0x174359406;  // e = 3*128 - 32
constexpr long long kFold2x128Lo = 0x0f1da05aa;  // e = 2*128 + 32
constexpr long long kFold2x128Hi = 0x15a546366;  // e = 2*128 - 32

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold_block(
    __m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds the 16-byte blocks at `b` (n bytes, a multiple of 16) into the
/// accumulator `x0`, then reduces it to the 32-bit CRC state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t finish_folded(
    __m128i x0, const __m128i* b, std::size_t n) {
  __m128i k = _mm_set_epi64x(kFold1x128Hi, kFold1x128Lo);
  for (; n >= 16; n -= 16, ++b) x0 = fold_block(x0, k, _mm_load_si128(b));

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  const __m128i mask32 = _mm_set_epi32(0, -1, 0, -1);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(k, x0, 0x01));
  __m128i x1 = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                            _mm_set_epi64x(0, kFold64), 0x00);
  x0 = _mm_xor_si128(x0, x1);
  // Barrett reduction mod P.
  k = _mm_set_epi64x(kBarrettMu, kPoly);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, x1), 1));
}

/// Advances the running CRC state over `n` bytes at the 16-byte-aligned `p`;
/// n is a multiple of 16 and at least kFoldMinBytes.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc_folded(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const auto* b = reinterpret_cast<const __m128i*>(p);
  __m128i x0 = _mm_xor_si128(_mm_load_si128(b),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = _mm_load_si128(b + 1);
  __m128i x2 = _mm_load_si128(b + 2);
  __m128i x3 = _mm_load_si128(b + 3);
  b += 4;
  n -= 64;
  __m128i k = _mm_set_epi64x(kFold4x128Hi, kFold4x128Lo);
  for (; n >= 64; n -= 64, b += 4) {
    x0 = fold_block(x0, k, _mm_load_si128(b));
    x1 = fold_block(x1, k, _mm_load_si128(b + 1));
    x2 = fold_block(x2, k, _mm_load_si128(b + 2));
    x3 = fold_block(x3, k, _mm_load_si128(b + 3));
  }
  k = _mm_set_epi64x(kFold1x128Hi, kFold1x128Lo);
  x0 = fold_block(x0, k, x1);
  x0 = fold_block(x0, k, x2);
  x0 = fold_block(x0, k, x3);
  return finish_folded(x0, b, n);
}

/// fold_block on four 128-bit lanes at once, each with its own constants.
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i fold_512(
    __m512i acc, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

/// crc_folded at 512 bits: four 64-byte accumulators take 256 bytes per
/// step, collapse into one at a 64-byte distance, which then takes 64 bytes
/// per step; its lanes fold onto one 128-bit accumulator for finish_folded.
/// `p` is 16-byte aligned; n is a multiple of 16 and at least
/// kFold512MinBytes.
__attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1"))) std::uint32_t
crc_folded_512(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  __m512i x0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  p += 256;
  n -= 256;
  __m512i k = _mm512_set_epi64(kFold4x512Hi, kFold4x512Lo, kFold4x512Hi,
                               kFold4x512Lo, kFold4x512Hi, kFold4x512Lo,
                               kFold4x512Hi, kFold4x512Lo);
  for (; n >= 256; n -= 256, p += 256) {
    x0 = fold_512(x0, k, _mm512_loadu_si512(p));
    x1 = fold_512(x1, k, _mm512_loadu_si512(p + 64));
    x2 = fold_512(x2, k, _mm512_loadu_si512(p + 128));
    x3 = fold_512(x3, k, _mm512_loadu_si512(p + 192));
  }
  k = _mm512_set_epi64(kFold4x128Hi, kFold4x128Lo, kFold4x128Hi, kFold4x128Lo,
                       kFold4x128Hi, kFold4x128Lo, kFold4x128Hi, kFold4x128Lo);
  x0 = fold_512(x0, k, x1);
  x0 = fold_512(x0, k, x2);
  x0 = fold_512(x0, k, x3);
  for (; n >= 64; n -= 64, p += 64) x0 = fold_512(x0, k, _mm512_loadu_si512(p));
  // Lanes 0-2 move onto lane 3, which is blended in as it is (its zero
  // constants would give zero), and the four lanes are XORed together.
  // Through memory: GCC 12's lane extracts trip a false -Wuninitialized.
  k = _mm512_set_epi64(0, 0, kFold1x128Hi, kFold1x128Lo, kFold2x128Hi,
                       kFold2x128Lo, kFold3x128Hi, kFold3x128Lo);
  __m128i lanes[4] = {};
  _mm512_storeu_si512(
      lanes, _mm512_mask_blend_epi64(
                 0xC0,
                 _mm512_xor_si512(_mm512_clmulepi64_epi128(x0, k, 0x00),
                                  _mm512_clmulepi64_epi128(x0, k, 0x11)),
                 x0));
  const __m128i one = _mm_xor_si128(_mm_xor_si128(lanes[0], lanes[1]),
                                    _mm_xor_si128(lanes[2], lanes[3]));
  return finish_folded(one, reinterpret_cast<const __m128i*>(p), n);
}
#endif

/// Top bit of the length word: the payload is a coalesced run of messages.
constexpr std::uint32_t kCoalescedBit = 0x80000000u;

/// The frame's CRC word: a coalesced frame inverts its payload CRC, so a
/// flipped flag bit fails the check like a flipped payload bit.
std::uint32_t frame_crc(std::span<const std::uint8_t> payload,
                        bool coalesced) {
  return coalesced ? ~crc32(payload) : crc32(payload);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

unsigned crc32_fold_width() {
#if KMSG_CRC_CLMUL
  static const unsigned width = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("sse4.1")) {
      return 0u;
    }
    return __builtin_cpu_supports("vpclmulqdq") &&
                   __builtin_cpu_supports("avx512f")
               ? 512u
               : 128u;
  }();
  return width;
#else
  return 0;
#endif
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if KMSG_CRC_CLMUL
  const unsigned width = n >= kFoldMinBytes ? crc32_fold_width() : 0;
  if (width != 0) {
    // Tables up to the first 16-byte boundary, folding over the aligned
    // bulk, tables again for the last < 16 bytes.
    const std::size_t head = -reinterpret_cast<std::uintptr_t>(p) & 15u;
    const std::size_t bulk = (n - head) & ~std::size_t{15};
    if (bulk >= kFoldMinBytes) {
      c = crc_sliced(c, p, head);
      c = width == 512 && bulk >= kFold512MinBytes
              ? crc_folded_512(c, p + head, bulk)
              : crc_folded(c, p + head, bulk);
      p += head + bulk;
      n -= head + bulk;
    }
  }
#endif
  return crc_sliced(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_sliced(std::span<const std::uint8_t> data) {
  return crc_sliced(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + kFrameHeaderBytes);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

BufSlice encode_wire_coalesced(std::span<const BufSlice> subs,
                               std::size_t headroom) {
  std::size_t total = 0;
  for (const BufSlice& s : subs) total += 5 + s.size();  // worst-case varint
  ByteBuf out{total, headroom};
  for (const BufSlice& s : subs) {
    out.write_varint(s.size());
    out.write_bytes(s.span());
  }
  return std::move(out).take_slice();
}

BufSlice encode_frame_slice(BufSlice payload, bool coalesced) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size()) |
                            (coalesced ? kCoalescedBit : 0u);
  const std::uint32_t crc = frame_crc(payload.span(), coalesced);
  std::uint8_t* hdr = payload.try_prepend(kFrameHeaderBytes);
  if (!hdr) {
    // The bytes in front are viewed, claimed or missing: one counted copy
    // into a fresh slab that does have the room.
    payload = BufSlice::copy_of(payload.span(), kFrameHeaderBytes);
    hdr = payload.try_prepend(kFrameHeaderBytes);
  }
  store_u32(hdr, len);
  store_u32(hdr + 4, crc);
  return payload;
}

template <typename EmitFn>
bool FrameDecoder::parse(const std::uint8_t* data, std::size_t& start,
                         std::size_t end, EmitFn&& emit) {
  while (end - start >= kFrameHeaderBytes) {
    const std::uint32_t word = get_u32(data + start);
    const bool coalesced = (word & kCoalescedBit) != 0;
    const auto len = static_cast<std::size_t>(word & ~kCoalescedBit);
    if (len > max_frame_) {
      poisoned_ = true;
      return false;
    }
    const std::uint32_t expected_crc = get_u32(data + start + 4);
    if (end - start - kFrameHeaderBytes < len) break;
    // CRC over the bytes in place — no copy of the payload is made.
    if (frame_crc({data + start + kFrameHeaderBytes, len}, coalesced) !=
        expected_crc) {
      // Bit errors in flight: the length we just trusted may itself be
      // damaged, so resynchronisation is not possible — poison the stream.
      ++corrupt_;
      poisoned_ = true;
      return false;
    }
    const std::size_t payload_at = start + kFrameHeaderBytes;
    start = payload_at + len;
    ++frames_;
    if (on_frame_) emit(payload_at, len, coalesced);
    if (poisoned_) return false;  // callback may have reset us
  }
  return true;
}

void FrameDecoder::emit_payload(BufSlice payload, bool coalesced) {
  if (!coalesced) {
    on_frame_(std::move(payload));
    return;
  }
  ++coalesced_;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::uint64_t len = 0;
    int shift = 0;
    bool terminated = false;
    while (pos < payload.size() && shift < 64) {
      const std::uint8_t b = payload[pos++];
      len |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        terminated = true;
        break;
      }
      shift += 7;
    }
    if (!terminated || len > payload.size() - pos) {
      ++corrupt_;
      poisoned_ = true;
      return;
    }
    on_frame_(payload.slice(pos, static_cast<std::size_t>(len)));
    if (poisoned_) return;  // callback may have torn us down
    pos += static_cast<std::size_t>(len);
  }
}

void FrameDecoder::release_slab() noexcept {
  if (slab_) {
    slab_->unref();
    slab_ = nullptr;
  }
  start_ = end_ = 0;
}

bool FrameDecoder::parse_slice(const BufSlice& s, std::size_t& pos) {
  return parse(s.data(), pos, s.size(),
               [this, &s](std::size_t at, std::size_t len, bool coalesced) {
                 emit_payload(s.slice(at, len), coalesced);
               });
}

void FrameDecoder::append(std::span<const std::uint8_t> chunk) {
  if (chunk.empty()) return;
  SlabPool& pool = SlabPool::instance();
  if (!slab_) {
    slab_ = pool.acquire(chunk.size());
    start_ = end_ = 0;
  }
  const std::size_t unparsed = end_ - start_;
  const std::size_t need = unparsed + chunk.size();
  const bool sole_owner = slab_->refs.load(std::memory_order_acquire) == 1;
  if (sole_owner && unparsed == 0) {
    // Nothing buffered and no emitted frame still aliases the slab: rewind
    // and reuse the space.
    start_ = end_ = 0;
  }
  if (end_ + chunk.size() > slab_->capacity) {
    if (sole_owner && need <= slab_->capacity) {
      // Only the decoder sees these bytes: slide the partial frame to the
      // front instead of growing, so the slab is sized by the largest frame
      // rather than by the stream.
      std::memmove(slab_->bytes(), slab_->bytes() + start_, unparsed);
    } else {
      // A slab pinned by emitted frames is swapped for a pooled one of the
      // same capacity; it grows (doubling) only when one frame plus the
      // chunk outgrows it. Either way only the unparsed tail moves: bytes
      // of emitted frames stay behind, kept alive by the frames' own
      // references.
      std::size_t want = slab_->capacity;
      if (need > want) want = std::max(need, 2 * want);
      Slab* next = pool.acquire(want);
      std::memcpy(next->bytes(), slab_->bytes() + start_, unparsed);
      release_slab();
      slab_ = next;
    }
    pool.count_grow_copy(unparsed);
    start_ = 0;
    end_ = unparsed;
  }
  std::memcpy(slab_->bytes() + end_, chunk.data(), chunk.size());
  end_ += chunk.size();
  pool.count_decoder_copy(chunk.size());
}

bool FrameDecoder::feed(std::span<const std::uint8_t> chunk) {
  if (poisoned_) return false;
  if (!view_.empty()) {
    // The pending view's bytes join the accumulation slab first.
    const BufSlice pending = std::move(view_);
    append(pending.span());
  }
  append(chunk);
  if (!slab_) return true;  // empty chunk, nothing buffered
  return parse(slab_->bytes(), start_, end_,
               [this](std::size_t at, std::size_t len, bool coalesced) {
                 emit_payload(BufSlice{slab_, slab_->bytes() + at, len,
                                       /*add_ref=*/true},
                              coalesced);
               });
}

bool FrameDecoder::feed(const BufSlice& chunk) {
  if (poisoned_) return false;
  if (chunk.empty()) return true;
  if (!chunk.owning() || end_ != start_) return feed(chunk.span());
  if (view_.empty()) {
    // Nothing pending: parse frames straight out of the fed slice and keep
    // an incomplete tail as a view of it. Whole frames cost no reference
    // beyond the ones the emitted frames take.
    std::size_t pos = 0;
    if (!parse_slice(chunk, pos)) return false;
    if (pos < chunk.size()) view_ = chunk.slice(pos, chunk.size() - pos);
    return true;
  }
  if (chunk.slab_ != view_.slab_ ||
      chunk.data() != view_.data() + view_.size()) {
    return feed(chunk.span());  // a join that is not contiguous
  }
  // The chunk continues the pending bytes in the same slab: widen the view
  // (its reference already pins the slab), parse, and keep what is left.
  view_.len_ += chunk.size();
  std::size_t pos = 0;
  if (!parse_slice(view_, pos)) return false;
  if (pos == view_.size()) {
    view_ = BufSlice{};
  } else {
    view_.data_ += pos;
    view_.len_ -= pos;
  }
  return true;
}

}  // namespace kmsg::wire
