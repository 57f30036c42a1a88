#include "wire/bytebuf.hpp"

#include <cstring>
#include <stdexcept>

namespace kmsg::wire {

namespace {
constexpr std::size_t kDefaultInitialCapacity = 64;
/// At most 10 bytes for a 64-bit LEB128.
constexpr std::size_t kMaxVarintBytes = 10;

/// Encodes `v` as an unsigned LEB128 at `out`; returns its length.
std::size_t put_varint(std::uint64_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}
}  // namespace

ByteBuf::ByteBuf(std::size_t reserve_bytes, std::size_t headroom)
    : headroom_(headroom) {
  wslab_ = SlabPool::instance().acquire(headroom_ + reserve_bytes);
  wlimit_ = wslab_->capacity;
}

ByteBuf ByteBuf::wrap(BufSlice bytes) {
  ByteBuf buf;
  buf.view_ = std::move(bytes);
  buf.view_active_ = true;
  return buf;
}

ByteBuf ByteBuf::wrap(std::span<const std::uint8_t> bytes) {
  return wrap(BufSlice::borrowed(bytes));
}

void ByteBuf::reserve(std::size_t total_payload_bytes) {
  if (view_active_) return;
  if (total_payload_bytes > wsize_) ensure(total_payload_bytes - wsize_);
}

std::uint8_t* ByteBuf::write_ptr(std::size_t n) {
  if (view_active_) {
    throw std::logic_error("ByteBuf: write to wrapped (read-only) buffer");
  }
  ensure(n);
  std::uint8_t* dst = wslab_->bytes() + headroom_ + wsize_;
  wsize_ += n;
  return dst;
}

void ByteBuf::ensure(std::size_t extra) {
  const std::size_t needed = headroom_ + wsize_ + extra;
  if (wslab_ && needed <= wlimit_) return;
  SlabPool& pool = SlabPool::instance();
  std::size_t grow = kDefaultInitialCapacity;
  if (wslab_) grow = std::size_t{wslab_->capacity} * 2;
  Slab* bigger = pool.acquire(needed > grow ? needed : grow);
  if (wslab_) {
    const std::size_t used = headroom_ + wsize_;
    if (used != 0) {
      std::memcpy(bigger->bytes(), wslab_->bytes(), used);
      pool.count_grow_copy(wsize_);
    }
    release_write_slab();
  }
  wslab_ = bigger;
  wlimit_ = bigger->capacity;
}

void ByteBuf::write_u16(std::uint16_t v) {
  std::uint8_t* p = write_ptr(2);
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void ByteBuf::write_u32(std::uint32_t v) {
  std::uint8_t* p = write_ptr(4);
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
}

void ByteBuf::write_u64(std::uint64_t v) {
  std::uint8_t* p = write_ptr(8);
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

void ByteBuf::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteBuf::write_varint(std::uint64_t v) {
  std::uint8_t tmp[kMaxVarintBytes];
  const std::size_t n = put_varint(v, tmp);
  std::memcpy(write_ptr(n), tmp, n);
}

void ByteBuf::write_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  std::memcpy(write_ptr(bytes.size()), bytes.data(), bytes.size());
}

void ByteBuf::write_blob(std::span<const std::uint8_t> bytes) {
  write_varint(bytes.size());
  write_bytes(bytes);
}

void ByteBuf::write_blob(const BufSlice& blob) {
  Slab* slab = blob.slab_;
  if (!view_active_ && slab != nullptr) {
    std::uint8_t len[kMaxVarintBytes];
    const std::size_t len_bytes = put_varint(blob.size(), len);
    const auto at = static_cast<std::size_t>(blob.data_ - slab->bytes());
    const std::size_t prefix = wsize_ + len_bytes;
    // The claim leaves this buffer's headroom free below the prefix.
    if (at >= headroom_ + prefix && slab->claim(at, prefix)) {
      std::uint8_t* dst = slab->bytes() + (at - prefix);
      if (wsize_ != 0) std::memcpy(dst, wslab_->bytes() + headroom_, wsize_);
      std::memcpy(dst + wsize_, len, len_bytes);
      slab->refs.fetch_add(1, std::memory_order_relaxed);
      release_write_slab();
      wslab_ = slab;
      headroom_ = at - prefix;
      wsize_ = prefix + blob.size();
      wlimit_ = at + blob.size();
      return;
    }
  }
  write_blob(blob.span());
  if (!blob.empty()) SlabPool::instance().count_payload_copy(blob.size());
}

void ByteBuf::write_string(std::string_view s) {
  write_varint(s.size());
  if (!s.empty()) {
    std::memcpy(write_ptr(s.size()), s.data(), s.size());
  }
}

void ByteBuf::check_readable(std::size_t n) const {
  if (readable_bytes() < n) {
    throw std::out_of_range("ByteBuf: read past end");
  }
}

std::uint8_t ByteBuf::read_u8() {
  check_readable(1);
  return readable_data()[read_index_++];
}

std::uint16_t ByteBuf::read_u16() {
  check_readable(2);
  const std::uint8_t* p = readable_data() + read_index_;
  std::uint16_t v =
      static_cast<std::uint16_t>((static_cast<std::uint16_t>(p[0]) << 8) | p[1]);
  read_index_ += 2;
  return v;
}

std::uint32_t ByteBuf::read_u32() {
  check_readable(4);
  const std::uint8_t* p = readable_data() + read_index_;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | p[i];
  read_index_ += 4;
  return v;
}

std::uint64_t ByteBuf::read_u64() {
  check_readable(8);
  const std::uint8_t* p = readable_data() + read_index_;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  read_index_ += 8;
  return v;
}

double ByteBuf::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteBuf::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    check_readable(1);
    const std::uint8_t b = readable_data()[read_index_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e))) {
      throw std::out_of_range("ByteBuf: varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

BufSlice ByteBuf::read_blob_slice() {
  const std::uint64_t n64 = read_varint();
  if (n64 > readable_bytes()) {
    throw std::out_of_range("ByteBuf: blob truncated");
  }
  const std::size_t n = static_cast<std::size_t>(n64);
  BufSlice out;
  if (view_active_ && view_.owning()) {
    out = view_.slice(read_index_, n);  // shares the backing slab
  } else {
    out = BufSlice::copy_of({readable_data() + read_index_, n});
  }
  read_index_ += n;
  return out;
}

std::string ByteBuf::read_string() {
  const std::uint64_t n = read_varint();
  if (n > readable_bytes()) throw std::out_of_range("ByteBuf: string truncated");
  check_readable(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(readable_data() + read_index_),
                static_cast<std::size_t>(n));
  read_index_ += static_cast<std::size_t>(n);
  return s;
}

void ByteBuf::skip(std::size_t n) {
  check_readable(n);
  read_index_ += n;
}

BufSlice ByteBuf::take_slice() && {
  if (view_active_) {
    BufSlice out = std::move(view_);
    view_active_ = false;
    read_index_ = 0;
    return out;
  }
  if (!wslab_) return {};
  // The slice's first byte is the lowest any slice of this slab views: a
  // slab this buffer wrote alone had no slice yet, and an adopted blob's
  // claim already moved the mark here.
  wslab_->front.store(static_cast<std::uint32_t>(headroom_),
                      std::memory_order_relaxed);
  // Transfer our slab reference into the slice (add_ref = false).
  BufSlice out{wslab_, wslab_->bytes() + headroom_, wsize_, /*add_ref=*/false};
  wslab_ = nullptr;
  wsize_ = 0;
  wlimit_ = 0;
  headroom_ = 0;
  read_index_ = 0;
  return out;
}

}  // namespace kmsg::wire
