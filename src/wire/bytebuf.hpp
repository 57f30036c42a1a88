// ByteBuf: the serialisation buffer used throughout the wire and messaging
// layers (the analogue of Netty's ByteBuf, reduced to what the middleware
// needs). Separate read and write indices; big-endian fixed-width integers,
// LEB128 varints, length-prefixed strings and blobs. All reads are
// bounds-checked and throw std::out_of_range.
//
// Storage is the pooled slab/slice model from wire/buffer.hpp:
//  - a *writing* ByteBuf owns a pool slab (optionally with headroom reserved
//    for a later in-place frame header) and hands the written bytes off as a
//    ref-counted BufSlice via take_slice() — no copy;
//  - a *wrapping* ByteBuf is a read-only view: wrap(BufSlice) shares
//    ownership of the backing slab (zero-copy), wrap(span) merely borrows
//    and the caller must keep the bytes alive while reading.
// Writing to a wrapped buffer throws std::logic_error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "wire/buffer.hpp"

namespace kmsg::wire {

class ByteBuf {
 public:
  ByteBuf() = default;
  /// Writing buffer with `reserve_bytes` of payload capacity pre-acquired
  /// and `headroom` spare bytes before the payload (for in-place framing).
  explicit ByteBuf(std::size_t reserve_bytes, std::size_t headroom = 0);

  ByteBuf(ByteBuf&& other) noexcept { move_from(other); }
  ByteBuf& operator=(ByteBuf&& other) noexcept {
    if (this != &other) {
      release_write_slab();
      move_from(other);
    }
    return *this;
  }
  ByteBuf(const ByteBuf&) = delete;
  ByteBuf& operator=(const ByteBuf&) = delete;
  ~ByteBuf() { release_write_slab(); }

  /// Zero-copy read-only view sharing ownership of the slice's slab.
  static ByteBuf wrap(BufSlice bytes);
  /// Borrowed read-only view; the bytes must outlive the buffer.
  static ByteBuf wrap(std::span<const std::uint8_t> bytes);

  /// Ensures capacity for at least `total_payload_bytes` written bytes.
  void reserve(std::size_t total_payload_bytes);

  // --- Writing (appends at the write index / end) ---
  void write_u8(std::uint8_t v) { *write_ptr(1) = v; }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v);
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  /// Unsigned LEB128.
  void write_varint(std::uint64_t v);
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Appends `n` uninitialised bytes and returns a writable span over them —
  /// the zero-copy entry point for producers that generate payload in place.
  std::span<std::uint8_t> write_span(std::size_t n) { return {write_ptr(n), n}; }
  /// varint length + raw bytes.
  void write_blob(std::span<const std::uint8_t> bytes);
  void write_string(std::string_view s);

  // --- Reading (consumes from the read index) ---
  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64();
  bool read_bool() { return read_u8() != 0; }
  std::uint64_t read_varint();
  /// Zero-copy blob read: returns a slice sharing the backing slab when this
  /// buffer wraps an owning slice; falls back to a counted copy for borrowed
  /// or writing buffers (so the result is always safe to retain).
  BufSlice read_blob_slice();
  std::string read_string();
  void skip(std::size_t n);

  // --- Introspection ---
  std::size_t readable_bytes() const { return size() - read_index_; }
  std::size_t size() const { return view_active_ ? view_.size() : wsize_; }
  bool exhausted() const { return read_index_ >= size(); }
  std::span<const std::uint8_t> readable_span() const {
    return {readable_data() + read_index_, readable_bytes()};
  }
  std::span<const std::uint8_t> full_span() const {
    return {readable_data(), size()};
  }
  void reset_read_index() { read_index_ = 0; }
  std::size_t read_index() const { return read_index_; }

  /// Relinquishes the written (or wrapped) bytes as a ref-counted slice —
  /// the zero-copy handoff used by the serialisation and framing layers. A
  /// writing buffer transfers its slab reference; the buffer resets to
  /// empty. The slice of a writing buffer retains its headroom for in-place
  /// prepends (BufSlice::try_prepend).
  BufSlice take_slice() &&;

 private:
  void check_readable(std::size_t n) const;
  const std::uint8_t* readable_data() const {
    return view_active_ ? view_.data()
                        : (wslab_ ? wslab_->bytes() + headroom_ : nullptr);
  }
  /// Grows (or lazily acquires) the write slab and returns the destination
  /// for `n` appended bytes, advancing the write size.
  std::uint8_t* write_ptr(std::size_t n);
  void ensure(std::size_t extra);
  void release_write_slab() noexcept {
    if (wslab_) {
      wslab_->unref();
      wslab_ = nullptr;
    }
  }
  void move_from(ByteBuf& other) noexcept {
    wslab_ = other.wslab_;
    wsize_ = other.wsize_;
    headroom_ = other.headroom_;
    view_ = std::move(other.view_);
    view_active_ = other.view_active_;
    read_index_ = other.read_index_;
    other.wslab_ = nullptr;
    other.wsize_ = 0;
    other.headroom_ = 0;
    other.view_active_ = false;
    other.read_index_ = 0;
  }

  Slab* wslab_ = nullptr;     // writing mode: sole reference held here
  std::size_t wsize_ = 0;     // payload bytes written (after headroom)
  std::size_t headroom_ = 0;  // spare prefix bytes in the write slab
  BufSlice view_;             // wrapping mode storage
  bool view_active_ = false;
  std::size_t read_index_ = 0;
};

}  // namespace kmsg::wire
