// Ref-counted slab buffers and zero-copy slices (the Netty pooled-ByteBuf
// analogue for this middleware).
//
// A Slab is one block of the arena (common/arena.hpp): a 16-byte header
// followed by its payload bytes. A BufSlice is a cheap (pointer, length) view
// that pins its slab via an intrusive reference count. Payload bytes are
// written once into a slab — by the serializer, the frame decoder, or a
// transport — and every later layer (framing, codecs, session queues,
// transport send queues and segments, deserialized message payloads) reads
// the same bytes in place through slices.
//
// Ownership rules (see DESIGN.md §4b):
//  - a slab returns its block to the arena when its last slice (or writing
//    ByteBuf, or frame decoder) drops it, on whichever thread that happens;
//  - slices never outlive their bytes: copying a slice bumps the count,
//    recycling only happens at count zero, and a recycled slab is never
//    handed out while any slice still points into it;
//  - a *borrowed* slice (made from a raw span) owns nothing; producers of
//    borrowed slices must keep the backing bytes alive themselves, and any
//    layer that needs to retain one must promote it with BufSlice::copy_of;
//  - bytes a live slice views are never written: only a slab's sole owner
//    writes it (a writing ByteBuf, try_prepend, the frame decoder's slide),
//    except that the decoder appends past the frames it has emitted. A
//    retained view therefore reads fixed bytes, which the stream transports
//    rely on: they keep written frames as views until acknowledged.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/arena.hpp"

namespace kmsg::wire {

/// One arena block: this header, immediately followed by `capacity` payload
/// bytes.
struct Slab {
  std::atomic<std::uint32_t> refs;
  std::uint8_t arena_class;  ///< the block's Arena class (or Arena::kUnpooled)
  std::size_t capacity;

  std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* bytes() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }

  /// Drops one reference; the last one returns the block to the arena.
  void unref() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Arena::release(this, arena_class);
    }
  }
};
static_assert(sizeof(Slab) == 16);

/// Counters for the zero-copy regression tests and the benchmark harness.
struct SlabPoolStats {
  std::uint64_t slabs_created = 0;   ///< acquisitions that reached operator new
  std::uint64_t slabs_recycled = 0;  ///< acquisitions served from a cache
  /// Payload bytes duplicated slab-to-slab (BufSlice::copy_of, promotion of
  /// borrowed views, ByteBuf compatibility reads, a stream transport's gather
  /// of a segment spanning three or more writes). The zero-copy pipeline
  /// keeps this flat per message; the regression test pins it to zero across
  /// serialise -> frame -> decode -> deserialise.
  std::uint64_t payload_bytes_copied = 0;
  /// Bytes moved because a writing ByteBuf outgrew its slab (tuning signal:
  /// a correct reserve() keeps this at zero on the hot path).
  std::uint64_t grow_bytes_copied = 0;
  /// Bytes a FrameDecoder copied into its accumulation slab: chunks fed as
  /// borrowed spans, and chunks that do not continue the decoder's pending
  /// view in the same slab. Views of the sender's frames, which the stream
  /// transports deliver, are decoded in place and add nothing here.
  std::uint64_t decoder_bytes_copied = 0;
};

/// The slab layer over the arena: carves slabs and keeps the process-wide
/// counters. Thread-safe without a lock: the blocks come from the calling
/// thread's cache and the counters are relaxed atomics.
class SlabPool {
 public:
  /// Returns a slab with capacity >= min_capacity and refcount 1.
  Slab* acquire(std::size_t min_capacity);

  SlabPoolStats stats() const;
  void reset_stats();

  // Copy accounting (used by BufSlice / ByteBuf).
  void count_payload_copy(std::size_t n);
  void count_grow_copy(std::size_t n);
  void count_decoder_copy(std::size_t n);

  /// The process-wide slab layer used by ByteBuf, the frame codec and
  /// transports.
  static SlabPool& instance();

 private:
  std::atomic<std::uint64_t> slabs_created_{0};
  std::atomic<std::uint64_t> slabs_recycled_{0};
  std::atomic<std::uint64_t> payload_bytes_copied_{0};
  std::atomic<std::uint64_t> grow_bytes_copied_{0};
  std::atomic<std::uint64_t> decoder_bytes_copied_{0};
};

/// Immutable view over a run of bytes. Owning slices pin a pooled slab;
/// borrowed slices (from `borrowed`) view caller-managed memory.
class BufSlice {
 public:
  BufSlice() = default;

  BufSlice(const BufSlice& other) noexcept
      : slab_(other.slab_), data_(other.data_), len_(other.len_) {
    if (slab_) slab_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufSlice(BufSlice&& other) noexcept
      : slab_(other.slab_), data_(other.data_), len_(other.len_) {
    other.slab_ = nullptr;
    other.data_ = nullptr;
    other.len_ = 0;
  }
  BufSlice& operator=(BufSlice other) noexcept {
    swap(other);
    return *this;
  }
  ~BufSlice() { release(); }

  void swap(BufSlice& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(data_, other.data_);
    std::swap(len_, other.len_);
  }

  /// Owning copy of arbitrary bytes (one counted payload copy), with
  /// `headroom` spare bytes preceding the data for later in-place prepends.
  static BufSlice copy_of(std::span<const std::uint8_t> bytes,
                          std::size_t headroom = 0);

  /// Non-owning view; the caller guarantees the bytes outlive the slice.
  static BufSlice borrowed(std::span<const std::uint8_t> bytes) {
    BufSlice s;
    s.data_ = bytes.data();
    s.len_ = bytes.size();
    return s;
  }

  /// Sub-view sharing ownership. Requires offset + len <= size().
  BufSlice slice(std::size_t offset, std::size_t len) const;

  /// Owning version of this slice: itself when already owning, else a
  /// counted copy (promotes borrowed views before retention).
  BufSlice to_owned() const;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::span<const std::uint8_t> span() const { return {data_, len_}; }
  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }

  bool owning() const { return slab_ != nullptr; }
  /// References on the backing slab (0 for borrowed/empty slices).
  std::uint32_t ref_count() const {
    return slab_ ? slab_->refs.load(std::memory_order_relaxed) : 0;
  }
  /// Sole owner of the backing slab?
  bool unique() const { return ref_count() == 1; }
  /// Spare slab bytes preceding data() (usable by try_prepend when unique).
  std::size_t headroom() const {
    return slab_ ? static_cast<std::size_t>(data_ - slab_->bytes()) : 0;
  }

  /// Zero-copy prepend: when this slice solely owns its slab and `n` spare
  /// bytes precede it, extends the view backwards by `n` and returns a
  /// writable pointer to the new prefix. Returns nullptr (slice unchanged)
  /// otherwise — the caller must then fall back to a copying prepend.
  std::uint8_t* try_prepend(std::size_t n);

 private:
  friend class ByteBuf;
  friend class FrameDecoder;
  // Adopts `slab` (steals one reference when add_ref is false).
  BufSlice(Slab* slab, const std::uint8_t* data, std::size_t len, bool add_ref)
      : slab_(slab), data_(data), len_(len) {
    if (slab_ && add_ref) slab_->refs.fetch_add(1, std::memory_order_relaxed);
  }

  void release() noexcept {
    if (slab_) {
      slab_->unref();
      slab_ = nullptr;
    }
    data_ = nullptr;
    len_ = 0;
  }

  Slab* slab_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
};

}  // namespace kmsg::wire
