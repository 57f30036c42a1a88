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
//    ByteBuf) drops it, on whichever thread that happens;
//  - slices never outlive their bytes: copying a slice bumps the count,
//    recycling only happens at count zero, and a recycled slab is never
//    handed out while any slice still points into it;
//  - a *borrowed* slice (made from a raw span) owns nothing; producers of
//    borrowed slices must keep the backing bytes alive themselves, and any
//    layer that needs to retain one must promote it with BufSlice::copy_of;
//  - bytes a live slice views are never written. A slab's sole owner writes
//    it (a writing ByteBuf), the frame decoder writes only past its view of
//    unparsed bytes in a slab of its own, and anyone else writes only bytes
//    it has claimed below the slab's front mark: the lowest byte any slice
//    of the slab has viewed. A claim moves the mark down with one
//    compare-and-swap, so each never-viewed byte is written by at most one
//    claimer, before anyone views it (BufSlice::try_prepend,
//    ByteBuf::write_blob). A retained view therefore reads fixed bytes,
//    which the stream transports rely on: they keep written frames as views
//    until acknowledged.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>

#include "common/arena.hpp"

namespace kmsg::wire {

/// One arena block: this header, immediately followed by `capacity` payload
/// bytes.
struct Slab {
  /// Largest capacity a slab can have: offsets into it fit 32 bits.
  static constexpr std::size_t kMaxCapacity =
      std::numeric_limits<std::uint32_t>::max();

  std::atomic<std::uint32_t> refs;
  /// The front mark: the offset of the lowest byte any slice of this slab
  /// has viewed. The bytes below it were never viewed, and claim() hands
  /// them to one writer. A fresh slab starts at 0: nothing is claimable
  /// until take_slice or copy_of sets the mark at the first slice's start.
  std::atomic<std::uint32_t> front;
  std::uint32_t capacity;
  std::uint8_t arena_class;  ///< the block's Arena class (or Arena::kUnpooled)

  std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* bytes() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }

  /// Claims the `n` bytes just below offset `at` for the caller to write,
  /// moving the front mark from `at` down to `at - n`. Fails when the mark
  /// is not at `at` (some slice views bytes below it, or another writer
  /// claimed them first) or `n > at`. Relaxed: the mark only decides which
  /// writer owns the bytes, and they reach their readers with the slice
  /// that views them.
  bool claim(std::size_t at, std::size_t n) noexcept {
    if (n > at) return false;
    auto expected = static_cast<std::uint32_t>(at);
    return front.compare_exchange_strong(expected,
                                         static_cast<std::uint32_t>(at - n),
                                         std::memory_order_relaxed);
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
  /// Bytes moved to a fresh slab because a writing ByteBuf outgrew its slab
  /// (tuning signal: a correct reserve() keeps this at zero on the hot
  /// path), or because a FrameDecoder's unparsed bytes and the chunk it
  /// copies did not fit in its own slab.
  std::uint64_t grow_bytes_copied = 0;
  /// Bytes a FrameDecoder copied into a slab of its own: chunks fed as
  /// borrowed spans, chunks that do not continue the decoder's pending view
  /// in the same slab (the pending view's bytes included), and chunks fed
  /// while it holds copied bytes. Views of the sender's frames, which the
  /// stream transports deliver, are decoded in place and add nothing here.
  std::uint64_t decoder_bytes_copied = 0;
};

/// The slab layer over the arena: carves slabs and keeps the process-wide
/// counters. Thread-safe without a lock: the blocks come from the calling
/// thread's cache and the counters are relaxed atomics.
class SlabPool {
 public:
  /// Returns a slab with capacity >= min_capacity, refcount 1 and its front
  /// mark at 0. Throws std::length_error above Slab::kMaxCapacity.
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
  /// `headroom` spare bytes preceding the data for later in-place prepends
  /// (the slab's front mark is set at the data).
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
  /// Spare bytes before data() that try_prepend may claim: all the slab
  /// bytes before the slice when it starts at its slab's front mark, else 0.
  std::size_t headroom() const;

  /// Zero-copy prepend: claims the `n` bytes before data() (Slab::claim),
  /// which succeeds when the slice starts at its slab's front mark with at
  /// least `n` bytes before it, extends the view backwards by `n` and
  /// returns a writable pointer to the new prefix. Copies of the slice may
  /// be held elsewhere: of several claims on the same bytes one wins. Returns
  /// nullptr (slice unchanged) otherwise — the caller must then fall back to
  /// a copying prepend.
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
