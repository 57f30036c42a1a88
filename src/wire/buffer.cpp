#include "wire/buffer.hpp"

#include <new>
#include <stdexcept>

namespace kmsg::wire {

// --- SlabPool ---

SlabPool& SlabPool::instance() {
  // Trivially destructible, so never destroyed: slices owned by
  // static-lifetime objects may release (and count) during static
  // destruction.
  static SlabPool pool;
  return pool;
}

Slab* SlabPool::acquire(std::size_t min_capacity) {
  if (min_capacity > Slab::kMaxCapacity) {
    throw std::length_error("SlabPool: slab larger than 4 GiB");
  }
  const std::size_t need = sizeof(Slab) + min_capacity;
  const std::uint8_t cls = Arena::class_for(need);
  const std::size_t block_bytes = Arena::block_bytes(need, cls);
  void* block = Arena::take(cls);
  if (block != nullptr) {
    slabs_recycled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slabs_created_.fetch_add(1, std::memory_order_relaxed);
    block = ::operator new(block_bytes);
  }
  return ::new (block)
      Slab{{1}, {0}, static_cast<std::uint32_t>(block_bytes - sizeof(Slab)),
           cls};
}

SlabPoolStats SlabPool::stats() const {
  SlabPoolStats s;
  s.slabs_created = slabs_created_.load(std::memory_order_relaxed);
  s.slabs_recycled = slabs_recycled_.load(std::memory_order_relaxed);
  s.payload_bytes_copied = payload_bytes_copied_.load(std::memory_order_relaxed);
  s.grow_bytes_copied = grow_bytes_copied_.load(std::memory_order_relaxed);
  s.decoder_bytes_copied =
      decoder_bytes_copied_.load(std::memory_order_relaxed);
  return s;
}

void SlabPool::reset_stats() {
  slabs_created_.store(0, std::memory_order_relaxed);
  slabs_recycled_.store(0, std::memory_order_relaxed);
  payload_bytes_copied_.store(0, std::memory_order_relaxed);
  grow_bytes_copied_.store(0, std::memory_order_relaxed);
  decoder_bytes_copied_.store(0, std::memory_order_relaxed);
}

void SlabPool::count_payload_copy(std::size_t n) {
  payload_bytes_copied_.fetch_add(n, std::memory_order_relaxed);
}

void SlabPool::count_grow_copy(std::size_t n) {
  grow_bytes_copied_.fetch_add(n, std::memory_order_relaxed);
}

void SlabPool::count_decoder_copy(std::size_t n) {
  decoder_bytes_copied_.fetch_add(n, std::memory_order_relaxed);
}

// --- BufSlice ---

BufSlice BufSlice::copy_of(std::span<const std::uint8_t> bytes,
                           std::size_t headroom) {
  SlabPool& pool = SlabPool::instance();
  Slab* slab = pool.acquire(headroom + bytes.size());
  if (!bytes.empty()) {
    std::memcpy(slab->bytes() + headroom, bytes.data(), bytes.size());
    pool.count_payload_copy(bytes.size());
  }
  slab->front.store(static_cast<std::uint32_t>(headroom),
                    std::memory_order_relaxed);
  return BufSlice{slab, slab->bytes() + headroom, bytes.size(),
                  /*add_ref=*/false};
}

BufSlice BufSlice::slice(std::size_t offset, std::size_t len) const {
  if (offset + len > len_) {
    return {};  // out-of-range sub-slices degrade to empty, never alias
  }
  return BufSlice{slab_, data_ + offset, len, /*add_ref=*/true};
}

BufSlice BufSlice::to_owned() const {
  if (slab_ || len_ == 0) return *this;
  return copy_of(span());
}

std::size_t BufSlice::headroom() const {
  if (!slab_) return 0;
  const auto at = static_cast<std::size_t>(data_ - slab_->bytes());
  return slab_->front.load(std::memory_order_relaxed) == at ? at : 0;
}

std::uint8_t* BufSlice::try_prepend(std::size_t n) {
  if (!slab_ || !slab_->claim(
                    static_cast<std::size_t>(data_ - slab_->bytes()), n)) {
    return nullptr;
  }
  data_ -= n;
  len_ += n;
  // Safe despite the const view type: the claim gave us bytes no slice has
  // viewed, and no other writer can claim them.
  return const_cast<std::uint8_t*>(data_);
}

}  // namespace kmsg::wire
