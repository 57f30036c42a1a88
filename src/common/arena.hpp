// Arena: the one size-classed block pool behind every recycled allocation on
// the hot paths — Kompics events and mailbox nodes, packet bodies (through
// ArenaAllocator), SmallFn's oversize closures and the wire layer's slabs
// (wire/buffer.hpp carves each slab from an arena block).
//
// The classes are the powers of two from 32 B to 1 MiB; a request above
// 1 MiB bypasses the pool (kUnpooled) and goes straight to operator
// new/delete. Each thread keeps one freelist per class, and all of them
// together hold at most kCacheBudgetBytes; a block released past the budget
// is freed. A block released on another thread
// than it was acquired on simply joins the releasing thread's cache:
// correctness needs no locks because a block is owned by exactly one thread
// at acquire/release time (ownership is carried by a reference count: an
// event's, a slab's or a shared_ptr's).
//
// A thread's cache is drained when the thread exits (for the main thread: in
// exit(), before static destructors run). A block released after that — by
// a later thread_local destructor or by a static object — goes to operator
// delete, never into the dead cache.
//
// Under AddressSanitizer cached blocks are manually poisoned while they sit
// on a freelist, so use-after-release of a pooled block is reported just like
// a use-after-free of a heap allocation would be.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define KMSG_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KMSG_ASAN 1
#endif
#endif

#ifdef KMSG_ASAN
#include <sanitizer/asan_interface.h>
#define KMSG_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define KMSG_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define KMSG_POISON(addr, size) ((void)0)
#define KMSG_UNPOISON(addr, size) ((void)0)
#endif

namespace kmsg {

class Arena {
 public:
  /// Class c holds blocks of class_bytes(c) = 32 B << c, up to 1 MiB.
  static constexpr std::uint8_t kNumClasses = 16;
  static constexpr std::size_t kMaxPooledBytes = std::size_t{32}
                                                 << (kNumClasses - 1);
  static constexpr std::uint8_t kUnpooled = 0xff;

  static constexpr std::size_t class_bytes(std::uint8_t cls) noexcept {
    return std::size_t{32} << cls;
  }

  /// Bytes one thread's cache may hold, across all classes. A workload's
  /// whole working set of slabs fits (adaptive_wan peaks at 208 slabs of
  /// 64 KiB, 13 MiB), and it bounds a thread's idle cache memory.
  static constexpr std::size_t kCacheBudgetBytes = std::size_t{32} << 20;

  static constexpr std::uint8_t class_for(std::size_t n) noexcept {
    if (n > kMaxPooledBytes) return kUnpooled;
    return n <= 32 ? 0 : static_cast<std::uint8_t>(std::bit_width(n - 1) - 5);
  }

  /// Size of the block that holds `n` bytes in class `cls`.
  static constexpr std::size_t block_bytes(std::size_t n,
                                           std::uint8_t cls) noexcept {
    return cls == kUnpooled ? n : class_bytes(cls);
  }

  /// A block of class `cls` from this thread's cache, or nullptr when the
  /// cache holds none (always for kUnpooled).
  static void* take(std::uint8_t cls) noexcept {
    if (cls == kUnpooled) return nullptr;
    Cache& cache = t_cache;
    Node* node = cache.heads[cls];
    if (node == nullptr) return nullptr;
    KMSG_UNPOISON(reinterpret_cast<char*>(node) + sizeof(Node),
                  class_bytes(cls) - sizeof(Node));
    cache.heads[cls] = node->next;
    cache.cached_bytes -= class_bytes(cls);
    return node;
  }

  /// Acquire a block for `n` bytes in class `cls` (cls == class_for(n)).
  static void* acquire(std::size_t n, std::uint8_t cls) {
    if (void* p = take(cls)) return p;
    return ::operator new(block_bytes(n, cls));
  }

  /// Release a block previously acquired with class `cls`, on any thread.
  static void release(void* p, std::uint8_t cls) noexcept {
    if (cls == kUnpooled) {
      ::operator delete(p);
      return;
    }
    Cache& cache = t_cache;
    const std::size_t bytes = class_bytes(cls);
    if (cache.state != kLive ||
        cache.cached_bytes + bytes > kCacheBudgetBytes) [[unlikely]] {
      if (!adopt()) {  // budget spent, or the cache is gone
        ::operator delete(p, bytes);
        return;
      }
    }
    Node* node = static_cast<Node*>(p);
    node->next = cache.heads[cls];
    // The freelist link lives in the first sizeof(Node) bytes and stays
    // unpoisoned; everything behind it is off limits until re-acquired.
    KMSG_POISON(reinterpret_cast<char*>(p) + sizeof(Node),
                bytes - sizeof(Node));
    cache.heads[cls] = node;
    cache.cached_bytes += bytes;
  }

 private:
  struct Node {
    Node* next;
  };
  enum State : std::uint8_t { kFresh, kLive, kDead };
  /// Trivially destructible, so its storage outlives every thread_local
  /// destructor of its thread and `state` stays readable after the drain.
  struct Cache {
    Node* heads[kNumClasses];  ///< one freelist per class
    std::size_t cached_bytes;  ///< summed class bytes of every cached block
    State state;
  };
  /// Empties the thread's cache at thread exit and marks it dead.
  struct Drain {
    ~Drain() {
      t_cache.state = kDead;
      for (std::uint8_t c = 0; c < kNumClasses; ++c) {
        while (Node* n = t_cache.heads[c]) {
          t_cache.heads[c] = n->next;
          ::operator delete(n, class_bytes(c));
        }
      }
      t_cache.cached_bytes = 0;
    }
  };

  /// Makes a fresh cache live, registering its drain at thread exit; false
  /// when the cache is already live or gone. Out of line: it runs once per
  /// thread, and inlined it would bloat every release.
  [[gnu::cold, gnu::noinline]] static bool adopt() noexcept {
    if (t_cache.state != kFresh) return false;
    thread_local Drain drain;
    (void)drain;
    t_cache.state = kLive;
    return true;
  }

  static constinit inline thread_local Cache t_cache{};
};

/// Arena as a standard allocator, for std::allocate_shared: the
/// shared_ptr control block and the object share one pooled block, so a
/// recycled object costs no global allocation. Like the arena, it is safe
/// when the last reference drops on another thread than the first: the
/// block joins that thread's cache.
template <typename T>
struct ArenaAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return static_cast<T*>(Arena::acquire(bytes, Arena::class_for(bytes)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    Arena::release(p, Arena::class_for(n * sizeof(T)));
  }

  template <typename U>
  bool operator==(const ArenaAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace kmsg
