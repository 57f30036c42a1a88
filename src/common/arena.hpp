// Arena: the one size-classed block pool behind every recycled allocation on
// the hot paths — Kompics events and mailbox nodes, packet bodies (through
// ArenaAllocator), SmallFn's oversize closures and the wire layer's slabs
// (wire/buffer.hpp carves each slab from an arena block).
//
// The classes are the powers of two from 32 B to 1 MiB; a request above
// 1 MiB bypasses the pool (kUnpooled) and goes straight to operator
// new/delete. Each thread keeps one freelist per class, capped at 2,048
// blocks for the classes up to 512 B and at 64 for the larger ones; a block
// released past its class's cap is freed. A block released on another thread
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

  /// Per-class freelist cap. The small classes are sized so a burst of a few
  /// thousand in-flight events reaches steady state without touching the
  /// global allocator; the large ones bound idle cache memory per thread.
  static constexpr std::uint32_t max_cached(std::uint8_t cls) noexcept {
    return class_bytes(cls) <= 512 ? 2048 : 64;
  }

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
    Freelist& fl = t_cache.classes[cls];
    Node* node = fl.head;
    if (node == nullptr) return nullptr;
    KMSG_UNPOISON(reinterpret_cast<char*>(node) + sizeof(Node),
                  class_bytes(cls) - sizeof(Node));
    fl.head = node->next;
    --fl.count;
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
    Freelist& fl = cache.classes[cls];
    if (cache.state != kLive || fl.count >= max_cached(cls)) [[unlikely]] {
      if (!adopt()) {  // class full, or the cache is gone
        ::operator delete(p, class_bytes(cls));
        return;
      }
    }
    Node* node = static_cast<Node*>(p);
    node->next = fl.head;
    // The freelist link lives in the first sizeof(Node) bytes and stays
    // unpoisoned; everything behind it is off limits until re-acquired.
    KMSG_POISON(reinterpret_cast<char*>(p) + sizeof(Node),
                class_bytes(cls) - sizeof(Node));
    fl.head = node;
    ++fl.count;
  }

 private:
  struct Node {
    Node* next;
  };
  struct Freelist {
    Node* head;
    std::uint32_t count;
  };
  enum State : std::uint8_t { kFresh, kLive, kDead };
  /// Trivially destructible, so its storage outlives every thread_local
  /// destructor of its thread and `state` stays readable after the drain.
  struct Cache {
    Freelist classes[kNumClasses];
    State state;
  };
  /// Empties the thread's cache at thread exit and marks it dead.
  struct Drain {
    ~Drain() {
      t_cache.state = kDead;
      for (std::uint8_t c = 0; c < kNumClasses; ++c) {
        Freelist& fl = t_cache.classes[c];
        while (fl.head != nullptr) {
          Node* n = fl.head;
          fl.head = n->next;
          ::operator delete(n, class_bytes(c));
        }
        fl.count = 0;
      }
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
