// EventArena: size-classed block pool backing the Kompics event hot path.
//
// Every published event and every mailbox node comes out of this arena
// instead of the global allocator. Blocks are recycled through per-thread
// freelists (the same idiom as detail::FnBlockPool in small_fn.hpp): the
// simulator is single-threaded, and under the thread-pool scheduler a block
// freed on a different thread than it was acquired on simply migrates to the
// freeing thread's cache — correctness needs no locks because a block is
// owned by exactly one thread at acquire/release time (ownership is carried
// by the event's intrusive refcount).
//
// Under AddressSanitizer cached blocks are manually poisoned while they sit
// on a freelist, so use-after-release of a pooled event is reported just like
// a use-after-free of a heap allocation would be.
#pragma once

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

class EventArena {
 public:
  /// Size classes. Class i holds blocks of kClassBytes[i]; allocations above
  /// the largest class bypass the pool (kUnpooled) and go straight to
  /// operator new/delete.
  static constexpr std::size_t kClassBytes[] = {32, 64, 128, 256, 512};
  static constexpr std::uint8_t kNumClasses = 5;
  static constexpr std::uint8_t kUnpooled = 0xff;
  /// Per-class freelist cap. Sized so a burst of a few thousand in-flight
  /// events reaches steady state without touching the global allocator, while
  /// bounding idle cache memory (kMaxCached * 512 B = 1 MiB worst case per
  /// class per thread).
  static constexpr std::size_t kMaxCached = 2048;

  static constexpr std::uint8_t class_for(std::size_t n) noexcept {
    for (std::uint8_t c = 0; c < kNumClasses; ++c) {
      if (n <= kClassBytes[c]) return c;
    }
    return kUnpooled;
  }

  /// Acquire a block for `n` bytes in class `cls` (cls == class_for(n)).
  static void* acquire(std::size_t n, std::uint8_t cls) {
    if (cls == kUnpooled) return ::operator new(n);
    auto& fl = freelists()[cls];
    if (fl.head != nullptr) {
      Node* node = fl.head;
      KMSG_UNPOISON(reinterpret_cast<char*>(node) + sizeof(Node),
                    kClassBytes[cls] - sizeof(Node));
      fl.head = node->next;
      --fl.count;
      return node;
    }
    return ::operator new(kClassBytes[cls]);
  }

  /// Release a block previously acquired with class `cls`.
  static void release(void* p, std::uint8_t cls) noexcept {
    if (cls == kUnpooled) {
      ::operator delete(p);
      return;
    }
    auto& fl = freelists()[cls];
    if (fl.count >= kMaxCached) {
      ::operator delete(p, kClassBytes[cls]);
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = fl.head;
    // The freelist link lives in the first sizeof(Node) bytes and stays
    // unpoisoned; everything behind it is off limits until re-acquired.
    KMSG_POISON(reinterpret_cast<char*>(p) + sizeof(Node),
                kClassBytes[cls] - sizeof(Node));
    fl.head = node;
    ++fl.count;
  }

 private:
  struct Node {
    Node* next;
  };
  struct Freelist {
    Node* head = nullptr;
    std::size_t count = 0;
    ~Freelist() {
      while (head != nullptr) {
        Node* n = head;
        head = n->next;
        ::operator delete(n);
      }
    }
  };
  struct Freelists {
    Freelist classes[kNumClasses];
    Freelist& operator[](std::uint8_t c) noexcept { return classes[c]; }
    // Destroyed in reverse thread_local order; blocks still cached are
    // returned to the global allocator by ~Freelist.
  };
  static Freelists& freelists() {
    thread_local Freelists fls;
    return fls;
  }
};

/// EventArena as a standard allocator, for std::allocate_shared: the
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
    return static_cast<T*>(
        EventArena::acquire(bytes, EventArena::class_for(bytes)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    EventArena::release(p, EventArena::class_for(n * sizeof(T)));
  }

  template <typename U>
  bool operator==(const ArenaAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace kmsg
