// SmallFn: a move-only `void()` callable with small-buffer optimisation,
// built for the simulator's event hot path. Closures up to kSmallFnInline
// bytes (enough for a handful of captured pointers, or a whole
// std::function) live inline in the SmallFn object — scheduling such an
// event performs zero heap allocations. Larger closures live in a block of
// the arena (common/arena.hpp), so even the oversize path recycles memory
// instead of hitting the global allocator per event.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"

namespace kmsg {

inline constexpr std::size_t kSmallFnInline = 48;

class SmallFn {
 public:
  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kSmallFnInline &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      // Arena blocks carry operator new's default alignment.
      static_assert(alignof(Fn) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      void* block = Arena::acquire(sizeof(Fn), kHeapClass<Fn>);
      ::new (block) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(storage_) = block;
      vt_ = &heap_vtable<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(storage_, other.storage_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  void operator()() { vt_->invoke(storage_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Moves the callable from src storage into dst storage and destroys the
    // src-side state (heap case: just the pointer moves — no callable copy).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) noexcept {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }};

  template <typename Fn>
  static constexpr std::uint8_t kHeapClass = Arena::class_for(sizeof(Fn));

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<void**>(dst) = *static_cast<void**>(src);
      },
      [](void* s) noexcept {
        Fn* f = *static_cast<Fn**>(s);
        f->~Fn();
        Arena::release(f, kHeapClass<Fn>);
      }};

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kSmallFnInline];
  const VTable* vt_ = nullptr;
};

}  // namespace kmsg
