// Kompics events.
//
// Every message travelling through ports and channels derives from
// KompicsEvent. Events are immutable once triggered and are shared between
// all receivers (Kompics' broadcast channel model means the same event object
// can be handled by many components). Ownership is intrusive: the refcount,
// the dense per-process event type id and the arena size class live in the
// event header itself, and events travel as EventRef<E> — a shared_ptr-shaped
// handle that is one pointer wide and performs no control-block allocation.
//
// make_event<E>() is the only factory. It carves the event out of the
// size-classed Arena (thread-local freelists, ASan-poisoned while cached)
// and stamps the type id used by the devirtualized dispatch tables in
// core.hpp. Events constructed any other way (e.g. on the stack in tests)
// keep type id 0 ("unknown") and are simply never adopted by an EventRef.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"

namespace kmsg::kompics {

struct KompicsEvent;
template <typename E>
class EventRef;
template <typename E, typename... Args>
EventRef<E> make_event(Args&&... args);

namespace detail {

inline std::atomic<std::uint16_t> g_next_event_type_id{1};

template <typename E>
std::uint16_t event_type_id_impl() {
  static const std::uint16_t id =
      g_next_event_type_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Not created through make_event (stack / direct new). Never arena-freed.
inline constexpr std::uint8_t kNotArena = 0xfe;

/// Base-to-block offset unknown; destroy_ recovers it via dynamic_cast.
inline constexpr std::uint8_t kOffsetUnknown = 0xff;

/// Number of live ThreadPoolSchedulers in the process. While zero, every
/// event is confined to one thread (simulation mode) and refcounts plus the
/// component mailboxes use plain loads/stores instead of lock-prefixed RMWs
/// — the single biggest cost on the dispatch hot path. The arena and the
/// dispatch machinery are thread-safe only under ThreadPoolScheduler by
/// design (see DESIGN.md §4d); user-spawned threads triggering events
/// without one are outside the contract.
inline std::atomic<std::uint32_t> g_mt_schedulers{0};

inline bool mt_active() noexcept {
  return g_mt_schedulers.load(std::memory_order_relaxed) != 0;
}

/// True while the current thread is provably the only one touching the
/// events it handles, even though a thread pool is live elsewhere in the
/// process. Set by the work-stealing scheduler around the execution of a
/// *local-mode* component (home-pinned, never stolen, whole channel cluster
/// on one worker — see DESIGN.md §10) and by the simulation scheduler around
/// component execution (a simulation is driven from one thread by contract).
/// While set, event refcounts keep the plain load/store path — the
/// per-core replacement for the old global "any pool exists → everything
/// atomic" switch. Mis-clearing it is always safe (atomic ops on a
/// thread-confined counter are merely slower); setting it is only legal
/// under the thread-confinement invariant above.
inline thread_local bool t_plain_refs = false;

/// Plain (non-atomic) refcount traffic allowed right now?
inline bool refs_plain() noexcept { return !mt_active() || t_plain_refs; }

/// RAII scope for t_plain_refs (saves/restores, so nesting works).
class ScopedPlainRefs {
 public:
  explicit ScopedPlainRefs(bool plain) noexcept : saved_(t_plain_refs) {
    t_plain_refs = plain;
  }
  ScopedPlainRefs(const ScopedPlainRefs&) = delete;
  ScopedPlainRefs& operator=(const ScopedPlainRefs&) = delete;
  ~ScopedPlainRefs() { t_plain_refs = saved_; }

 private:
  bool saved_;
};

}  // namespace detail

/// Dense per-process id for event type E, assigned on first use (never 0).
/// Ids are registration-order dependent and therefore only meaningful within
/// one process — they index dispatch caches, nothing durable.
template <typename E>
std::uint16_t event_type_id() {
  return detail::event_type_id_impl<std::remove_cv_t<E>>();
}

inline constexpr std::uint16_t kEventTypeUnknown = 0;

struct KompicsEvent {
  KompicsEvent() = default;
  // Copies are fresh value objects: they start with their own reference
  // count and no arena identity (only make_event stamps those).
  KompicsEvent(const KompicsEvent&) noexcept {}
  KompicsEvent& operator=(const KompicsEvent&) noexcept { return *this; }
  virtual ~KompicsEvent() = default;

  /// Dense type id stamped by make_event; kEventTypeUnknown for foreign
  /// events. (Named event_type to stay clear of subclasses' own type_id
  /// notions, e.g. the serializer registry selector on messaging::Msg.)
  std::uint16_t event_type() const noexcept { return type_id_; }

 private:
  template <typename T>
  friend class EventRef;
  template <typename E, typename... Args>
  friend EventRef<E> make_event(Args&&... args);

  // The plain branch is taken whenever the current thread provably owns all
  // references it can reach (detail::refs_plain): simulation mode, or a
  // local-mode component cluster executing on its home worker. Mixing plain
  // and atomic operations on the same counter is sound because the plain
  // ones are only ever sequenced on a single thread at a time, with
  // happens-before edges (scheduler queues, mailbox handoff) separating the
  // regimes.
  void add_ref_() const noexcept {
    if (!detail::refs_plain()) {
      refs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      refs_.store(refs_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    }
  }
  void release_() const noexcept {
    if (!detail::refs_plain()) {
      if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) destroy_();
    } else {
      const std::uint32_t r = refs_.load(std::memory_order_relaxed) - 1;
      refs_.store(r, std::memory_order_relaxed);
      if (r == 0) destroy_();
    }
  }
  void destroy_() const noexcept {
    const std::uint8_t cls = size_class_;
    const std::uint8_t off = block_off_;
    if (cls == detail::kNotArena) {
      delete this;
      return;
    }
    // Recover the most-derived object's address (== the arena block) before
    // running the virtual destructor: with multiple inheritance `this` may
    // not be the address the arena handed out. make_event stamps the offset;
    // the dynamic_cast fallback only runs for offsets too big for the byte.
    void* block =
        off != detail::kOffsetUnknown
            ? const_cast<void*>(static_cast<const void*>(
                  reinterpret_cast<const char*>(this) - off))
            : const_cast<void*>(dynamic_cast<const void*>(this));
    this->~KompicsEvent();
    Arena::release(block, cls);
  }

  mutable std::atomic<std::uint32_t> refs_{1};
  std::uint16_t type_id_ = kEventTypeUnknown;
  std::uint8_t size_class_ = detail::kNotArena;
  std::uint8_t block_off_ = detail::kOffsetUnknown;
};

/// Intrusive shared handle to an immutable event. One pointer wide; copy
/// bumps the event's own refcount, so sharing an event across components and
/// threads allocates nothing. API mirrors shared_ptr<const E> for the subset
/// the codebase uses.
template <typename E>
class EventRef {
 public:
  using element_type = const E;

  constexpr EventRef() noexcept = default;
  constexpr EventRef(std::nullptr_t) noexcept {}  // NOLINT

  /// Adopts `p` (refcount already holds this reference). Used by make_event.
  struct adopt_t {};
  EventRef(const E* p, adopt_t) noexcept : p_(p) {}

  /// Shares `p`: bumps the refcount. Used by dispatch and event_cast.
  static EventRef add_ref(const E* p) noexcept {
    if (p != nullptr) base_of(p)->add_ref_();
    return EventRef(p, adopt_t{});
  }

  EventRef(const EventRef& other) noexcept : p_(other.p_) {
    if (p_ != nullptr) base_of(p_)->add_ref_();
  }
  EventRef(EventRef&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }

  /// Implicit upcast, e.g. EventRef<PingMsg> -> EventRef<Msg> -> EventPtr.
  template <typename D,
            typename = std::enable_if_t<
                std::is_convertible_v<const D*, const E*>>>
  EventRef(const EventRef<D>& other) noexcept : p_(other.get()) {  // NOLINT
    if (p_ != nullptr) base_of(p_)->add_ref_();
  }
  template <typename D,
            typename = std::enable_if_t<
                std::is_convertible_v<const D*, const E*>>>
  EventRef(EventRef<D>&& other) noexcept : p_(other.get()) {  // NOLINT
    other.detach_();
  }

  EventRef& operator=(const EventRef& other) noexcept {
    EventRef(other).swap(*this);
    return *this;
  }
  EventRef& operator=(EventRef&& other) noexcept {
    EventRef(std::move(other)).swap(*this);
    return *this;
  }
  EventRef& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~EventRef() {
    if (p_ != nullptr) base_of(p_)->release_();
  }

  const E* get() const noexcept { return p_; }
  const E& operator*() const noexcept { return *p_; }
  const E* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  void reset() noexcept {
    if (p_ != nullptr) {
      base_of(p_)->release_();
      p_ = nullptr;
    }
  }

  void swap(EventRef& other) noexcept { std::swap(p_, other.p_); }

  /// Approximate (racy under threads), for tests and diagnostics.
  std::uint32_t use_count() const noexcept {
    return p_ == nullptr
               ? 0
               : base_of(p_)->refs_.load(std::memory_order_relaxed);
  }

  friend bool operator==(const EventRef& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const EventRef& a, std::nullptr_t) noexcept {
    return a.p_ != nullptr;
  }
  friend bool operator==(const EventRef& a, const EventRef& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const EventRef& a, const EventRef& b) noexcept {
    return a.p_ != b.p_;
  }

 private:
  template <typename>
  friend class EventRef;

  static const KompicsEvent* base_of(const E* p) noexcept {
    return static_cast<const KompicsEvent*>(p);
  }
  /// Gives up the reference without releasing it (ownership moved out).
  void detach_() noexcept { p_ = nullptr; }

  const E* p_ = nullptr;
};

using EventPtr = EventRef<KompicsEvent>;

/// The event factory: constructs E in the event arena, stamps the type id
/// and size class, returns the sole reference. Replaces make_shared.
template <typename E, typename... Args>
EventRef<E> make_event(Args&&... args) {
  static_assert(std::is_base_of_v<KompicsEvent, E>,
                "events must derive from KompicsEvent");
  // Arena blocks carry operator new's default alignment.
  static_assert(alignof(E) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  constexpr std::uint8_t cls = Arena::class_for(sizeof(E));
  void* block = Arena::acquire(sizeof(E), cls);
  E* e;
  try {
    e = ::new (block) E(std::forward<Args>(args)...);
  } catch (...) {
    Arena::release(block, cls);
    throw;
  }
  KompicsEvent* base = e;
  base->type_id_ = event_type_id<E>();
  base->size_class_ = cls;
  const std::ptrdiff_t off =
      reinterpret_cast<const char*>(base) - static_cast<const char*>(block);
  base->block_off_ = off >= 0 && off < detail::kOffsetUnknown
                         ? static_cast<std::uint8_t>(off)
                         : detail::kOffsetUnknown;
  return EventRef<E>(e, typename EventRef<E>::adopt_t{});
}

/// dynamic_cast for EventRefs (the EventRef analogue of
/// std::dynamic_pointer_cast<const To>).
template <typename To, typename From>
EventRef<To> event_cast(const EventRef<From>& from) noexcept {
  return EventRef<To>::add_ref(dynamic_cast<const To*>(from.get()));
}

// --- Lifecycle events on the implicit control port ---

struct Start final : KompicsEvent {};
struct Stop final : KompicsEvent {};
struct Kill final : KompicsEvent {};
/// Published on a component's control port once its whole subtree has been
/// torn down (post-order) and its mailboxes reclaimed — the terminal
/// lifecycle notification. A killed component never executes again.
struct Killed final : KompicsEvent {};

}  // namespace kmsg::kompics
