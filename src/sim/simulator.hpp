// Discrete-event simulation core.
//
// A single-threaded simulator with deterministic tie-breaking: events
// scheduled for the same instant execute in scheduling order. All timed
// behaviour in the simulated stack — link serialisation, protocol timers,
// Kompics timers, learner episodes — is expressed as events here, so a fixed
// seed yields a bit-identical run.
//
// The event queue is a hierarchical timing wheel (common/timing_wheel.hpp):
// O(1) schedule and cancel instead of the old binary heap's O(log n), with
// the (time, sequence) firing order preserved by sorting each due slot as it
// drains. Closures are stored as SmallFn (small-buffer optimised, see
// common/small_fn.hpp) directly inside pooled wheel nodes.
//
// Cancellation is eager. A handle names a slot in a table shared by all
// handles of a simulator; the slot points at the event's wheel node, so
// cancel() unlinks the node and recycles it (destroying the closure) at
// once. Only an event already drained for the tick being run stays in the
// wheel, marked, until it pops out and is discarded. So pending(), idle()
// and run() see live events only: run() returns once the last live event
// ran, however many cancelled timers were armed beyond it. post_after and
// post_at_keyed schedule events nobody cancels, taking no slot and building
// no handle.
// Steady-state scheduling is allocation-free; the only allocations are
// amortised pool/container growth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "common/timing_wheel.hpp"

namespace kmsg::sim {

// --- Event ordering keys ----------------------------------------------------
//
// Within one simulator, same-instant events fire in ascending key order. Two
// key bands exist:
//
//  - band 0 (top bit clear): locally scheduled events. The key is the
//    simulator's monotone scheduling counter, so locals fire in scheduling
//    order — the classic sequential contract.
//  - band 1 (top bit set): message deliveries. The key encodes
//    (source lane, destination lane, per-link send counter), all of which
//    depend only on the *sender's* deterministic execution — never on how
//    simulators happen to interleave. Deliveries therefore sort identically
//    whether they were scheduled locally or handed across a shard boundary,
//    which is the keystone of the sharded engine's bit-identical-parity
//    guarantee (see sharded.hpp and DESIGN.md §9).
//
// At equal (time, band), band 0 < band 1: local work at an instant runs
// before deliveries arriving at that instant, in every shard layout.

/// Band bit distinguishing delivery keys from local scheduling counters.
inline constexpr std::uint64_t kDeliveryBand = std::uint64_t{1} << 63;
/// Bits reserved for the per-link send counter inside a delivery key.
inline constexpr int kDeliveryCounterBits = 23;
inline constexpr std::uint64_t kDeliveryCounterMask =
    (std::uint64_t{1} << kDeliveryCounterBits) - 1;

/// Composes a band-1 delivery key: (src lane, dst lane, send counter).
/// Lanes are 20-bit entity ids (host ids in netsim); the counter is the
/// sender-side per-link monotone send count, so keys from one link are
/// unique and ordered by send order.
constexpr std::uint64_t delivery_key(std::uint32_t src_lane,
                                     std::uint32_t dst_lane,
                                     std::uint64_t counter) {
  return kDeliveryBand |
         (static_cast<std::uint64_t>(src_lane & 0xFFFFF) << 43) |
         (static_cast<std::uint64_t>(dst_lane & 0xFFFFF) << 23) |
         (counter & kDeliveryCounterMask);
}

/// The (src, dst) part of a delivery key; a link ORs in its send counter.
constexpr std::uint64_t delivery_key_base(std::uint32_t src_lane,
                                          std::uint32_t dst_lane) {
  return delivery_key(src_lane, dst_lane, 0);
}

class Simulator;

/// A pending event's node in the simulator's wheel.
using EventNode = TimingWheel<SmallFn>::Node;

namespace detail {

/// One slot per cancellable pending event. The generation counter
/// disambiguates handles from earlier events that recycled the same slot.
/// For the simulator, `node` is the event's wheel node, which cancel()
/// unlinks, and `owner` the simulator itself: ~Simulator clears it, so a
/// handle that outlives its simulator cancels nothing. `state` marks an
/// event cancelled while it waits in the ready list. (The thread-pool
/// scheduler tags its timers through a table of its own and cancels by
/// `state` alone.)
struct SlotTable {
  enum State : std::uint8_t { kLive = 0, kCancelled = 1 };
  struct Slot {
    std::uint32_t gen = 0;
    std::uint8_t state = kLive;
    EventNode* node = nullptr;
  };
  Simulator* owner = nullptr;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free;

  std::uint32_t acquire() {
    if (!free.empty()) {
      const std::uint32_t i = free.back();
      free.pop_back();
      slots[i].state = kLive;
      return i;
    }
    slots.push_back(Slot{});
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  /// Invalidates all outstanding handles for the slot and recycles it.
  void release(std::uint32_t i) {
    ++slots[i].gen;
    slots[i].state = kLive;
    slots[i].node = nullptr;
    free.push_back(i);
  }
  bool is_cancelled(std::uint32_t i, std::uint32_t gen) const {
    return slots[i].gen == gen && slots[i].state == kCancelled;
  }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Copies address the same
/// underlying event (cancelling any copy cancels the event). A
/// default-constructed handle is inert, and so is a handle whose simulator
/// is gone.
class EventHandle {
 public:
  EventHandle() = default;
  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();
  bool valid() const { return static_cast<bool>(table_); }
  /// True when cancel() on this handle found the event pending.
  bool cancelled() const { return cancelled_; }

  /// Slot-table coordinates (for embedding in scheduler timer handles).
  std::uint32_t slot() const { return slot_; }
  std::uint32_t gen() const { return gen_; }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::SlotTable> table, std::uint32_t slot,
              std::uint32_t gen)
      : table_(std::move(table)), slot_(slot), gen_(gen) {}
  std::shared_ptr<detail::SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
  bool cancelled_ = false;
};

/// The simulator. Also a Clock, so components can be handed `sim` wherever a
/// time source is needed.
class Simulator final : public Clock {
 public:
  Simulator() : slots_(std::make_shared<detail::SlotTable>()) {
    slots_->owner = this;
  }
  ~Simulator() override { slots_->owner = nullptr; }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const override { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Scheduling in the past
  /// (including "now") is clamped to now and runs after already-queued events
  /// for the current instant.
  EventHandle schedule_at(TimePoint at, SmallFn fn) {
    return insert(at, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` to run after `delay` from now.
  EventHandle schedule_after(Duration delay, SmallFn fn) {
    return insert(now_ + delay, next_seq_++, std::move(fn));
  }

  /// schedule_after for an event that is never cancelled: the same firing
  /// order, without a slot or a handle (a handle holds a shared_ptr, two
  /// atomic operations per copy).
  void post_after(Duration delay, SmallFn fn) {
    post(now_ + delay, next_seq_++, std::move(fn));
  }

  /// Posts `fn` at `at` with an explicit ordering key (see the key-band
  /// commentary above). Same-instant events fire in ascending key order;
  /// schedule_at and post_after use the band-0 scheduling counter. (at, key)
  /// must be unique per simulator — delivery_key() guarantees this for
  /// band 1. Like post_after, it takes no slot and returns no handle.
  void post_at_keyed(TimePoint at, std::uint64_t key, SmallFn fn) {
    post(at, key, std::move(fn));
  }

  /// Cancels a scheduled event by slot-table coordinates (the by-value
  /// equivalent of EventHandle::cancel, used by kompics::TimerHandle).
  /// Returns false when the event was no longer pending.
  bool cancel(std::uint32_t slot, std::uint32_t gen);

  /// Runs until no live event is left. Returns the number of events
  /// executed.
  std::uint64_t run();

  /// Runs events with time <= until. Stops with the clock advanced to
  /// `until` even when the queue empties earlier. Returns events executed.
  std::uint64_t run_until(TimePoint until);

  /// Runs events with time strictly < bound, leaving the clock at the last
  /// executed event (never force-advanced). This is the sharded engine's
  /// horizon-bounded step: events at exactly `bound` may still be affected
  /// by incoming cross-shard deliveries and must not fire yet.
  std::uint64_t run_before(TimePoint bound);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Live events only: cancelled ones are not counted.
  bool idle() const { return pending() == 0; }
  std::size_t pending() const { return wheel_.size() - cancelled_ready_; }
  std::uint64_t executed() const { return executed_; }

  /// Time of the next live scheduled event; TimePoint::max() when idle.
  /// Cancelled events in the ready list are skipped (and reclaimed) rather
  /// than reported, so horizon exchange in the sharded engine never stalls
  /// on a dead event. Non-const because the scan drops cancelled heads.
  TimePoint next_event_time();

 private:
  using Wheel = TimingWheel<SmallFn>;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // The closure is passed on by reference and moved once, into its node.
  EventHandle insert(TimePoint at, std::uint64_t key, SmallFn&& fn);
  void post(TimePoint at, std::uint64_t key, SmallFn&& fn);
  /// True for an event cancelled while it waited in the ready list.
  bool dead(const EventNode* node) const;
  /// Takes a popped node's slot back.
  void retire(EventNode* node);
  /// Recycles a popped dead node without running it.
  void discard(EventNode* node);
  /// Runs a popped live node's event in place, then recycles the node.
  void fire(EventNode* node);

  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t cancelled_ready_ = 0;  // cancelled events in the ready list
  std::shared_ptr<detail::SlotTable> slots_;
  Wheel wheel_;
};

inline void EventHandle::cancel() {
  if (table_ && table_->owner != nullptr &&
      table_->owner->cancel(slot_, gen_)) {
    cancelled_ = true;
  }
}

}  // namespace kmsg::sim
