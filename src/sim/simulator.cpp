#include "sim/simulator.hpp"

#include <utility>

namespace kmsg::sim {

EventHandle Simulator::insert(TimePoint at, std::uint64_t key, SmallFn&& fn) {
  if (at < now_) at = now_;
  const std::uint32_t slot = slots_->acquire();
  auto& s = slots_->slots[slot];
  s.node = wheel_.schedule(at.as_nanos(), key, slot, s.gen, std::move(fn));
  return EventHandle{slots_, slot, s.gen};
}

void Simulator::post(TimePoint at, std::uint64_t key, SmallFn&& fn) {
  if (at < now_) at = now_;
  wheel_.schedule(at.as_nanos(), key, kNoSlot, 0, std::move(fn));
}

bool Simulator::cancel(std::uint32_t slot, std::uint32_t gen) {
  auto& s = slots_->slots[slot];
  if (s.gen != gen || s.state == detail::SlotTable::kCancelled) return false;
  EventNode* node = s.node;
  if (wheel_.unlink(node)) {
    slots_->release(slot);
    // Last: destroying the closure may run arbitrary destructors.
    wheel_.recycle(node);
  } else {
    // Already drained for the tick being run: discarded when it pops.
    s.state = detail::SlotTable::kCancelled;
    ++cancelled_ready_;
  }
  return true;
}

bool Simulator::dead(const EventNode* node) const {
  return node->slot != kNoSlot &&
         slots_->slots[node->slot].state == detail::SlotTable::kCancelled;
}

void Simulator::retire(EventNode* node) {
  if (node->slot == kNoSlot) return;
  if (dead(node)) --cancelled_ready_;
  slots_->release(node->slot);
}

void Simulator::discard(EventNode* node) {
  retire(node);
  wheel_.recycle(node);
}

void Simulator::fire(EventNode* node) {
  // Release the slot before running: a cancel() from inside the callback
  // must be a no-op, and the callback may schedule new events that reuse the
  // slot under a fresh generation. The node is out of the wheel and off the
  // free list, so the closure runs where it is and is destroyed after it.
  retire(node);
  now_ = TimePoint::from_nanos(node->at);
  ++executed_;
  struct Recycle {
    Wheel& wheel;
    EventNode* node;
    ~Recycle() { wheel.recycle(node); }
  } recycle{wheel_, node};
  node->payload();
}

bool Simulator::step() {
  for (EventNode* node = wheel_.pop(); node != nullptr; node = wheel_.pop()) {
    if (dead(node)) {
      discard(node);
      continue;
    }
    fire(node);
    return true;
  }
  return false;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint until) {
  std::uint64_t n = 0;
  // Each pop returns the true minimum (at, seq) if it is due by `until`, so
  // no event beyond `until` can fire, including one scheduled by a callback.
  while (EventNode* node = wheel_.pop(until.as_nanos())) {
    if (dead(node)) {
      discard(node);
      continue;
    }
    ++n;
    fire(node);
  }
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Simulator::run_before(TimePoint bound) {
  std::uint64_t n = 0;
  // peek() surfaces the true head; cancelled heads are reclaimed in place so
  // the horizon scan never spins on dead events.
  while (EventNode* node = wheel_.peek()) {
    if (dead(node)) {
      wheel_.pop();
      discard(node);
      continue;
    }
    if (node->at >= bound.as_nanos()) break;
    wheel_.pop();
    ++n;
    fire(node);
  }
  return n;
}

TimePoint Simulator::next_event_time() {
  while (EventNode* node = wheel_.peek()) {
    if (!dead(node)) return TimePoint::from_nanos(node->at);
    // Dead head: reclaim it so the reported bound is exact, not the
    // conservative-early time of a lazily-cancelled event.
    wheel_.pop();
    discard(node);
  }
  return TimePoint::max();
}

}  // namespace kmsg::sim
