// Hierarchical timing wheel: the event queue behind both the deterministic
// simulator and the thread-pool scheduler's timers.
//
// Layout. Time is bucketed into 1024 ns ticks (kGranularityBits). The wheel
// has 9 levels of 64 slots each (kSlotBits = 6): level L slot widths are
// 64^L ticks, so 9 levels cover the full 54-bit tick space — any int64
// nanosecond timestamp has a home slot and there is no overflow list. A
// pending event lives at the *highest* level where its tick still differs
// from the current tick (level 0 = due within the current 64-tick block);
// as the cursor advances into a level-L slot, that slot's events cascade
// down and re-home at levels < L. Schedule and cancel are O(1); each event
// cascades at most 8 times over its whole lifetime.
//
// Determinism. The simulator's contract is: events fire in (time, sequence)
// order, where sequence is scheduling order — bit-identical runs for a fixed
// seed. Slot lists are unordered (prepend + cascade), so the wheel never
// hands out events straight from a slot: draining the due level-0 slot sorts
// its events by (at, seq) into the ready list, and only the ready list feeds
// pop(). (at, seq) pairs are unique, so the sort is a total order and
// plain std::sort — which, unlike stable_sort, allocates nothing — is
// deterministic. Events scheduled into the already-drained past (the
// simulator clamps to "now") are merge-inserted into the ready list so they
// still fire in (at, seq) order relative to events of the same instant.
//
// Peeking (next_at) must not disturb this: it is a pure scan — lowest
// occupied level, first occupied slot, minimum `at` in that slot's list.
// The level-ordering invariant (every event at level L is due strictly
// before every event at level > L, and slots within a level are disjoint
// ascending time ranges) makes that minimum the global minimum.
//
// Removal. Slot lists are doubly linked and every node records its home
// (level, slot), so unlink() takes a pending node out of its slot in O(1):
// a cancelled event leaves the wheel at once instead of riding the cascade
// down to its deadline. A node already drained into the ready list cannot
// be unlinked; there
// cancellation stays lazy: the caller marks the node's slot/generation tag
// (the wheel stores it and hands it back on pop) and discards the node when
// it pops out. (The thread-pool scheduler cancels lazily throughout.) A
// lazily cancelled node can make next_at() report an earlier time than the
// next live event — a conservative-early bound.
//
// Nodes are pooled in chunks owned by the wheel; steady-state scheduling
// performs no heap allocation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace kmsg {

template <typename Payload>
class TimingWheel {
 public:
  static constexpr int kGranularityBits = 10;  // 1024 ns per tick
  static constexpr int kSlotBits = 6;          // 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 9;  // 9 * 6 + 10 = 64 bits covered
  static constexpr std::int64_t kNoEvent =
      std::numeric_limits<std::int64_t>::max();
  /// Node::level of a node drained into the ready list.
  static constexpr std::uint8_t kReadyLevel = 0xff;

  struct Node {
    Node* next;
    Node* prev;         // slot list back link; nullptr at the slot's head
    std::int64_t at;    // absolute nanoseconds
    std::uint64_t seq;  // scheduling order, tiebreak within an instant
    std::uint32_t slot;  // caller's cancellation tag (slot table index)
    std::uint32_t gen;   // caller's cancellation tag (generation)
    std::uint8_t level;  // home level, or kReadyLevel once drained
    std::uint8_t idx;    // home slot within the level
    Payload payload;
  };

  TimingWheel() = default;
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;
  ~TimingWheel() {
    for (Node* n : ready_) destroy(n);
    for (int level = 0; level < kLevels; ++level) {
      for (int idx = 0; idx < kSlots; ++idx) {
        for (Node* n = slots_[level][idx]; n != nullptr;) {
          Node* next = n->next;
          destroy(n);
          n = next;
        }
      }
    }
  }

  /// Schedules a payload and returns its node, which stays valid until it
  /// is popped or unlinked. `seq` must be unique per (at, seq) — the
  /// caller's monotone scheduling counter. slot/gen are opaque cancellation
  /// tags handed back on pop().
  Node* schedule(std::int64_t at, std::uint64_t seq, std::uint32_t slot,
                 std::uint32_t gen, Payload&& payload) {
    Node* n = acquire(std::move(payload));
    n->at = at;
    n->seq = seq;
    n->slot = slot;
    n->gen = gen;
    ++size_;
    if (at < drained_until_) {
      // Past (or current-instant) insert: the home slot was already drained.
      // Merge into the sorted ready list so (at, seq) order still holds.
      n->level = kReadyLevel;
      auto it = std::upper_bound(ready_.begin(), ready_.end(), n, later);
      ready_.insert(it, n);
      return n;
    }
    place(n);
    return n;
  }

  /// Takes a pending node out of its slot in O(1) and returns true; the
  /// caller then recycle()s it. Returns false, leaving the node in place,
  /// when it was already drained into the ready list.
  bool unlink(Node* n) {
    if (n->level == kReadyLevel) return false;
    Node*& head = slots_[n->level][n->idx];
    if (n->prev != nullptr) {
      n->prev->next = n->next;
    } else {
      head = n->next;
    }
    if (n->next != nullptr) n->next->prev = n->prev;
    if (head == nullptr) occupancy_[n->level] &= ~(std::uint64_t{1} << n->idx);
    --size_;
    return true;
  }

  /// Earliest pending timestamp, or kNoEvent. Conservative-early when the
  /// earliest node was lazily cancelled. Pure: never advances the cursor.
  std::int64_t next_at() const {
    if (!ready_.empty()) return ready_.back()->at;
    for (int level = 0; level < kLevels; ++level) {
      const std::uint64_t mask =
          occupancy_[level] & (~std::uint64_t{0} << level_index(level));
      if (mask == 0) continue;
      const int idx = std::countr_zero(mask);
      std::int64_t best = kNoEvent;
      for (const Node* n = slots_[level][idx]; n != nullptr; n = n->next) {
        best = std::min(best, n->at);
      }
      return best;
    }
    return kNoEvent;
  }

  /// Detaches and returns the next node in (at, seq) order if it is due at
  /// or before `limit`, else nullptr. The caller runs or discards it, then
  /// must recycle() it. Slots starting after `limit` are left alone, so one
  /// scan does what next_at() followed by pop() would.
  Node* pop(std::int64_t limit = kNoEvent) {
    if (!fill_ready(limit) || ready_.back()->at > limit) return nullptr;
    Node* n = ready_.back();
    ready_.pop_back();
    --size_;
    return n;
  }

  /// The next node in (at, seq) order without detaching it, or nullptr.
  /// Unlike next_at() this is exact, not conservative: it surfaces the true
  /// head node so callers can inspect its cancellation tag (and pop() it if
  /// it turns out to be dead). Advances the cursor like pop() does.
  Node* peek() {
    if (!fill_ready()) return nullptr;
    return ready_.back();
  }

  /// Returns a popped node's memory to the wheel's pool.
  void recycle(Node* n) { destroy(n); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  /// Ensures ready_ holds the head node (draining/cascading slots as
  /// needed). Returns false when the wheel is empty or, without touching
  /// it, when the next occupied slot starts after `limit`: no event in it
  /// (or, by the level ordering, anywhere else) is due by then.
  bool fill_ready(std::int64_t limit = kNoEvent) {
    while (ready_.empty()) {
      int level = 0;
      std::uint64_t mask = 0;
      for (; level < kLevels; ++level) {
        mask = occupancy_[level] & (~std::uint64_t{0} << level_index(level));
        if (mask != 0) break;
      }
      if (level == kLevels) return false;
      const int idx = std::countr_zero(mask);
      const int shift = kSlotBits * level;
      const std::int64_t slot_span = std::int64_t{1} << (shift + kSlotBits);
      const std::int64_t slot_tick =
          (cur_tick_ & ~(slot_span - 1)) | (std::int64_t{idx} << shift);
      if (limit < (slot_tick << kGranularityBits)) return false;
      if (level == 0) {
        cur_tick_ = slot_tick;
        drained_until_ = (cur_tick_ + 1) << kGranularityBits;
        for (Node* n = detach(0, idx); n != nullptr;) {
          Node* next = n->next;
          n->level = kReadyLevel;
          ready_.push_back(n);
          n = next;
        }
        std::sort(ready_.begin(), ready_.end(), later);
        break;
      }
      // Cascade: advance the cursor to the start of this level-L slot and
      // re-home its nodes; each lands at a level strictly below L.
      cur_tick_ = slot_tick;
      for (Node* n = detach(level, idx); n != nullptr;) {
        Node* next = n->next;
        place(n);
        n = next;
      }
    }
    return true;
  }

  // Descending (at, seq): ready_.back() is the next event. (at, seq) is
  // unique, so this is a strict weak order and std::sort is deterministic.
  static bool later(const Node* a, const Node* b) {
    if (a->at != b->at) return a->at > b->at;
    return a->seq > b->seq;
  }

  int level_index(int level) const {
    return static_cast<int>((cur_tick_ >> (kSlotBits * level)) & (kSlots - 1));
  }

  /// Homes a node whose `at` is >= drained_until_.
  void place(Node* n) {
    const std::int64_t tick = n->at >> kGranularityBits;
    const std::uint64_t diff =
        static_cast<std::uint64_t>(tick ^ cur_tick_);
    const int level =
        diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
    const int idx =
        static_cast<int>((tick >> (kSlotBits * level)) & (kSlots - 1));
    Node*& head = slots_[level][idx];
    n->level = static_cast<std::uint8_t>(level);
    n->idx = static_cast<std::uint8_t>(idx);
    n->prev = nullptr;
    n->next = head;
    if (head != nullptr) head->prev = n;
    head = n;
    occupancy_[level] |= std::uint64_t{1} << idx;
  }

  Node* detach(int level, int idx) {
    Node* head = slots_[level][idx];
    slots_[level][idx] = nullptr;
    occupancy_[level] &= ~(std::uint64_t{1} << idx);
    return head;
  }

  // --- node pool (chunked, recycled through a freelist) ---

  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kChunkNodes = 512;
  struct Chunk {
    alignas(Node) std::byte bytes[kChunkNodes * sizeof(Node)];
  };

  Node* acquire(Payload&& payload) {
    if (free_ == nullptr) grow();
    FreeNode* f = free_;
    free_ = f->next;
    return ::new (static_cast<void*>(f))
        Node{nullptr, nullptr, 0, 0, 0, 0, 0, 0, std::move(payload)};
  }

  void destroy(Node* n) {
    n->~Node();
    auto* f = reinterpret_cast<FreeNode*>(n);
    f->next = free_;
    free_ = f;
  }

  void grow() {
    chunks_.push_back(std::make_unique<Chunk>());
    std::byte* base = chunks_.back()->bytes;
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      auto* f = reinterpret_cast<FreeNode*>(base + i * sizeof(Node));
      f->next = free_;
      free_ = f;
    }
  }

  std::int64_t cur_tick_ = 0;       // tick of the last drained level-0 slot
  std::int64_t drained_until_ = 0;  // ns; inserts below this go to ready_
  std::size_t size_ = 0;
  std::array<std::array<Node*, kSlots>, kLevels> slots_{};
  std::array<std::uint64_t, kLevels> occupancy_{};
  std::vector<Node*> ready_;  // sorted descending by (at, seq)
  std::vector<std::unique_ptr<Chunk>> chunks_;
  FreeNode* free_ = nullptr;
};

}  // namespace kmsg
