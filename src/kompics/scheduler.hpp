// Component schedulers.
//
// Two interchangeable implementations:
//  - SimulationScheduler: executes components as discrete-event simulator
//    events (deterministic, virtual time) — used by all experiments;
//  - ThreadPoolScheduler: a work-stealing multi-core runtime (wall-clock
//    time) — used by the runnable examples to show the public API is not
//    simulation-bound.
//
// The thread pool is organised around per-worker run-queues instead of a
// central mutex-guarded deque (DESIGN.md §10):
//  - each worker owns a bounded Chase-Lev deque (common/work_steal_deque.hpp)
//    of *shared-mode* components: the owner pushes/pops LIFO at the bottom,
//    idle workers steal FIFO from the top, and a full deque spills into the
//    global inject queue;
//  - *local-mode* components (whole channel cluster pinned to one worker,
//    see ComponentCore::is_shared) ride a plain intrusive FIFO private to
//    their home worker and are never stealable — that is what lets their
//    refcounts and mailboxes stay non-atomic;
//  - external producers (the main thread, the timer thread) hand work over
//    through mutex-guarded rare-path queues: a per-worker inbox for
//    local-mode cores and the global inject queue for shared ones;
//  - cross-core publishes batch per-destination in a thread-local outbox and
//    are spliced into the destination mailbox with one atomic exchange per
//    burst (ComponentCore::mailbox_push_chain);
//  - idle workers park individually (per-worker flag + condvar); producers
//    unpark exactly one parked worker — no broadcast wakeups.
//
// A component is enqueued at most once (ComponentCore::scheduled_ flag) and
// is executed by one thread at a time, which is Kompics' concurrency model.
//
// Delayed callbacks are SmallFn closures and return a value-type TimerHandle
// (slot/generation pair, mirroring sim::EventHandle) — arming a timer
// performs no allocation beyond the scheduler's pooled wheel node and, for a
// closure over SmallFn's inline size, its recycled block. Both schedulers
// store their timers in a hierarchical timing wheel
// (common/timing_wheel.hpp): O(1) arm and cancel. Callbacks armed from a
// local-mode execution context are routed back to the arming worker before
// they run (their captures are thread-confined); all others run inline on
// the timer thread.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "common/timing_wheel.hpp"
#include "common/work_steal_deque.hpp"
#include "kompics/core.hpp"
#include "sim/simulator.hpp"

namespace kmsg::kompics {

class Scheduler;

/// Handle to a delayed callback; allows cancellation. A default-constructed
/// handle is inert. Cancelling after the callback ran (or twice) is a no-op —
/// the generation counter disambiguates recycled slots. The handle must not
/// outlive the scheduler it came from (components always satisfy this:
/// KompicsSystem destroys components before the scheduler).
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Cancels the callback if it has not fired yet. Idempotent.
  void cancel();

  /// True if this handle was ever armed (it may have fired already).
  bool valid() const { return scheduler_ != nullptr; }
  explicit operator bool() const { return scheduler_ != nullptr; }

  std::uint32_t slot() const { return slot_; }
  std::uint32_t gen() const { return gen_; }

 private:
  friend class SimulationScheduler;
  friend class ThreadPoolScheduler;
  TimerHandle(Scheduler* scheduler, std::uint32_t slot, std::uint32_t gen)
      : scheduler_(scheduler), slot_(slot), gen_(gen) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Enqueues a component for execution.
  virtual void schedule(ComponentCore* core) = 0;
  /// Schedules `fn` to run after `delay` (timer facility backing).
  virtual TimerHandle schedule_delayed(Duration delay, SmallFn fn) = 0;
  /// Cancels a delayed callback by its slot/generation pair (the backing of
  /// TimerHandle::cancel). No-op when it already fired or was cancelled.
  virtual void cancel_timer(std::uint32_t slot, std::uint32_t gen) = 0;
  virtual const Clock& clock() const = 0;
  /// Stops worker threads (no-op for the simulation scheduler).
  virtual void shutdown() {}
};

inline void TimerHandle::cancel() {
  if (scheduler_ == nullptr) return;
  scheduler_->cancel_timer(slot_, gen_);
  scheduler_ = nullptr;
}

class SimulationScheduler final : public Scheduler {
 public:
  explicit SimulationScheduler(sim::Simulator& sim) : sim_(sim) {}
  void schedule(ComponentCore* core) override;
  TimerHandle schedule_delayed(Duration delay, SmallFn fn) override;
  void cancel_timer(std::uint32_t slot, std::uint32_t gen) override;
  const Clock& clock() const override { return sim_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
};

namespace detail {

inline constexpr std::uint32_t kNoWorker = 0xffffffffu;

/// Cross-core publish bursts batch per destination; one flush entry per
/// distinct destination component touched during a single execute() run.
inline constexpr std::size_t kOutboxFanout = 8;

struct PendingChain {
  ComponentCore* dest = nullptr;
  MailboxNode* first = nullptr;
  MailboxNode* last = nullptr;
};

/// Thread-local identity of a pool worker: which pool, which index, the
/// private FIFO of local-mode cores and the batched-handoff outbox.
struct WorkerContext {
  ThreadPoolScheduler* pool;
  std::uint32_t index;

  // Local-mode run FIFO (intrusive via ComponentCore::sched_next_): only
  // this thread ever touches it.
  ComponentCore* local_head = nullptr;
  ComponentCore* local_tail = nullptr;

  std::array<PendingChain, kOutboxFanout> outbox{};
  std::size_t outbox_used = 0;

  void push_local(ComponentCore* c) {
    c->sched_next_ = nullptr;
    if (local_tail != nullptr) {
      local_tail->sched_next_ = c;
    } else {
      local_head = c;
    }
    local_tail = c;
  }
  ComponentCore* pop_local() {
    ComponentCore* c = local_head;
    if (c == nullptr) return nullptr;
    local_head = c->sched_next_;
    if (local_head == nullptr) local_tail = nullptr;
    c->sched_next_ = nullptr;
    return c;
  }

  /// Appends a node to the destination's pending chain. Links are plain
  /// (thread-local until the flush publishes them). False when all fan-out
  /// entries are taken by other destinations.
  bool outbox_append(ComponentCore* dest, MailboxNode* n) {
    for (std::size_t i = 0; i < outbox_used; ++i) {
      if (outbox[i].dest == dest) {
        outbox[i].last->next.store(n, std::memory_order_relaxed);
        outbox[i].last = n;
        return true;
      }
    }
    if (outbox_used < kOutboxFanout) {
      outbox[outbox_used++] = PendingChain{dest, n, n};
      return true;
    }
    return false;
  }

  /// Splices every pending chain into its destination (one exchange each)
  /// and runs the scheduled_ wakeup protocol per destination.
  void flush_outbox();
};

inline thread_local WorkerContext* t_worker = nullptr;

}  // namespace detail

class ThreadPoolScheduler final : public Scheduler {
 public:
  explicit ThreadPoolScheduler(std::size_t workers);
  ~ThreadPoolScheduler() override;

  void schedule(ComponentCore* core) override;
  TimerHandle schedule_delayed(Duration delay, SmallFn fn) override;
  void cancel_timer(std::uint32_t slot, std::uint32_t gen) override;
  const Clock& clock() const override { return clock_; }
  void shutdown() override;

  std::size_t worker_count() const { return states_.size(); }
  /// Cores handed to schedule() after shutdown began (dropped, diagnosed).
  std::uint64_t dropped_after_stop() const {
    return dropped_after_stop_.load(std::memory_order_relaxed);
  }

 private:
  friend struct detail::WorkerContext;

  /// Timer-thread → worker handoff: a callback (or a cancelled callback's
  /// destructor) that must run on a specific worker because its captures are
  /// confined to that thread.
  struct WorkerTask {
    SmallFn fn;
    bool invoke = true;
  };

  /// Wheel payload: the callback plus the worker it is confined to
  /// (kNoWorker → run inline on the timer thread).
  struct TimerFn {
    SmallFn fn;
    std::uint32_t home = detail::kNoWorker;
  };

  struct WorkerState {
    WorkStealDeque<ComponentCore> deque;

    // Rare-path queues (external schedules, timer-routed tasks).
    std::mutex m;
    std::deque<ComponentCore*> inbox;  // local-mode cores scheduled off-home
    std::deque<WorkerTask> tasks;

    // Parking-lot slot.
    std::mutex park_m;
    std::condition_variable_any park_cv;
    bool unparked = false;  // guarded by park_m
    std::atomic<bool> parked{false};
  };

  void worker_loop(std::stop_token st, std::uint32_t index);
  void timer_loop(std::stop_token st);
  void run_core(detail::WorkerContext& ctx, ComponentCore* core);
  bool run_one_task(detail::WorkerContext& ctx, WorkerState& me);
  void push_inject(ComponentCore* core);
  ComponentCore* pop_inject();
  ComponentCore* pop_inbox(WorkerState& me);
  ComponentCore* try_steal(std::uint32_t my_index);
  bool work_visible(std::uint32_t my_index);
  void park(WorkerState& me, std::uint32_t index, std::stop_token& st);
  void unpark(std::uint32_t index);
  void unpark_one();
  void post_task(std::uint32_t index, WorkerTask task);

  SteadyClock clock_;
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::atomic<std::uint32_t> parked_count_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> dropped_after_stop_{0};

  // Global inject/overflow queue: external schedules of shared-mode cores
  // and per-worker deque spill. Mutex-guarded — it is off the hot path by
  // design; the counter gives parking workers a lock-free emptiness probe.
  std::mutex inject_m_;
  std::deque<ComponentCore*> inject_;
  std::atomic<std::size_t> inject_size_{0};

  // Timers: a timing wheel of TimerFn payloads keyed by steady-clock
  // nanoseconds, with lazy cancellation through a slot/generation table: a
  // cancelled callback is still destroyed on its home worker when it comes
  // due (the simulator unlinks instead). All guarded by timer_mutex_.
  std::mutex timer_mutex_;
  std::condition_variable_any timer_cv_;
  TimingWheel<TimerFn> timers_;
  sim::detail::SlotTable timer_slots_;
  std::uint64_t timer_seq_ = 0;

  std::vector<std::jthread> workers_;
  std::jthread timer_thread_;
};

}  // namespace kmsg::kompics
