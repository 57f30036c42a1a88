#include "kompics/scheduler.hpp"

#include <atomic>
#include <cassert>
#include <chrono>

#include "common/logging.hpp"
#include "kompics/core.hpp"

namespace kmsg::kompics {

// --- SimulationScheduler ---

void SimulationScheduler::schedule(ComponentCore* core) {
  // Component execution is instantaneous in virtual time; scheduling "now"
  // preserves FIFO order among ready components via the simulator's
  // deterministic tie-breaking. The plain-refs scope keeps simulation
  // dispatch on the non-atomic refcount path even while a thread pool is
  // alive elsewhere in the process (a simulation is driven from one thread
  // by contract).
  sim_.post_after(Duration::zero(), [core] {
    detail::ScopedPlainRefs scope(true);
    core->execute();
  });
}

TimerHandle SimulationScheduler::schedule_delayed(Duration delay, SmallFn fn) {
  auto handle =
      sim_.schedule_after(delay, [f = std::move(fn)]() mutable {
        detail::ScopedPlainRefs scope(true);
        f();
      });
  return TimerHandle{this, handle.slot(), handle.gen()};
}

void SimulationScheduler::cancel_timer(std::uint32_t slot, std::uint32_t gen) {
  sim_.cancel(slot, gen);
}

// --- WorkerContext ---

namespace detail {

void WorkerContext::flush_outbox() {
  for (std::size_t i = 0; i < outbox_used; ++i) {
    PendingChain& p = outbox[i];
    ComponentCore* dest = p.dest;
    dest->mailbox_push_chain(p.first, p.last);
    p = PendingChain{};
    // Same wakeup protocol as ComponentCore::enqueue, run once per burst.
    if (!dest->scheduled_.load(std::memory_order_seq_cst) &&
        !dest->scheduled_.exchange(true, std::memory_order_seq_cst)) {
      pool->schedule(dest);
    }
  }
  outbox_used = 0;
}

}  // namespace detail

// --- ThreadPoolScheduler ---

ThreadPoolScheduler::ThreadPoolScheduler(std::size_t workers) {
  // Switch events + mailboxes to their thread-safe paths for as long as any
  // thread pool is alive; individual cores opt back into the plain paths via
  // the local-mode gate (detail::refs_plain).
  detail::g_mt_schedulers.fetch_add(1, std::memory_order_seq_cst);
  if (workers == 0) workers = 1;
  states_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i](std::stop_token st) {
      worker_loop(st, static_cast<std::uint32_t>(i));
    });
  }
  timer_thread_ = std::jthread([this](std::stop_token st) { timer_loop(st); });
}

ThreadPoolScheduler::~ThreadPoolScheduler() { shutdown(); }

void ThreadPoolScheduler::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_seq_cst)) {
    return;
  }
  // Timer thread first: it posts tasks to workers, so it must be quiet
  // before the workers drain and exit.
  timer_thread_.request_stop();
  timer_cv_.notify_one();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (auto& w : workers_) w.request_stop();
  for (std::uint32_t i = 0; i < states_.size(); ++i) unpark(i);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // All workers joined: only now is it safe to fall back to the plain
  // single-threaded refcount/mailbox paths.
  detail::g_mt_schedulers.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPoolScheduler::schedule(ComponentCore* core) {
  detail::WorkerContext* ctx = detail::t_worker;
  if (ctx != nullptr && ctx->pool == this) {
    // A worker of this pool: owner-local push, no lock.
    if (!core->is_shared() && core->home_ == ctx->index) {
      ctx->push_local(core);
      return;
    }
    if (states_[ctx->index]->deque.push_bottom(core)) {
      // New stealable work: wake one thief if anybody is asleep.
      if (parked_count_.load(std::memory_order_seq_cst) != 0) unpark_one();
    } else {
      push_inject(core);  // deque full: spill (fairness over buffering)
    }
    return;
  }
  // External producer (main thread, timer thread, another pool's worker).
  if (stopping_.load(std::memory_order_seq_cst)) {
    // Scheduling against a stopped pool is a teardown race, not silent
    // no-op territory: count and log it so lost work is diagnosable.
    dropped_after_stop_.fetch_add(1, std::memory_order_relaxed);
    KMSG_WARN("scheduler") << "schedule() after shutdown: dropping component '"
                           << core->name() << "'";
    assert(core != nullptr);
    return;
  }
  if (!core->is_shared() && core->home_ < states_.size()) {
    // Local-mode cores may only execute on their home worker: route through
    // that worker's inbox and wake it specifically.
    WorkerState& ws = *states_[core->home_];
    {
      std::lock_guard<std::mutex> lock(ws.m);
      ws.inbox.push_back(core);
    }
    unpark(core->home_);
    return;
  }
  push_inject(core);
}

void ThreadPoolScheduler::push_inject(ComponentCore* core) {
  {
    std::lock_guard<std::mutex> lock(inject_m_);
    inject_.push_back(core);
  }
  // seq_cst increment *after* the push and *before* reading parked flags:
  // the Dekker edge against workers that set parked before re-scanning.
  inject_size_.fetch_add(1, std::memory_order_seq_cst);
  unpark_one();
}

ComponentCore* ThreadPoolScheduler::pop_inject() {
  if (inject_size_.load(std::memory_order_relaxed) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inject_m_);
  if (inject_.empty()) return nullptr;
  ComponentCore* core = inject_.front();
  inject_.pop_front();
  inject_size_.fetch_sub(1, std::memory_order_relaxed);
  return core;
}

ComponentCore* ThreadPoolScheduler::pop_inbox(WorkerState& me) {
  std::lock_guard<std::mutex> lock(me.m);
  if (me.inbox.empty()) return nullptr;
  ComponentCore* core = me.inbox.front();
  me.inbox.pop_front();
  return core;
}

ComponentCore* ThreadPoolScheduler::try_steal(std::uint32_t my_index) {
  const std::uint32_t n = static_cast<std::uint32_t>(states_.size());
  for (std::uint32_t off = 1; off < n; ++off) {
    const std::uint32_t victim = (my_index + off) % n;
    if (ComponentCore* core = states_[victim]->deque.steal()) return core;
  }
  return nullptr;
}

void ThreadPoolScheduler::run_core(detail::WorkerContext& ctx,
                                   ComponentCore* core) {
  {
    // A local-mode core on its home worker executes with plain (non-atomic)
    // refcounts — its whole channel cluster lives on this thread.
    detail::ScopedPlainRefs scope(!core->is_shared() &&
                                  core->home_ == ctx.index);
    core->execute();
  }
  ctx.flush_outbox();
}

bool ThreadPoolScheduler::run_one_task(detail::WorkerContext& ctx,
                                       WorkerState& me) {
  WorkerTask task;
  {
    std::lock_guard<std::mutex> lock(me.m);
    if (me.tasks.empty()) return false;
    task = std::move(me.tasks.front());
    me.tasks.pop_front();
  }
  {
    // Tasks are routed here precisely because their captures are confined
    // to this worker (armed under a plain-refs scope): invoke *and destroy*
    // the callable under the same scope.
    detail::ScopedPlainRefs scope(true);
    if (task.invoke) task.fn();
    task.fn = SmallFn{};
  }
  ctx.flush_outbox();
  return true;
}

bool ThreadPoolScheduler::work_visible(std::uint32_t my_index) {
  if (inject_size_.load(std::memory_order_seq_cst) != 0) return true;
  WorkerState& me = *states_[my_index];
  {
    std::lock_guard<std::mutex> lock(me.m);
    if (!me.inbox.empty() || !me.tasks.empty()) return true;
  }
  for (auto& ws : states_) {
    if (ws->deque.maybe_nonempty()) return true;
  }
  return false;
}

void ThreadPoolScheduler::park(WorkerState& me, std::uint32_t index,
                               std::stop_token& st) {
  me.parked.store(true, std::memory_order_seq_cst);
  parked_count_.fetch_add(1, std::memory_order_seq_cst);
  // Re-scan after publishing the parked flag: any producer that made work
  // visible before reading the flag is seen here; any producer that reads
  // the flag after we set it will unpark us. (Dekker — both sides seq_cst.)
  if (!work_visible(index)) {
    std::unique_lock<std::mutex> lock(me.park_m);
    me.park_cv.wait(lock, st, [&me] { return me.unparked; });
    me.unparked = false;
  }
  me.parked.store(false, std::memory_order_seq_cst);
  parked_count_.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPoolScheduler::unpark(std::uint32_t index) {
  WorkerState& ws = *states_[index];
  {
    std::lock_guard<std::mutex> lock(ws.park_m);
    ws.unparked = true;
  }
  ws.park_cv.notify_one();
}

void ThreadPoolScheduler::unpark_one() {
  if (parked_count_.load(std::memory_order_seq_cst) == 0) return;
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    if (states_[i]->parked.load(std::memory_order_seq_cst)) {
      unpark(i);
      return;
    }
  }
  // Raced: every candidate woke meanwhile — someone is awake and scanning.
}

void ThreadPoolScheduler::post_task(std::uint32_t index, WorkerTask task) {
  WorkerState& ws = *states_[index];
  {
    std::lock_guard<std::mutex> lock(ws.m);
    ws.tasks.push_back(std::move(task));
  }
  if (ws.parked.load(std::memory_order_seq_cst)) unpark(index);
}

void ThreadPoolScheduler::worker_loop(std::stop_token st,
                                      std::uint32_t index) {
  detail::WorkerContext ctx{this, index};
  detail::t_worker = &ctx;
  WorkerState& me = *states_[index];
  std::uint64_t tick = 0;
  for (;;) {
    ++tick;
    ComponentCore* core = nullptr;
    // Fairness valve: periodically prefer the global queue so a busy local
    // FIFO/deque cannot starve injected work indefinitely.
    if ((tick & 63) == 0) core = pop_inject();
    if (core == nullptr) core = ctx.pop_local();
    if (core == nullptr) core = me.deque.pop_bottom();
    if (core != nullptr) {
      run_core(ctx, core);
      continue;
    }
    if (run_one_task(ctx, me)) continue;
    if ((core = pop_inbox(me)) != nullptr) {
      run_core(ctx, core);
      continue;
    }
    if ((core = pop_inject()) != nullptr) {
      run_core(ctx, core);
      continue;
    }
    if ((core = try_steal(index)) != nullptr) {
      run_core(ctx, core);
      continue;
    }
    // Nothing anywhere. Exit only on stop — after the full empty scan, so
    // shutdown drains every queue first.
    if (st.stop_requested()) break;
    park(me, index, st);
  }
  detail::t_worker = nullptr;
}

TimerHandle ThreadPoolScheduler::schedule_delayed(Duration delay, SmallFn fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  const std::int64_t at = (clock_.now() + delay).as_nanos();
  // Callbacks armed from a local-mode execution context capture state that
  // is confined to the arming worker: remember the worker so the timer
  // thread routes the callback (and its eventual destruction) back home.
  std::uint32_t home = detail::kNoWorker;
  if (detail::WorkerContext* ctx = detail::t_worker;
      ctx != nullptr && ctx->pool == this && detail::t_plain_refs) {
    home = ctx->index;
  }
  std::uint32_t slot;
  std::uint32_t gen;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    const std::int64_t before = timers_.next_at();
    slot = timer_slots_.acquire();
    gen = timer_slots_.slots[slot].gen;
    timers_.schedule(at, timer_seq_++, slot, gen,
                     TimerFn{std::move(fn), home});
    // Only wake the (single) timer thread when the new deadline became the
    // earliest — it is already sleeping towards `before` otherwise.
    wake = at < before;
  }
  if (wake) timer_cv_.notify_one();
  return TimerHandle{this, slot, gen};
}

void ThreadPoolScheduler::cancel_timer(std::uint32_t slot, std::uint32_t gen) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  auto& s = timer_slots_.slots[slot];
  if (s.gen == gen) s.state = sim::detail::SlotTable::kCancelled;
}

void ThreadPoolScheduler::timer_loop(std::stop_token st) {
  using SteadyTp = std::chrono::steady_clock::time_point;
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!st.stop_requested()) {
    const std::int64_t next = timers_.next_at();
    if (next == TimingWheel<TimerFn>::kNoEvent) {
      timer_cv_.wait(lock, st, [this] {
        return timers_.next_at() != TimingWheel<TimerFn>::kNoEvent;
      });
      if (st.stop_requested()) return;
      continue;
    }
    if (clock_.now().as_nanos() < next) {
      // clock_ is steady_clock nanoseconds since its epoch, so `next` maps
      // straight back onto a steady_clock time_point for the timed wait.
      const SteadyTp deadline{std::chrono::nanoseconds(next)};
      timer_cv_.wait_until(lock, st, deadline, [] { return false; });
      if (st.stop_requested()) return;
      continue;
    }
    TimingWheel<TimerFn>::Node* node = timers_.pop();
    if (node == nullptr) continue;
    const bool cancelled = timer_slots_.is_cancelled(node->slot, node->gen);
    TimerFn payload = std::move(node->payload);
    timer_slots_.release(node->slot);
    timers_.recycle(node);
    if (payload.home != detail::kNoWorker) {
      // Thread-confined callback: hand it (or just its destruction, when
      // cancelled) to the home worker.
      lock.unlock();
      post_task(payload.home, WorkerTask{std::move(payload.fn), !cancelled});
      lock.lock();
      continue;
    }
    if (cancelled) continue;  // payload destroyed here, atomics are fine
    lock.unlock();
    payload.fn();
    payload.fn = SmallFn{};  // destroy the callable outside the lock
    lock.lock();
  }
}

}  // namespace kmsg::kompics
