// Work-stealing scheduler tests (ctest label `mt`; also the core of the
// ThreadSanitizer CI job).
//
// Covers the DESIGN.md §10 contracts:
//  - exactly-once delivery and per-producer FIFO under an N-producer /
//    M-consumer stress with cross-core (batched-handoff) publishes;
//  - each component executes on at most one thread at a time;
//  - no event is stranded when external producers race the end of a
//    core's execute(), which reads only producer-side state once it has
//    released the core;
//  - shard-affine placement: pinned clusters stay in local (non-atomic)
//    mode, cross-shard connects escalate the whole cluster, children
//    inherit the parent's home;
//  - timer callbacks armed from a local-mode context run on the home worker;
//  - SimulationScheduler traces are byte-identical whether or not a thread
//    pool is alive in the process (the local-path gate does not leak into
//    simulation);
//  - schedule() after shutdown drops work loudly (counter), not silently.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kompics/system.hpp"
#include "kompics/timer.hpp"

namespace kmsg::kompics {
namespace {

using namespace std::chrono_literals;

// --- Shared test vocabulary ---

struct StressEvent final : KompicsEvent {
  StressEvent(int producer_, int seq_) : producer(producer_), seq(seq_) {}
  int producer;
  int seq;
};

struct PumpCmd final : KompicsEvent {};

struct StressPort : PortType {
  StressPort() {
    set_name("Stress");
    indication<StressEvent>();
  }
};

struct SelfPort : PortType {
  SelfPort() {
    set_name("Self");
    indication<PumpCmd>();
  }
};

/// Emits `total` StressEvents in bursts of `burst`, reposting a PumpCmd to
/// itself through a self-loop channel between bursts — so the emission runs
/// on pool workers (exercising the outbox batched handoff), spread over many
/// scheduling rounds (exercising stealing and re-enqueueing).
class Pumper final : public ComponentDefinition {
 public:
  Pumper(int id, int total, int burst) : id_(id), remaining_(total), burst_(burst) {}

  void setup() override {
    out_ = &provides<StressPort>();
    self_out_ = &provides<SelfPort>();
    self_in_ = &require<SelfPort>();
    subscribe<Start>(control(), [this](const Start&) { pump(); });
    subscribe<PumpCmd>(*self_in_, [this](const PumpCmd&) { pump(); });
  }

  PortInstance& out() { return *out_; }
  PortInstance& self_out() { return *self_out_; }
  PortInstance& self_in() { return *self_in_; }

 private:
  void pump() {
    for (int i = 0; i < burst_ && remaining_ > 0; ++i, --remaining_) {
      trigger(make_event<StressEvent>(id_, next_seq_++), *out_);
    }
    if (remaining_ > 0) trigger(make_event<PumpCmd>(), *self_out_);
  }

  int id_;
  int remaining_;
  int burst_;
  int next_seq_ = 0;
  PortInstance* out_ = nullptr;
  PortInstance* self_out_ = nullptr;
  PortInstance* self_in_ = nullptr;
};

class StressConsumer final : public ComponentDefinition {
 public:
  StressConsumer(int producers, int events_per_producer)
      : counts_(static_cast<std::size_t>(producers) *
                static_cast<std::size_t>(events_per_producer)),
        next_seq_(static_cast<std::size_t>(producers), 0),
        per_producer_(events_per_producer) {}

  void setup() override {
    in_ = &require<StressPort>();
    subscribe<StressEvent>(*in_, [this](const StressEvent& e) {
      // One-thread-at-a-time: entering the handler while another thread is
      // inside this component is a scheduler bug.
      if (in_handler_.fetch_add(1, std::memory_order_acq_rel) != 0) {
        concurrency_violations.fetch_add(1, std::memory_order_relaxed);
      }
      const std::size_t p = static_cast<std::size_t>(e.producer);
      // Per-producer FIFO: sequence numbers arrive in emission order.
      if (e.seq != next_seq_[p]) {
        fifo_violations.fetch_add(1, std::memory_order_relaxed);
      }
      next_seq_[p] = e.seq + 1;
      // Exactly-once bookkeeping (verified after quiescence).
      ++counts_[p * static_cast<std::size_t>(per_producer_) +
                static_cast<std::size_t>(e.seq)];
      in_handler_.fetch_sub(1, std::memory_order_acq_rel);
      total.fetch_add(1, std::memory_order_release);
    });
  }

  PortInstance& in() { return *in_; }

  /// Only meaningful after quiescence (all deliveries observed + joined).
  bool all_exactly_once() const {
    for (const auto c : counts_) {
      if (c != 1) return false;
    }
    return true;
  }

  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> concurrency_violations{0};
  std::atomic<std::uint64_t> fifo_violations{0};

 private:
  PortInstance* in_ = nullptr;
  std::atomic<int> in_handler_{0};
  std::vector<std::uint32_t> counts_;
  std::vector<int> next_seq_;
  int per_producer_;
};

// --- Exactly-once / one-thread-at-a-time stress ---

TEST(MtScheduler, StressExactlyOnceAndSingleThreadedCores) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kEvents = 2000;
  constexpr int kBurst = 23;  // not a divisor of kEvents: exercises tail

  KompicsSystem sys(4);
  std::vector<Pumper*> pumpers;
  std::vector<StressConsumer*> consumers;
  for (int i = 0; i < kProducers; ++i) {
    auto& p = sys.create<Pumper>("pump" + std::to_string(i), i, kEvents, kBurst);
    sys.connect(p.self_out(), p.self_in());
    pumpers.push_back(&p);
  }
  for (int i = 0; i < kConsumers; ++i) {
    auto& c = sys.create<StressConsumer>("cons" + std::to_string(i),
                                         kProducers, kEvents);
    consumers.push_back(&c);
  }
  // Full bipartite wiring: every pumper broadcasts to every consumer; the
  // whole graph becomes one shared-mode cluster spanning all workers.
  for (auto* p : pumpers) {
    for (auto* c : consumers) sys.connect(p->out(), c->in());
  }
  sys.start_all();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kProducers) * kEvents;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  for (;;) {
    bool done = true;
    for (auto* c : consumers) {
      if (c->total.load(std::memory_order_acquire) < expected) done = false;
    }
    if (done) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stress did not quiesce";
    std::this_thread::sleep_for(1ms);
  }
  sys.shutdown();  // joins workers: counts_ below are safe to read plainly

  for (auto* c : consumers) {
    EXPECT_EQ(c->total.load(), expected);
    EXPECT_EQ(c->concurrency_violations.load(), 0u);
    EXPECT_EQ(c->fifo_violations.load(), 0u);
    EXPECT_TRUE(c->all_exactly_once());
  }
}

// --- The reschedule window at the end of execute() ---

/// A source driven from outside the pool: trigger() on a thread that is not
/// a worker takes the external-producer path (public push, then the
/// scheduled_ check).
class ExternalSource final : public ComponentDefinition {
 public:
  void setup() override { out_ = &provides<StressPort>(); }
  PortInstance& out() { return *out_; }
  void emit(int producer, int seq) {
    trigger(make_event<StressEvent>(producer, seq), *out_);
  }

 private:
  PortInstance* out_ = nullptr;
};

TEST(MtScheduler, ExternalProducersRaceTheRescheduleWindow) {
  // Producers on plain threads push into every consumer as fast as they
  // can, so consumers keep draining their mailboxes and clearing scheduled_
  // while another push schedules them on a second worker. That worker pops
  // while the first one re-checks for late work; the re-check must read
  // only the producer-side head (TSan flags a read of any consumer-side
  // field there).
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kEvents = 5'000;

  KompicsSystem sys(4);
  std::vector<StressConsumer*> consumers;
  for (int i = 0; i < kConsumers; ++i) {
    consumers.push_back(&sys.create<StressConsumer>(
        "cons" + std::to_string(i), kProducers, kEvents));
  }
  std::vector<ExternalSource*> sources;
  for (int i = 0; i < kProducers; ++i) {
    auto& src = sys.create<ExternalSource>("src" + std::to_string(i));
    for (auto* c : consumers) sys.connect(src.out(), c->in());
    sources.push_back(&src);
  }
  sys.start_all();

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, src = sources[static_cast<std::size_t>(p)]] {
      for (int seq = 0; seq < kEvents; ++seq) src->emit(p, seq);
    });
  }
  for (auto& t : producers) t.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kProducers) * kEvents;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  for (auto* c : consumers) {
    while (c->total.load(std::memory_order_acquire) < expected) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "an event was stranded in a mailbox";
      std::this_thread::sleep_for(1ms);
    }
  }
  sys.shutdown();
  for (auto* c : consumers) {
    EXPECT_EQ(c->total.load(), expected);
    EXPECT_EQ(c->concurrency_violations.load(), 0u);
    EXPECT_EQ(c->fifo_violations.load(), 0u);
    EXPECT_TRUE(c->all_exactly_once());
  }
}

// --- Shard-affine placement and escalation ---

struct PingEv final : KompicsEvent {
  explicit PingEv(int n) : n(n) {}
  int n;
};
struct PongEv final : KompicsEvent {
  explicit PongEv(int n) : n(n) {}
  int n;
};
struct PingPort : PortType {
  PingPort() {
    set_name("PingPong");
    indication<PongEv>();
    request<PingEv>();
  }
};

class Ponger final : public ComponentDefinition {
 public:
  void setup() override {
    port_ = &provides<PingPort>();
    subscribe<PingEv>(*port_, [this](const PingEv& p) {
      trigger(make_event<PongEv>(p.n), *port_);
    });
  }
  PortInstance& port() { return *port_; }

 private:
  PortInstance* port_ = nullptr;
};

class Pinger final : public ComponentDefinition {
 public:
  explicit Pinger(int rounds) : remaining_(rounds) {}
  void setup() override {
    port_ = &require<PingPort>();
    subscribe<Start>(control(), [this](const Start&) {
      trigger(make_event<PingEv>(remaining_), *port_);
    });
    subscribe<PongEv>(*port_, [this](const PongEv&) {
      if (--remaining_ > 0) {
        trigger(make_event<PingEv>(remaining_), *port_);
      } else {
        done.store(true, std::memory_order_release);
      }
    });
  }
  PortInstance& port() { return *port_; }
  std::atomic<bool> done{false};

 private:
  int remaining_;
  PortInstance* port_ = nullptr;
};

TEST(MtScheduler, PinnedClusterStaysLocal) {
  KompicsSystem sys(2);
  auto& ping = sys.create<Pinger>("ping", 20000);
  auto& pong = sys.create<Ponger>("pong");
  // Pin both sides to one worker *before* wiring: the connect then joins two
  // same-home clusters and must not escalate.
  sys.pin_home(ping, 0);
  sys.pin_home(pong, 0);
  sys.connect(pong.port(), ping.port());
  EXPECT_FALSE(sys.is_shared(ping));
  EXPECT_FALSE(sys.is_shared(pong));
  EXPECT_EQ(sys.home_of(ping), 0u);
  EXPECT_EQ(sys.home_of(pong), 0u);
  sys.start(ping);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!ping.done.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  // A local cluster never escalates by merely running.
  EXPECT_FALSE(sys.is_shared(ping));
  EXPECT_FALSE(sys.is_shared(pong));
  sys.shutdown();
}

TEST(MtScheduler, CrossShardConnectEscalatesWholeCluster) {
  KompicsSystem sys(2);
  auto& ping = sys.create<Pinger>("ping", 20000);
  auto& pong = sys.create<Ponger>("pong");
  sys.pin_home(ping, 0);
  sys.pin_home(pong, 1);
  sys.connect(pong.port(), ping.port());  // spans workers: escalates
  EXPECT_TRUE(sys.is_shared(ping));
  EXPECT_TRUE(sys.is_shared(pong));
  sys.start(ping);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!ping.done.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  sys.shutdown();
}

class ParentWithChild final : public ComponentDefinition {
 public:
  void setup() override { child = &create_child<Ponger>("child"); }
  Ponger* child = nullptr;
};

TEST(MtScheduler, ChildrenInheritParentHomeAndPinValidates) {
  KompicsSystem sys(4);
  auto& parent = sys.create<ParentWithChild>("parent");
  EXPECT_EQ(sys.home_of(*parent.child), sys.home_of(parent));
  EXPECT_FALSE(sys.is_shared(parent));
  EXPECT_FALSE(sys.is_shared(*parent.child));
  // Pinning re-homes the whole cluster, child included.
  const std::uint32_t target = 3;
  sys.pin_home(parent, target);
  EXPECT_EQ(sys.home_of(parent), target);
  EXPECT_EQ(sys.home_of(*parent.child), target);
  EXPECT_THROW(sys.pin_home(parent, 99), std::out_of_range);
  sys.shutdown();
}

TEST(MtScheduler, RoundRobinPlacementAcrossWorkers) {
  KompicsSystem sys(4);
  std::vector<std::uint32_t> homes;
  for (int i = 0; i < 8; ++i) {
    homes.push_back(sys.home_of(sys.create<Ponger>("p" + std::to_string(i))));
  }
  EXPECT_EQ(homes, (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 3}));
  sys.shutdown();
}

// --- Timer routing for local clusters ---

TEST(MtScheduler, TimersFireForPinnedLocalCluster) {
  KompicsSystem sys(2);
  auto& timer = sys.create<TimerComponent>("timer");

  class TimeoutCounter final : public ComponentDefinition {
   public:
    void setup() override {
      port_ = &require<Timer>();
      subscribe<Timeout>(*port_, [this](const Timeout&) {
        fired.fetch_add(1, std::memory_order_release);
      });
      subscribe<Start>(control(), [this](const Start&) {
        trigger(make_event<SchedulePeriodic>(1, Duration::millis(2),
                                             Duration::millis(2)),
                *port_);
      });
    }
    PortInstance& port() { return *port_; }
    std::atomic<int> fired{0};

   private:
    PortInstance* port_ = nullptr;
  };

  auto& counter = sys.create<TimeoutCounter>("counter");
  sys.pin_home(timer, 0);
  sys.pin_home(counter, 0);
  sys.connect(timer.provides_port(), counter.port());
  EXPECT_FALSE(sys.is_shared(counter));
  sys.start(timer);
  sys.start(counter);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (counter.fired.load(std::memory_order_acquire) < 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  sys.shutdown();
  EXPECT_GE(counter.fired.load(), 5);
}

// --- Simulation determinism is unaffected by a live pool ---

std::string run_sim_trace() {
  sim::Simulator sim;
  KompicsSystem sys(sim);
  auto& pong = sys.create<Ponger>("pong");
  auto& ping = sys.create<Pinger>("ping", 500);
  sys.connect(pong.port(), ping.port());
  std::ostringstream trace;
  // Interleave timers with dispatch so the trace covers both queues.
  for (int i = 1; i <= 10; ++i) {
    sys.scheduler().schedule_delayed(
        Duration::millis(i), [&trace, i, &sim] {
          trace << "t" << i << "@" << sim.now().as_nanos() << ";";
        });
  }
  sys.start(ping);
  sim.run();
  trace << "executed=" << sim.executed() << ";done=" << ping.done.load();
  return trace.str();
}

TEST(MtScheduler, SimulationTraceByteIdenticalWithPoolAlive) {
  const std::string baseline = run_sim_trace();
  std::string with_pool;
  {
    // A live ThreadPoolScheduler flips detail::mt_active() for the whole
    // process; the simulation's schedule/dispatch/refcount behaviour (and
    // therefore its trace) must not change.
    KompicsSystem pool_sys(2);
    auto& busy = pool_sys.create<Ponger>("busy");
    (void)busy;
    pool_sys.start_all();
    with_pool = run_sim_trace();
    pool_sys.shutdown();
  }
  EXPECT_EQ(baseline, with_pool);
  EXPECT_EQ(baseline, run_sim_trace());  // and repeatable at all
}

// --- Shutdown diagnostics ---

TEST(MtScheduler, ScheduleAfterShutdownIsCountedNotSilent) {
  KompicsSystem sys(2);
  auto& ping = sys.create<Pinger>("ping", 1);
  sys.shutdown();
  auto* pool = dynamic_cast<ThreadPoolScheduler*>(&sys.scheduler());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->dropped_after_stop(), 0u);
  sys.start(ping);  // enqueues against a stopped pool
  EXPECT_EQ(pool->dropped_after_stop(), 1u);
}

}  // namespace
}  // namespace kmsg::kompics
