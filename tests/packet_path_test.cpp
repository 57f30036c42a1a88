// The per-message path's deterministic counters, gated hard.
//
// One TCP ping/pong round trip goes through every layer: the Kompics timer
// and dispatch, serialisation and framing, the session queue, the TCP engine,
// the link's serialisation and arrival events, reassembly and delivery. Once
// the containers on that path are warm, a round trip must not reach the
// global allocator, and cancelled timers must not pile up in the event wheel.
// Both counts depend only on the code, the compiler and the standard
// library, never on the host's speed, so they are exact gates on any host.
//
// This binary replaces global operator new with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/experiment.hpp"
#include "apps/pingpong.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kmsg::apps {
namespace {

constexpr std::uint64_t kPings = 2000;
constexpr std::uint64_t kWarmupPings = 100;

/// TCP ping/pong on EU-VPC every 100 us: the small_msgs benchmark workload,
/// shrunk.
struct PingPongWorld {
  TwoNodeExperiment exp{ExperimentConfig{}};
  Pinger* pinger = nullptr;

  PingPongWorld() {
    PingerConfig pcfg;
    pcfg.self = exp.addr_a();
    pcfg.dst = exp.addr_b();
    pcfg.protocol = messaging::Transport::kTcp;
    pcfg.interval = Duration::micros(100);
    pcfg.max_pings = kPings;
    pinger = &exp.system().create<Pinger>("pinger", pcfg);
    auto& ponger =
        exp.system().create<Ponger>("ponger", PongerConfig{exp.addr_b()});
    exp.connect_a(pinger->network());
    exp.connect_b(ponger.network());
    exp.connect_timer(pinger->timer());
    exp.start();
  }

  /// Runs in 10 ms steps until `pongs` pongs came back; returns the most
  /// events the simulator held pending at the end of any step.
  std::size_t run_until_pongs(std::uint64_t pongs) {
    std::size_t most_pending = 0;
    const TimePoint limit = exp.simulator().now() + Duration::seconds(5.0);
    while (pinger->pongs_received() < pongs && exp.simulator().now() < limit) {
      exp.run_for(Duration::millis(10));
      most_pending = std::max(most_pending, exp.simulator().pending());
    }
    return most_pending;
  }
};

TEST(PacketPathTest, RoundTripDoesNotAllocate) {
  PingPongWorld world;
  world.run_until_pongs(kWarmupPings);
  ASSERT_GE(world.pinger->pongs_received(), kWarmupPings);
  const std::uint64_t pongs0 = world.pinger->pongs_received();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  world.run_until_pongs(kPings);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t round_trips = world.pinger->pongs_received() - pongs0;
  ASSERT_EQ(world.pinger->pongs_received(), kPings);
  const double per_round_trip =
      static_cast<double>(allocs) / static_cast<double>(round_trips);
  EXPECT_LE(per_round_trip, 1.0)
      << allocs << " operator new calls over " << round_trips
      << " warm round trips";
}

TEST(PacketPathTest, CancelledTimersLeaveTheWheel) {
  // Every send and every ACK re-arms TCP's retransmission timer 200 ms out.
  // A cancelled timer that stayed in the wheel until its deadline would leave
  // thousands of dead events pending at this rate.
  PingPongWorld world;
  const std::size_t most_pending = world.run_until_pongs(kPings);
  ASSERT_EQ(world.pinger->pongs_received(), kPings);
  EXPECT_LE(most_pending, 200u);
}

}  // namespace
}  // namespace kmsg::apps
