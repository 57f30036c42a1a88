// The arena's recycling across threads, seen through its two users outside
// the event layer:
//  - the slab counters: an acquisition served from a thread's cache counts as
//    recycled, one that reached operator new as created;
//  - a block released on another thread joins that thread's cache, and a
//    thread's cache is emptied when the thread exits;
//  - a block released after its thread's cache is gone (by a thread_local
//    destructor that runs later) is freed, never pushed onto the dead cache
//    (under LeakSanitizer such a block would be reported as leaked);
//  - a thread caches up to Arena::kCacheBudgetBytes across all classes: a
//    working set of 208 slabs of 64 KiB comes back whole, and a block
//    released past the budget is freed;
//  - two threads claiming the same bytes in front of one slice: one writes
//    them in place, the other copies (under TSan, without a race);
//  - SmallFn's oversize closures recycle arena blocks: a warm
//    make/invoke/destroy loop allocates nothing.
//
// This binary replaces global operator new/delete with counting ones and
// watches for one chosen block being freed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <new>
#include <thread>
#include <vector>

#include "common/small_fn.hpp"
#include "wire/buffer.hpp"
#include "wire/framing.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<const void*> g_watch{nullptr};
std::atomic<bool> g_watch_freed{false};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void watched_free(void* p) noexcept {
  if (p != nullptr && p == g_watch.load(std::memory_order_relaxed)) {
    g_watch_freed.store(true, std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { watched_free(p); }
void operator delete[](void* p) noexcept { watched_free(p); }
void operator delete(void* p, std::size_t) noexcept { watched_free(p); }
void operator delete[](void* p, std::size_t) noexcept { watched_free(p); }

namespace kmsg {
namespace {

using wire::BufSlice;
using wire::Slab;
using wire::SlabPool;

/// Watches `p`: watched_free records when it reaches the allocator.
void watch(const void* p) {
  g_watch_freed.store(false, std::memory_order_relaxed);
  g_watch.store(p, std::memory_order_relaxed);
}

/// The block behind a slice from filled_slice: the slab header precedes
/// the slice's first byte.
const void* block_of(const BufSlice& s) { return s.data() - sizeof(Slab); }

BufSlice filled_slice(std::size_t n) {
  const std::vector<std::uint8_t> bytes(n, 0x5a);
  return BufSlice::copy_of(bytes);
}

TEST(SlabCountersTest, SecondAcquireOfASizeIsRecycled) {
  // A fresh thread starts with an empty cache, so the counts are exact.
  std::thread([] {
    SlabPool& pool = SlabPool::instance();
    const auto s0 = pool.stats();
    Slab* first = pool.acquire(3000);
    const auto s1 = pool.stats();
    EXPECT_EQ(s1.slabs_created - s0.slabs_created, 1u);
    EXPECT_EQ(s1.slabs_recycled - s0.slabs_recycled, 0u);
    first->unref();
    Slab* second = pool.acquire(3000);
    const auto s2 = pool.stats();
    EXPECT_EQ(second, first);
    EXPECT_EQ(s2.slabs_created - s1.slabs_created, 0u);
    EXPECT_EQ(s2.slabs_recycled - s1.slabs_recycled, 1u);
    EXPECT_GE(second->capacity, 3000u);
    second->unref();
  }).join();
}

TEST(SlabCountersTest, SliceReleasedOnAnotherThreadJoinsThatThreadsCache) {
  constexpr std::size_t kBytes = 20'000;
  BufSlice slice;
  std::thread([&] { slice = filled_slice(kBytes); }).join();
  ASSERT_EQ(slice.size(), kBytes);
  EXPECT_EQ(slice[kBytes - 1], 0x5a);
  const std::uint8_t* const data = slice.data();
  slice = {};  // the last reference drops here, on the main thread

  SlabPool& pool = SlabPool::instance();
  const auto s0 = pool.stats();
  const BufSlice again = filled_slice(kBytes);
  const auto s1 = pool.stats();
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(s1.slabs_created - s0.slabs_created, 0u);
  EXPECT_EQ(s1.slabs_recycled - s0.slabs_recycled, 1u);
}

// What the thread_local destructor below saw.
std::atomic<bool> g_late_ran{false};
std::atomic<std::uint64_t> g_late_created{0};
std::atomic<std::uint64_t> g_late_recycled{0};

constexpr std::size_t kLateBytes = 5'000;

/// Constructed before its thread's cache goes live, so destroyed after the
/// cache was drained at thread exit.
struct LateHolder {
  BufSlice slice;
  ~LateHolder() {
    SlabPool& pool = SlabPool::instance();
    const auto s0 = pool.stats();
    watch(block_of(slice));
    slice = {};  // the cache is gone: the block must go to operator delete
    Slab* again = pool.acquire(kLateBytes);
    const auto s1 = pool.stats();
    g_late_created.store(s1.slabs_created - s0.slabs_created);
    g_late_recycled.store(s1.slabs_recycled - s0.slabs_recycled);
    again->unref();
    g_late_ran.store(true);
  }
};

TEST(SlabCountersTest, ReleaseAfterTheThreadsCacheIsGoneFreesTheBlock) {
  std::thread([] {
    thread_local LateHolder holder;
    holder.slice = filled_slice(kLateBytes);
    // Caching this one makes the thread's cache live and registers its
    // drain, after the holder's destructor: the drain runs first.
    filled_slice(kLateBytes);
  }).join();
  ASSERT_TRUE(g_late_ran.load());
  EXPECT_TRUE(g_watch_freed.load()) << "released into a dead cache";
  EXPECT_EQ(g_late_created.load(), 1u);
  EXPECT_EQ(g_late_recycled.load(), 0u);
  watch(nullptr);
}

// --- The per-thread byte budget ---

TEST(ArenaBudgetTest, AWorkingSetOf208SlabsComesBackWhole) {
  // adaptive_wan's peak: 208 live 65,000-byte slabs, 13 MiB of the 64 KiB
  // class, all released and then needed again.
  std::thread([] {
    constexpr std::size_t kSlabs = 208;
    SlabPool& pool = SlabPool::instance();
    std::vector<Slab*> held;
    held.reserve(kSlabs);
    for (std::size_t i = 0; i < kSlabs; ++i) {
      held.push_back(pool.acquire(65'000));
    }
    for (Slab* slab : held) slab->unref();
    held.clear();
    const auto s0 = pool.stats();
    for (std::size_t i = 0; i < kSlabs; ++i) {
      held.push_back(pool.acquire(65'000));
    }
    const auto s1 = pool.stats();
    EXPECT_EQ(s1.slabs_created - s0.slabs_created, 0u);
    EXPECT_EQ(s1.slabs_recycled - s0.slabs_recycled, kSlabs);
    for (Slab* slab : held) slab->unref();
  }).join();
}

TEST(ArenaBudgetTest, BlocksReleasedPastTheBudgetAreFreed) {
  // One budget across the classes: 31 blocks of 1 MiB and 16 of 64 KiB fill
  // it, and the next 64 KiB block is freed.
  std::thread([] {
    constexpr std::size_t kBig = Arena::kMaxPooledBytes;
    constexpr std::size_t kSmall = std::size_t{64} << 10;
    constexpr std::size_t kBigBlocks = Arena::kCacheBudgetBytes / kBig - 1;
    constexpr std::size_t kSmallBlocks = kBig / kSmall;
    constexpr std::uint8_t kBigClass = Arena::class_for(kBig);
    constexpr std::uint8_t kSmallClass = Arena::class_for(kSmall);
    std::vector<void*> big;
    std::vector<void*> small;
    for (std::size_t i = 0; i < kBigBlocks; ++i) {
      big.push_back(Arena::acquire(kBig, kBigClass));
    }
    for (std::size_t i = 0; i <= kSmallBlocks; ++i) {
      small.push_back(Arena::acquire(kSmall, kSmallClass));
    }
    for (void* p : big) Arena::release(p, kBigClass);
    for (std::size_t i = 0; i < kSmallBlocks; ++i) {
      Arena::release(small[i], kSmallClass);
    }
    watch(small.back());
    Arena::release(small.back(), kSmallClass);
    EXPECT_TRUE(g_watch_freed.load()) << "cached past the budget";
    watch(nullptr);
    // Everything within the budget is served from the cache.
    std::size_t cached_big = 0;
    std::size_t cached_small = 0;
    for (std::size_t i = 0; i < kBigBlocks; ++i) {
      if ((big[i] = Arena::take(kBigClass)) != nullptr) ++cached_big;
    }
    for (std::size_t i = 0; i <= kSmallBlocks; ++i) {
      if ((small[i] = Arena::take(kSmallClass)) != nullptr) ++cached_small;
    }
    EXPECT_EQ(cached_big, kBigBlocks);
    EXPECT_EQ(cached_small, kSmallBlocks);
    for (void* p : big) Arena::release(p, kBigClass);
    for (void* p : small) {
      if (p != nullptr) Arena::release(p, kSmallClass);
    }
  }).join();
}

// --- Claims on the bytes in front of a slice ---

TEST(FrontMarkRaceTest, TwoThreadsClaimTheSameHeadroomOneWins) {
  constexpr int kRounds = 200;
  const std::vector<std::uint8_t> bytes(4000, 0x5a);
  for (int round = 0; round < kRounds; ++round) {
    const BufSlice payload =
        BufSlice::copy_of(bytes, wire::kFrameHeaderBytes);
    // Each thread frames its own reference to the payload.
    BufSlice framed[2] = {payload, payload};
    std::latch start{2};
    std::thread other([&] {
      start.arrive_and_wait();
      framed[1] = wire::encode_frame_slice(std::move(framed[1]));
    });
    start.arrive_and_wait();
    framed[0] = wire::encode_frame_slice(std::move(framed[0]));
    other.join();
    int in_place = 0;
    for (const BufSlice& f : framed) {
      ASSERT_EQ(f.size(), wire::kFrameHeaderBytes + bytes.size());
      if (f.data() + wire::kFrameHeaderBytes == payload.data()) ++in_place;
      std::vector<BufSlice> got;
      wire::FrameDecoder dec;
      dec.set_on_frame([&got](BufSlice m) { got.push_back(std::move(m)); });
      ASSERT_TRUE(dec.feed(f));
      ASSERT_EQ(got.size(), 1u);
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), got[0].data()));
    }
    EXPECT_EQ(in_place, 1) << "round " << round;
  }
}

// --- SmallFn's oversize closures ---

std::atomic<const void*> g_invoked_at{nullptr};

/// A callable of exactly N bytes, beyond SmallFn's inline buffer.
template <std::size_t N>
struct Closure {
  unsigned char bytes[N];
  void operator()() {
    g_invoked_at.store(this, std::memory_order_relaxed);
    g_calls += bytes[N - 1];
  }
  static inline std::uint64_t g_calls = 0;
};
static_assert(sizeof(Closure<100>) == 100 && sizeof(Closure<200>) == 200);
static_assert(sizeof(Closure<100>) > kSmallFnInline);

template <std::size_t N>
void make_invoke_destroy() {
  Closure<N> c{};
  c.bytes[N - 1] = 1;
  SmallFn fn(c);
  fn();
}

TEST(SmallFnOversizeTest, WarmLoopAllocatesNothing) {
  make_invoke_destroy<100>();  // warms this thread's two classes
  make_invoke_destroy<200>();
  constexpr int kRounds = 1000;
  const std::uint64_t calls100 = Closure<100>::g_calls;
  const std::uint64_t calls200 = Closure<200>::g_calls;
  const std::uint64_t allocs0 = g_allocs.load();
  for (int i = 0; i < kRounds; ++i) {
    make_invoke_destroy<100>();
    make_invoke_destroy<200>();
  }
  EXPECT_EQ(g_allocs.load() - allocs0, 0u);
  EXPECT_EQ(Closure<100>::g_calls - calls100, kRounds);
  EXPECT_EQ(Closure<200>::g_calls - calls200, kRounds);
}

TEST(SmallFnOversizeTest, ClosureDestroyedOnAnotherThread) {
  Closure<200> c{};
  c.bytes[199] = 1;
  SmallFn fn(c);
  const std::uint64_t calls0 = Closure<200>::g_calls;
  // The closure runs and is destroyed on the new thread; its block joins
  // that thread's cache, which is emptied when the thread exits.
  std::thread([f = std::move(fn)]() mutable {
    f();
    watch(g_invoked_at.load(std::memory_order_relaxed));
  }).join();
  EXPECT_EQ(Closure<200>::g_calls - calls0, 1u);
  EXPECT_TRUE(g_watch_freed.load()) << "block not freed at thread exit";
  watch(nullptr);
}

}  // namespace
}  // namespace kmsg
