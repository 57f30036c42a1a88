// Sharded deterministic parallel simulation.
//
// Partitions a simulated world across N shards, each wrapping one sequential
// timing-wheel Simulator, and runs them concurrently under a conservative
// (Chandy–Misra–Bryant-style) synchronization protocol:
//
//  - Each directed shard pair (j -> i) has a *lookahead* L(j,i): a lower
//    bound on how far in the future any event posted from j can land on i.
//    In netsim terms this is the minimum propagation-delay floor over links
//    whose source host lives on j and destination host lives on i
//    (Duration::max() when no such link exists).
//  - Shard i may execute events strictly below its *bound*
//        B_i = min over inbound neighbours j of (H_j + L(j,i)),
//    where H_j is j's published horizon — the exclusive upper bound of
//    simulated time j has committed. Every cross-shard event that can still
//    arrive below B_i is already in i's inbound queues when i reads the
//    horizons (queue pushes happen-before horizon publication).
//  - Cross-shard events travel through per-shard-pair MPSC queues (Vyukov
//    intrusive list, single producer per pair in practice) and are scheduled
//    into the destination wheel with an explicit *delivery key* (see
//    simulator.hpp): (time, band, src lane, dst lane, send counter). The key
//    is computed by the sender from its own deterministic state, so the
//    firing order of same-instant events is a pure function of the event set
//    — independent of shard count, thread interleaving, and queue drain
//    order. That is the determinism argument, in one line: per-shard wheels
//    impose the total order (time, key), and the (time, key) multiset per
//    destination entity is shard-layout-invariant. DESIGN.md §9 spells out
//    the induction.
//
// Running with 1 shard reproduces today's sequential event loop exactly;
// running with N shards (threaded or round-robin) is bit-identical to it,
// which tests/shard_parity_test.cpp enforces against golden event traces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace kmsg::sim {

namespace detail {

/// Vyukov-style intrusive MPSC queue of timestamped closures, with a node
/// freelist (Treiber stack; the queue's single producer is the only popper,
/// so the stack is ABA-safe). push() is wait-free for the producer;
/// drain_into() is consumer-only.
class RemoteQueue {
 public:
  struct Item {
    std::int64_t at;
    std::uint64_t key;
    SmallFn fn;
  };

  RemoteQueue() : head_(&stub_), tail_(&stub_) {}
  RemoteQueue(const RemoteQueue&) = delete;
  RemoteQueue& operator=(const RemoteQueue&) = delete;
  ~RemoteQueue();

  /// Producer side: enqueue a closure to run at `at` with ordering key `key`.
  void push(std::int64_t at, std::uint64_t key, SmallFn fn);

  /// Consumer side: pops everything currently available into `out`
  /// (appended in push order). Returns the number of items drained.
  std::size_t drain_into(std::vector<Item>& out);

  /// Consumer-side emptiness check; exact only when the producer is at rest
  /// (which is how the engine uses it: quiescence checks run between
  /// horizon waves, with all workers stopped).
  bool empty() const {
    const Node* tail = tail_;
    return tail->next.load(std::memory_order_acquire) == nullptr &&
           head_.load(std::memory_order_acquire) == tail;
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::int64_t at = 0;
    std::uint64_t key = 0;
    SmallFn fn;
  };

  Node* acquire_node();
  void release_node(Node* n);

  std::atomic<Node*> head_;  // producers exchange here
  Node* tail_;               // consumer-owned
  Node stub_;
  std::atomic<Node*> free_{nullptr};  // Treiber freelist of recycled nodes
};

}  // namespace detail

/// N sequential Simulators advanced in parallel under conservative
/// lookahead. See the file comment for the protocol and determinism story.
class ShardedSimulator {
 public:
  explicit ShardedSimulator(unsigned shards);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
  Simulator& shard(unsigned i) { return shards_[i]->sim; }
  const Simulator& shard(unsigned i) const { return shards_[i]->sim; }

  /// Declares the conservative lookahead for events posted from shard `from`
  /// to shard `to`: no such event may be scheduled less than `d` ahead of
  /// `from`'s clock. Duration::max() (the default) means "no channel".
  /// Finite lookaheads must be > 0 — zero-lookahead cycles cannot make
  /// progress — enforced at run time.
  void set_lookahead(unsigned from, unsigned to, Duration d);
  Duration lookahead(unsigned from, unsigned to) const;

  /// Posts `fn` to run on shard `to` at absolute time `at` with delivery key
  /// `key`. Must be invoked from shard `from`'s executing context (or before
  /// any run), and `at` must respect the declared lookahead.
  void post(unsigned from, unsigned to, TimePoint at, std::uint64_t key,
            SmallFn fn);

  /// Advances every shard to horizon `until` (exclusive: events with
  /// time < until execute; events at or beyond stay queued). `threads` = 0
  /// uses one worker thread per shard; 1 runs the same protocol
  /// round-robin on the calling thread. Both produce bit-identical traces.
  /// Returns the number of events executed across all shards.
  std::uint64_t run_until(TimePoint until, unsigned threads = 0);

  /// Repeats run_until with a doubling horizon, starting at `first_bound`,
  /// until the world is quiescent (no live event in any wheel, all queues
  /// empty). Workloads must eventually stop self-perpetuating (e.g. stop
  /// re-arming periodic timers) for this to terminate. Returns events
  /// executed.
  std::uint64_t run_to_quiescence(TimePoint first_bound, unsigned threads = 0);

  /// True when no shard's wheel holds a live event and every inbound queue
  /// is empty. Only meaningful between runs (no workers active).
  bool idle() const;

  /// Events executed across all shards since construction.
  std::uint64_t executed() const;

  /// Sum of pending live events across wheels (queued remote events
  /// excluded).
  std::size_t pending() const;

 private:
  struct Shard {
    Simulator sim;
    // Exclusive bound of committed simulated time, published to neighbours.
    std::atomic<std::int64_t> horizon{0};
    std::int64_t committed = 0;
    // inbound[j]: events posted from shard j to this shard.
    std::vector<std::unique_ptr<detail::RemoteQueue>> inbound;
    std::vector<detail::RemoteQueue::Item> drain_buf;
  };

  /// One protocol step for shard i against global end `end_ns`: snapshot
  /// horizons, drain queues, execute below the bound, publish. Returns true
  /// when the bound advanced (progress was made).
  bool advance(unsigned i, std::int64_t end_ns);
  void worker(unsigned i, std::int64_t end_ns);
  void validate_lookaheads() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  // lookahead_[from * K + to] in nanoseconds; INT64_MAX = no channel.
  std::vector<std::int64_t> lookahead_;

  // Horizon-wave synchronisation: version bumps on every horizon publish.
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t version_ = 0;
};

}  // namespace kmsg::sim
