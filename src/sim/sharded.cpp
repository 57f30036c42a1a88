#include "sim/sharded.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

namespace kmsg::sim {

namespace detail {

RemoteQueue::~RemoteQueue() {
  // Drain whatever is still queued (destroys payloads), then free all nodes.
  std::vector<Item> tomb;
  drain_into(tomb);
  for (Node* n = free_.load(std::memory_order_relaxed); n != nullptr;) {
    Node* next = n->next.load(std::memory_order_relaxed);
    delete n;
    n = next;
  }
}

RemoteQueue::Node* RemoteQueue::acquire_node() {
  // Treiber pop; this queue has a single producer, which is the only popper,
  // so the classic ABA hazard cannot arise (a node held here cannot be
  // re-pushed onto the freelist until the consumer has received it back).
  Node* n = free_.load(std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next.load(std::memory_order_relaxed);
    if (free_.compare_exchange_weak(n, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return n;
    }
  }
  return new Node{};
}

void RemoteQueue::release_node(Node* n) {
  n->fn = SmallFn{};
  Node* head = free_.load(std::memory_order_relaxed);
  do {
    n->next.store(head, std::memory_order_relaxed);
  } while (!free_.compare_exchange_weak(head, n, std::memory_order_release,
                                        std::memory_order_relaxed));
}

void RemoteQueue::push(std::int64_t at, std::uint64_t key, SmallFn fn) {
  Node* n = acquire_node();
  n->at = at;
  n->key = key;
  n->fn = std::move(fn);
  n->next.store(nullptr, std::memory_order_relaxed);
  Node* prev = head_.exchange(n, std::memory_order_acq_rel);
  prev->next.store(n, std::memory_order_release);
}

std::size_t RemoteQueue::drain_into(std::vector<Item>& out) {
  // The only inconsistent state a Vyukov MPSC consumer can observe is a
  // producer between its head exchange and its prev->next store; the wait
  // for the link to appear is a handful of instructions, so a yielding spin
  // is bounded and safe. Items pushed before the producer published its
  // horizon are fully linked by the time the consumer snapshots that horizon
  // (release/acquire pairing), so nothing the conservative protocol needs
  // can be missed.
  const auto await_link = [](Node* n) {
    Node* next = n->next.load(std::memory_order_acquire);
    while (next == nullptr) {
      std::this_thread::yield();
      next = n->next.load(std::memory_order_acquire);
    }
    return next;
  };

  std::size_t n = 0;
  for (;;) {
    Node* tail = tail_;
    if (tail == &stub_) {
      Node* next = tail->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        if (head_.load(std::memory_order_acquire) == &stub_) break;  // empty
        next = await_link(tail);  // first push mid-flight
      }
      tail_ = next;
      continue;
    }
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      if (head_.load(std::memory_order_acquire) == tail) {
        // tail is the last node: close the list by pushing the stub.
        stub_.next.store(nullptr, std::memory_order_relaxed);
        Node* prev = head_.exchange(&stub_, std::memory_order_acq_rel);
        prev->next.store(&stub_, std::memory_order_release);
      }
      // Either we closed the list (tail -> ... -> stub) or a producer is
      // appending behind tail; in both cases the link materialises shortly.
      next = await_link(tail);
    }
    out.push_back(Item{tail->at, tail->key, std::move(tail->fn)});
    ++n;
    tail_ = next;
    release_node(tail);
  }
  return n;
}

}  // namespace detail

ShardedSimulator::ShardedSimulator(unsigned shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->inbound.reserve(shards);
    for (unsigned j = 0; j < shards; ++j) {
      s->inbound.push_back(std::make_unique<detail::RemoteQueue>());
    }
    shards_.push_back(std::move(s));
  }
  lookahead_.assign(static_cast<std::size_t>(shards) * shards,
                    std::numeric_limits<std::int64_t>::max());
}

void ShardedSimulator::set_lookahead(unsigned from, unsigned to, Duration d) {
  lookahead_[static_cast<std::size_t>(from) * shard_count() + to] =
      d.as_nanos();
}

Duration ShardedSimulator::lookahead(unsigned from, unsigned to) const {
  const std::int64_t ns =
      lookahead_[static_cast<std::size_t>(from) * shard_count() + to];
  return ns == std::numeric_limits<std::int64_t>::max() ? Duration::max()
                                                        : Duration::nanos(ns);
}

void ShardedSimulator::post(unsigned from, unsigned to, TimePoint at,
                            std::uint64_t key, SmallFn fn) {
  if (from == to) {
    shards_[to]->sim.post_at_keyed(at, key, std::move(fn));
    return;
  }
  shards_[to]->inbound[from]->push(at.as_nanos(), key, std::move(fn));
}

void ShardedSimulator::validate_lookaheads() const {
  const unsigned k = shard_count();
  for (unsigned from = 0; from < k; ++from) {
    for (unsigned to = 0; to < k; ++to) {
      if (from == to) continue;
      const std::int64_t ns = lookahead_[static_cast<std::size_t>(from) * k + to];
      if (ns <= 0) {
        throw std::logic_error(
            "ShardedSimulator: cross-shard lookahead must be > 0 (shard pair " +
            std::to_string(from) + " -> " + std::to_string(to) +
            "); give cross-shard links a positive min_propagation_delay");
      }
    }
  }
}

bool ShardedSimulator::advance(unsigned i, std::int64_t end_ns) {
  Shard& s = *shards_[i];
  const unsigned k = shard_count();

  // 1. Snapshot neighbour horizons (acquire): every cross-shard event a
  //    neighbour pushed before publishing its horizon is now visible in our
  //    inbound queue.
  std::int64_t bound = end_ns;
  for (unsigned j = 0; j < k; ++j) {
    if (j == i) continue;
    const std::int64_t la = lookahead_[static_cast<std::size_t>(j) * k + i];
    if (la == std::numeric_limits<std::int64_t>::max()) continue;
    const std::int64_t hj = shards_[j]->horizon.load(std::memory_order_acquire);
    // Saturating add: horizon + lookahead.
    const std::int64_t b =
        (hj > std::numeric_limits<std::int64_t>::max() - la)
            ? std::numeric_limits<std::int64_t>::max()
            : hj + la;
    bound = std::min(bound, b);
  }
  if (bound <= s.committed) return false;

  // 2. Drain inbound queues into the wheel. Every drained arrival is at or
  //    beyond our committed horizon (sender guarantees arrival >= its clock
  //    + lookahead >= our committed bound), so scheduling never clamps and
  //    the (time, key) order fully determines firing order.
  s.drain_buf.clear();
  for (unsigned j = 0; j < k; ++j) {
    if (j == i) continue;
    s.inbound[j]->drain_into(s.drain_buf);
  }
  for (auto& item : s.drain_buf) {
    s.sim.post_at_keyed(TimePoint::from_nanos(item.at), item.key,
                        std::move(item.fn));
  }
  s.drain_buf.clear();

  // 3. Execute strictly below the bound, then publish the new horizon.
  s.sim.run_before(TimePoint::from_nanos(bound));
  s.committed = bound;
  s.horizon.store(bound, std::memory_order_release);
  return true;
}

void ShardedSimulator::worker(unsigned i, std::int64_t end_ns) {
  Shard& s = *shards_[i];
  while (s.committed < end_ns) {
    std::uint64_t version;
    {
      std::lock_guard<std::mutex> lk(mu_);
      version = version_;
    }
    if (advance(i, end_ns)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++version_;
      }
      cv_.notify_all();
      continue;
    }
    // No progress possible: wait for some neighbour horizon to move.
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return version_ != version; });
  }
}

std::uint64_t ShardedSimulator::run_until(TimePoint until, unsigned threads) {
  validate_lookaheads();
  const unsigned k = shard_count();
  const std::int64_t end_ns = until.as_nanos();
  const std::uint64_t before = executed();

  // Re-arm horizons for this wave: committed time never goes backwards, but
  // a fresh run's end may exceed the previous one's.
  for (auto& s : shards_) {
    s->horizon.store(s->committed, std::memory_order_release);
  }

  if (threads == 0) threads = k;
  if (threads <= 1 || k == 1) {
    // Round-robin the identical protocol on this thread. Lookaheads > 0
    // guarantee each full sweep advances at least one shard until all
    // reach end_ns.
    bool progress = true;
    while (progress) {
      progress = false;
      for (unsigned i = 0; i < k; ++i) {
        if (shards_[i]->committed < end_ns && advance(i, end_ns)) {
          progress = true;
        }
      }
    }
  } else {
    std::vector<std::thread> pool;
    pool.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
      pool.emplace_back([this, i, end_ns] { worker(i, end_ns); });
    }
    for (auto& t : pool) t.join();
  }
  return executed() - before;
}

std::uint64_t ShardedSimulator::run_to_quiescence(TimePoint first_bound,
                                                  unsigned threads) {
  std::int64_t bound = std::max<std::int64_t>(first_bound.as_nanos(), 1);
  std::uint64_t n = 0;
  while (!idle()) {
    n += run_until(TimePoint::from_nanos(bound), threads);
    if (bound > std::numeric_limits<std::int64_t>::max() / 2) break;
    bound *= 2;
  }
  return n;
}

bool ShardedSimulator::idle() const {
  for (const auto& s : shards_) {
    if (!s->sim.idle()) return false;
    for (const auto& q : s->inbound) {
      if (!q->empty()) return false;
    }
  }
  return true;
}

std::uint64_t ShardedSimulator::executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->sim.executed();
  return n;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->sim.pending();
  return n;
}

}  // namespace kmsg::sim
