// The Kompics component core: ports, channels, handlers, components.
//
// Semantics implemented here (paper §II-A):
//  - components declare *provided* and *required* ports of declared types;
//  - events are not addressed: triggering publishes on all channels connected
//    to the port (broadcast), and receivers decide what to handle by
//    subscribing handlers — unmatched events are silently dropped;
//  - handler matching follows the event type hierarchy (subtypes match);
//  - channels deliver FIFO, exactly-once per receiver;
//  - a component executes on at most one thread at a time, handling up to a
//    configurable number of queued events per scheduling (the
//    throughput-vs-fairness knob the paper describes);
//  - indications flow provided -> required, requests flow required ->
//    provided, validated at trigger time against the port type.
//
// Hot-path machinery (see DESIGN.md §4d):
//  - dispatch is devirtualized: each port keeps a cache line per event type
//    id holding the matching handlers and their precomputed pointer
//    adjustments, so steady-state dispatch is an indexed load plus direct
//    calls — the dynamic_cast subtype walk runs once per (port, event type);
//  - each component's mailbox is an intrusive MPSC stack of arena nodes
//    (Vyukov queue): enqueue is two atomic stores, no lock, no deque churn.
//
// Deviation from the Java API: `requires` is a C++20 keyword, so the
// required-port declaration is spelled `require<P>()`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "kompics/event.hpp"
#include "kompics/port_type.hpp"

namespace kmsg::kompics {

class ComponentCore;
class Channel;
class KompicsSystem;
class PortInstance;
class ThreadPoolScheduler;

namespace detail {

/// Intrusive mailbox node, carved from the Arena (32-byte class).
/// Shared between a component's private FIFO (plain pointer swizzling on the
/// home thread) and its public Vyukov MPSC queue (atomic exchange), and
/// chained thread-locally in the scheduler's outbox for batched cross-core
/// handoff — one node type so an event never changes representation on its
/// way into a mailbox.
struct MailboxNode {
  std::atomic<MailboxNode*> next{nullptr};
  PortInstance* at = nullptr;
  EventPtr ev;
};

struct WorkerContext;  // scheduler.hpp: TLS identity of a pool worker

/// Runtime-internal supervision events, enqueued directly on a parent's
/// control port (bypassing trigger validation — they never cross a channel)
/// and intercepted by ComponentCore::execute before user dispatch. Carrying
/// the child pointer is safe: cores_ is append-only and killed cores are
/// tombstoned in place, never destroyed mid-run.
struct ChildFault final : KompicsEvent {
  explicit ChildFault(ComponentCore* c) : child(c) {}
  ComponentCore* child;
};
struct ChildKilled final : KompicsEvent {
  explicit ChildKilled(ComponentCore* c) : child(c) {}
  ComponentCore* child;
};

}  // namespace detail

// --- Supervision ---

/// Which children a supervisor restarts when one of them faults.
enum class RestartPolicy : std::uint8_t {
  kOneForOne,  ///< restart only the faulted child (subtree)
  kAllForOne,  ///< restart every child (the siblings share fate)
};

/// Erlang-style restart policy a parent applies to faulted children. A fault
/// is an exception escaping a handler; restarting a child means sending its
/// subtree Stop then Start (the Start handler is the component's reset
/// hook). When more than `max_restarts` faults land within `restart_window`,
/// the supervisor gives up: the faulted child's subtree is killed and the
/// fault escalates to the grandparent.
struct SupervisorPolicy {
  RestartPolicy restart = RestartPolicy::kOneForOne;
  std::uint32_t max_restarts = 3;
  Duration restart_window = Duration::seconds(10.0);
};

/// Component lifecycle state. kFailed quarantines a component after a
/// handler fault — non-control events are discarded until a supervisor
/// restarts it (Start returns it to kActive). kDead is terminal: the
/// component's mailboxes were reclaimed and it never executes again.
enum class LifeState : std::uint8_t { kPassive, kActive, kFailed, kDead };

// --- Handlers ---

class HandlerBase {
 public:
  virtual ~HandlerBase() = default;

  /// Slow path (runs once per (port, event type id)): if the event's dynamic
  /// type matches this handler's target type, stores the pointer adjustment
  /// from the event's KompicsEvent base to the target subobject in *offset
  /// and returns true. The offset is a property of the event's most-derived
  /// type, so it can be cached and replayed for every future event with the
  /// same type id.
  virtual bool match(const KompicsEvent& ev, std::ptrdiff_t* offset) const = 0;

  /// Fast path: invokes the handler using a previously matched offset.
  virtual void invoke(const EventPtr& ev, std::ptrdiff_t offset) = 0;
};

template <typename E>
class TypedHandler final : public HandlerBase {
 public:
  explicit TypedHandler(std::function<void(const E&)> fn) : fn_(std::move(fn)) {}

  bool match(const KompicsEvent& ev, std::ptrdiff_t* offset) const override {
    const auto* e = dynamic_cast<const E*>(&ev);
    if (e == nullptr) return false;
    *offset = reinterpret_cast<const char*>(e) -
              reinterpret_cast<const char*>(&ev);
    return true;
  }

  void invoke(const EventPtr& ev, std::ptrdiff_t offset) override {
    fn_(*reinterpret_cast<const E*>(
        reinterpret_cast<const char*>(ev.get()) + offset));
  }

 private:
  std::function<void(const E&)> fn_;
};

/// Handler variant that receives the shared event handle, for components
/// that store or forward events without copying (e.g. the network layer
/// queueing messages).
template <typename E>
class PtrHandler final : public HandlerBase {
 public:
  explicit PtrHandler(std::function<void(EventRef<E>)> fn)
      : fn_(std::move(fn)) {}

  bool match(const KompicsEvent& ev, std::ptrdiff_t* offset) const override {
    const auto* e = dynamic_cast<const E*>(&ev);
    if (e == nullptr) return false;
    *offset = reinterpret_cast<const char*>(e) -
              reinterpret_cast<const char*>(&ev);
    return true;
  }

  void invoke(const EventPtr& ev, std::ptrdiff_t offset) override {
    fn_(EventRef<E>::add_ref(reinterpret_cast<const E*>(
        reinterpret_cast<const char*>(ev.get()) + offset)));
  }

 private:
  std::function<void(EventRef<E>)> fn_;
};

// --- Ports ---

class PortInstance {
 public:
  PortInstance(ComponentCore* owner, const PortType& type, bool provided);
  PortInstance(const PortInstance&) = delete;
  PortInstance& operator=(const PortInstance&) = delete;

  bool provided() const { return provided_; }
  const PortType& type() const { return type_; }
  ComponentCore* owner() const { return owner_; }

  void subscribe(std::unique_ptr<HandlerBase> handler);

  /// Broadcasts an outgoing event onto all connected channels. By value:
  /// with a single connected channel (the common case) the reference is
  /// moved all the way into the receiver's mailbox without refcount traffic.
  void publish(EventPtr ev);

  /// Receives an event from a channel: queues it at the owning component.
  void deliver(EventPtr ev);

  /// Runs all matching subscribed handlers (owner's scheduler context).
  void dispatch(const EventPtr& ev);

  std::size_t channel_count() const { return channels_.size(); }
  std::uint64_t events_dropped() const { return dropped_; }

 private:
  friend class Channel;
  void attach(Channel* ch) { channels_.push_back(ch); }
  void detach(Channel* ch);

  /// One dispatch-cache line: the handlers matching one event type id, with
  /// their base-to-target pointer adjustments. Built lazily on the first
  /// event of that type, torn down whenever a handler is subscribed.
  struct DispatchEntry {
    HandlerBase* handler;
    std::ptrdiff_t offset;
  };
  struct DispatchLine {
    bool built = false;
    std::vector<DispatchEntry> entries;
  };

  void dispatch_slow(const EventPtr& ev);

  ComponentCore* owner_;
  const PortType& type_;
  bool provided_;
  std::vector<Channel*> channels_;
  std::vector<std::unique_ptr<HandlerBase>> handlers_;
  std::vector<DispatchLine> dispatch_cache_;  // indexed by event type id
  std::uint64_t dropped_ = 0;  // delivered but matched no handler
};

// --- Channels ---

/// Indication filter; an empty selector passes everything.
using ChannelSelector = std::function<bool(const KompicsEvent&)>;

class Channel {
 public:
  Channel(PortInstance* provided_side, PortInstance* required_side);
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void set_indication_selector(ChannelSelector sel) { ind_sel_ = std::move(sel); }

  /// provided -> required direction.
  void forward_indication(EventPtr ev);
  /// required -> provided direction.
  void forward_request(EventPtr ev);

  /// Detaches from both ports; the channel becomes inert.
  void disconnect();

  PortInstance* provided_side() const { return provided_side_; }
  PortInstance* required_side() const { return required_side_; }

 private:
  PortInstance* provided_side_;
  PortInstance* required_side_;
  ChannelSelector ind_sel_;
};

// --- Component definition (user-facing base class) ---

class ComponentDefinition {
 public:
  virtual ~ComponentDefinition() = default;

  /// Wiring hook invoked once the runtime core is attached: declare ports,
  /// subscribe handlers, create children here (constructors run before the
  /// core exists and must not call the protected API below).
  virtual void setup() {}

  const std::string& name() const;

 protected:
  ComponentDefinition() = default;

  /// Declares (or retrieves) this component's provided port of type P.
  template <typename P>
  PortInstance& provides();

  /// Declares (or retrieves) this component's required port of type P.
  /// (Named `require` because `requires` is reserved in C++20.)
  template <typename P>
  PortInstance& require();

  /// Creates a child component: lifecycle events (Start/Stop/Kill) arriving
  /// at this component's control port cascade to children, so starting the
  /// root of a subtree starts the whole subtree — the Kompics component
  /// hierarchy (the paper's vnodes are such subtrees).
  template <typename C, typename... Args>
  C& create_child(std::string name, Args&&... args);

  /// The implicit control port (handles Start/Stop/Kill).
  PortInstance& control();

  /// Declares this component a supervisor of its children: faults are
  /// absorbed and handled per `policy` (restart / escalate on exhaustion)
  /// instead of propagating straight up. Call from setup(), before the
  /// subtree starts.
  void supervise(SupervisorPolicy policy);

  /// Publishes an event on a port, validating event direction against the
  /// port type. Thread-safe; may be called from timer callbacks.
  void trigger(EventPtr ev, PortInstance& port);

  /// Subscribes a handler for events of (sub)type E arriving at `port`.
  template <typename E>
  void subscribe(PortInstance& port, std::function<void(const E&)> fn) {
    port.subscribe(std::make_unique<TypedHandler<E>>(std::move(fn)));
  }

  /// Subscribes a handler receiving the shared event handle (zero-copy
  /// retention of immutable events).
  template <typename E>
  void subscribe_ptr(PortInstance& port, std::function<void(EventRef<E>)> fn) {
    port.subscribe(std::make_unique<PtrHandler<E>>(std::move(fn)));
  }

  KompicsSystem& system();
  const Clock& clock() const;

 private:
  friend class ComponentCore;
  friend class KompicsSystem;
  ComponentCore* core_ = nullptr;
};

// --- Component core (runtime side) ---

class ComponentCore {
 public:
  ComponentCore(KompicsSystem& system, std::string name);
  ~ComponentCore();
  ComponentCore(const ComponentCore&) = delete;
  ComponentCore& operator=(const ComponentCore&) = delete;

  /// Takes ownership of the definition and attaches the core to it.
  void adopt(std::unique_ptr<ComponentDefinition> def);

  ComponentDefinition& definition() { return *definition_; }
  KompicsSystem& system() { return system_; }
  const std::string& name() const { return name_; }

  /// Declares or fetches a port of `type` on the given side.
  PortInstance& port(const PortType& type, bool provided);
  PortInstance& control_port() { return *control_; }

  /// Queues an event arriving at `at` and schedules execution. Lock-free
  /// (multi-producer): safe from any thread and from timer callbacks.
  void enqueue(PortInstance* at, EventPtr ev);

  /// Registers a child core for lifecycle cascading. The child inherits this
  /// component's home worker (shard-affine placement) and joins its channel
  /// cluster for the local→shared escalation bookkeeping.
  void adopt_child(ComponentCore* child);
  const std::vector<ComponentCore*>& children() const { return children_; }
  /// True for non-root components (they start via their parent's cascade).
  bool has_parent() const { return has_parent_; }
  ComponentCore* parent() const { return parent_; }

  /// Makes this component a supervisor: faulted children are restarted per
  /// `policy` instead of escalating immediately. Attach before the subtree
  /// starts (typically from setup(), i.e. at create() time).
  void set_supervisor_policy(SupervisorPolicy policy) {
    supervises_ = true;
    policy_ = policy;
  }
  bool supervises() const { return supervises_; }

  /// Lifecycle observability. life_state() is owned by the core's execution
  /// thread — read it between runs / after quiescence. is_dead() is safe
  /// from any thread (it is what enqueue consults to drop mail for
  /// tombstoned cores).
  LifeState life_state() const { return state_; }
  bool is_dead() const { return dead_.load(std::memory_order_acquire); }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t restarts_issued() const { return restarts_issued_; }
  std::uint64_t escalations() const { return escalations_; }

  /// Executes up to max_events_per_scheduling queued events. Invoked by the
  /// scheduler; never concurrently for the same core.
  void execute();

  std::uint64_t events_handled() const { return events_handled_; }

  /// Home worker index (thread-pool mode; 0 under simulation).
  std::uint32_t home() const { return home_; }
  /// True once the component's channel cluster spans workers (or was
  /// explicitly migrated): refcounts/mailbox use the atomic paths. Monotone
  /// local→shared; see DESIGN.md §10.
  bool is_shared() const { return shared_.load(std::memory_order_relaxed); }

 private:
  friend class KompicsSystem;
  friend class ThreadPoolScheduler;
  friend struct detail::WorkerContext;

  // Private-FIFO ops: plain pointer swizzling, home/executing thread only.
  void mailbox_push_private(detail::MailboxNode* n);
  detail::MailboxNode* mailbox_pop_private();
  // Public-queue ops: Vyukov MPSC, any thread.
  void mailbox_push_public(detail::MailboxNode* n);
  /// Splices a pre-linked FIFO chain [first..last] into the public queue
  /// with a single exchange — the batched cross-core handoff.
  void mailbox_push_chain(detail::MailboxNode* first, detail::MailboxNode* last);
  detail::MailboxNode* mailbox_pop_public();
  bool mailbox_nonempty();

  // Supervision machinery (all run on the core's own execution, except where
  // noted — see the lifecycle notes in core.cpp).
  void handle_control_(const EventPtr& ev, std::uint16_t tid);
  void on_fault_();
  void on_child_fault_(ComponentCore* child);
  void on_child_killed_();
  void begin_kill_(const EventPtr& ev);
  void finalize_kill_();
  void restart_target_(ComponentCore* target);
  void escalate_or_die_();

  KompicsSystem& system_;
  std::string name_;
  std::unique_ptr<ComponentDefinition> definition_;
  std::vector<std::unique_ptr<PortInstance>> ports_;
  std::map<std::pair<const PortType*, bool>, PortInstance*> port_index_;
  PortInstance* control_ = nullptr;

  // Home-shard placement (set by KompicsSystem before the component is wired;
  // null pool_ for simulation-backed systems).
  ThreadPoolScheduler* pool_ = nullptr;
  std::uint32_t home_ = 0;
  std::atomic<bool> shared_{false};

  // Intrusive link for the scheduler's per-worker local FIFO and the global
  // overflow queue. Only ever touched while the core sits in exactly one
  // queue (the scheduled_ protocol guarantees that).
  ComponentCore* sched_next_ = nullptr;

  // Union-find over connect() and parent-child edges, maintained by
  // KompicsSystem; uf_members_ is only meaningful at the cluster root.
  ComponentCore* uf_parent_ = nullptr;
  std::vector<ComponentCore*> uf_members_;

  // Private mailbox: plain FIFO touched only by the thread the core is
  // confined to (the simulation driver, or a local-mode core's home worker).
  detail::MailboxNode* priv_head_ = nullptr;
  detail::MailboxNode* priv_tail_ = nullptr;

  // Public mailbox: Vyukov intrusive MPSC queue — producers exchange on
  // head_, the (single) consumer walks tail_. stub_ never carries a payload.
  detail::MailboxNode stub_;
  std::atomic<detail::MailboxNode*> mailbox_head_{&stub_};
  detail::MailboxNode* mailbox_tail_ = &stub_;
  std::atomic<bool> scheduled_{false};

  std::uint64_t events_handled_ = 0;
  std::vector<ComponentCore*> children_;
  bool has_parent_ = false;

  // Supervision state. state_, the restart bookkeeping and the kill
  // counters are touched only by the core's own (never-concurrent) execute;
  // dead_ is the cross-thread tombstone flag producers consult.
  ComponentCore* parent_ = nullptr;
  LifeState state_ = LifeState::kPassive;
  std::atomic<bool> dead_{false};
  bool supervises_ = false;
  SupervisorPolicy policy_;
  std::vector<TimePoint> restart_times_;  ///< restarts issued, window-pruned
  bool kill_requested_ = false;
  std::size_t pending_child_kills_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t restarts_issued_ = 0;
  std::uint64_t escalations_ = 0;
};

// Out-of-line template definitions (need ComponentCore).

template <typename P>
PortInstance& ComponentDefinition::provides() {
  return core_->port(port_type<P>(), true);
}

template <typename P>
PortInstance& ComponentDefinition::require() {
  return core_->port(port_type<P>(), false);
}

}  // namespace kmsg::kompics
