// KompicsSystem: owns components, channels and the scheduler.
//
// The system is the composition root: create components, connect their
// ports, start them, and (in simulation mode) drive the simulator.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "kompics/core.hpp"
#include "kompics/scheduler.hpp"

namespace kmsg::kompics {

struct SystemSettings {
  /// Max queued events a component handles per scheduling — the paper's
  /// throughput (cache reuse) vs. fairness (starvation) trade-off knob.
  std::size_t max_events_per_scheduling = 16;
};

class KompicsSystem {
 public:
  /// Simulation-backed system: components execute in virtual time.
  explicit KompicsSystem(sim::Simulator& sim, SystemSettings settings = {});
  /// Thread-pool-backed system: components execute on worker threads.
  explicit KompicsSystem(std::size_t worker_threads, SystemSettings settings = {});
  ~KompicsSystem();
  KompicsSystem(const KompicsSystem&) = delete;
  KompicsSystem& operator=(const KompicsSystem&) = delete;

  /// Creates a component from its definition type; returns the definition
  /// for port access. The component is passive until start() is called.
  /// Thread-pool mode: root components are placed round-robin across
  /// workers; children created via create_child inherit the parent's home.
  template <typename C, typename... Args>
  C& create(std::string name, Args&&... args) {
    static_assert(std::is_base_of_v<ComponentDefinition, C>);
    auto core = std::make_unique<ComponentCore>(*this, std::move(name));
    auto def = std::make_unique<C>(std::forward<Args>(args)...);
    C& ref = *def;
    core->adopt(std::move(def));
    place_core_(core.get());
    cores_.push_back(std::move(core));
    ref.setup();
    return ref;
  }

  /// Connects a provided port to a required port of the same port type.
  /// An optional selector filters indications (ChannelSelector model).
  Channel& connect(PortInstance& provided, PortInstance& required,
                   ChannelSelector indication_selector = {});
  void disconnect(Channel& channel);

  /// Triggers Start on the component's control port.
  void start(ComponentDefinition& def);
  /// Triggers Stop on the component's control port (cascades to children).
  void stop(ComponentDefinition& def);
  /// Triggers Kill: the subtree is torn down post-order, mailboxes and
  /// queued events are reclaimed, and the component publishes Killed on its
  /// control port. Terminal — a killed component never executes again.
  void kill(ComponentDefinition& def);
  /// Attaches a restart policy: `def` will restart faulted children per
  /// `policy` (and escalate when the budget is exhausted) instead of
  /// escalating every fault. Attach before the subtree starts.
  void supervise(ComponentDefinition& def, SupervisorPolicy policy);
  /// Lifecycle observability (read between runs / after quiescence).
  LifeState life_state(const ComponentDefinition& def) const {
    return def.core_->life_state();
  }
  /// Starts every root component created so far (children start via their
  /// parent's lifecycle cascade).
  void start_all();

  Scheduler& scheduler() { return *scheduler_; }
  const Clock& clock() const { return scheduler_->clock(); }
  std::size_t max_events_per_scheduling() const {
    return settings_.max_events_per_scheduling;
  }
  std::size_t component_count() const { return cores_.size(); }

  /// Worker threads backing this system (1 in simulation mode).
  std::size_t worker_count() const;

  /// Pins a component's whole channel cluster to one worker (shard-affine
  /// placement). Must be called before the cluster is started — placement
  /// must not race execution. No-op in simulation mode.
  void pin_home(ComponentDefinition& def, std::uint32_t worker);

  /// Observability for placement decisions (tests, diagnostics).
  std::uint32_t home_of(const ComponentDefinition& def) const {
    return def.core_->home();
  }
  bool is_shared(const ComponentDefinition& def) const {
    return def.core_->is_shared();
  }

  /// Stops scheduler threads (thread-pool mode); simulation mode is a no-op.
  void shutdown();

 private:
  friend class ComponentCore;

  void place_core_(ComponentCore* core);
  /// Union-find over connect()/parent-child edges: merges the two cores'
  /// clusters and escalates the merged cluster to shared (atomic) mode when
  /// it spans workers or either side already escalated. Escalation is
  /// monotone; callers must not mutate topology concurrently with execution
  /// of the affected cores (DESIGN.md §10).
  void link_cores_(ComponentCore* a, ComponentCore* b);
  static ComponentCore* uf_find_(ComponentCore* c);

  SystemSettings settings_;
  std::unique_ptr<Scheduler> scheduler_;
  ThreadPoolScheduler* pool_ = nullptr;  // null for simulation-backed systems
  std::uint32_t next_home_ = 0;
  std::vector<std::unique_ptr<ComponentCore>> cores_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

// Out-of-line: needs the complete KompicsSystem.
template <typename C, typename... Args>
C& ComponentDefinition::create_child(std::string name, Args&&... args) {
  C& child = core_->system().template create<C>(std::move(name),
                                                std::forward<Args>(args)...);
  core_->adopt_child(child.core_);
  return child;
}

}  // namespace kmsg::kompics
