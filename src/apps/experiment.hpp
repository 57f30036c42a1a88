// TwoNodeExperiment: the reusable harness behind all benches and the
// integration tests. Assembles, for one of the paper's four setups (Fig. 7):
// a simulator, a two-host network, one Kompics system (simulation
// scheduler), per-host messaging stacks (plain NetworkComponent or the
// adaptive DataNetwork on the sender), a timer component, and the app
// serialiser registry. Application components are created by the caller and
// wired through connect_* helpers.
#pragma once

#include <memory>
#include <optional>

#include "adaptive/data_network.hpp"
#include "apps/messages.hpp"
#include "kompics/timer.hpp"
#include "netsim/topology.hpp"

namespace kmsg::apps {

struct ExperimentConfig {
  netsim::Setup setup = netsim::Setup::kEuVpc;
  std::uint64_t seed = 42;
  /// Install the adaptive DataNetwork (interceptor) on node A; node B always
  /// runs a plain NetworkComponent.
  bool use_data_network = false;
  adaptive::DataNetworkConfig data;
  /// Base messaging config for both nodes (addresses are filled in); tune
  /// transport parameters (e.g. the UDT 100 MB buffers) here.
  messaging::NetworkConfig net;
  /// Override the topology's link config (e.g. loss injection).
  std::optional<netsim::LinkConfig> link_override;
};

class TwoNodeExperiment {
 public:
  explicit TwoNodeExperiment(ExperimentConfig config);
  ~TwoNodeExperiment();
  TwoNodeExperiment(const TwoNodeExperiment&) = delete;
  TwoNodeExperiment& operator=(const TwoNodeExperiment&) = delete;

  sim::Simulator& simulator() { return sim_; }
  kompics::KompicsSystem& system() { return *system_; }
  netsim::Network& network() { return world_->net; }
  std::shared_ptr<messaging::SerializerRegistry> registry() { return registry_; }

  messaging::Address addr_a() const { return addr_a_; }
  messaging::Address addr_b() const { return addr_b_; }

  /// Consumer-facing network ports (interceptor port on A when the data
  /// network is enabled).
  kompics::PortInstance& net_port_a();
  kompics::PortInstance& net_port_b();

  messaging::NetworkComponent& network_a() { return *net_a_; }
  messaging::NetworkComponent& network_b() { return *net_b_; }
  /// Non-null when use_data_network was set.
  adaptive::DataInterceptor* interceptor() { return interceptor_; }

  /// Connects a consumer's required Network port to node A's/B's stack.
  kompics::Channel& connect_a(kompics::PortInstance& consumer);
  kompics::Channel& connect_b(kompics::PortInstance& consumer);
  /// Connects a consumer's required Timer port to the shared timer.
  kompics::Channel& connect_timer(kompics::PortInstance& consumer);

  /// Starts all components (idempotent per component set).
  void start();

  /// Simulates the start of a process crash on node B: the host drops all
  /// traffic (netsim::Host::crash()) and node B's network component is
  /// killed, releasing its listeners, sessions, and timers. Application
  /// components the test created on B are its own to kill. Pair with
  /// recover_b().
  void crash_b();
  /// Completes a crash-recovery of node B: the host comes back with a fresh
  /// incarnation and a brand-new network component binds the same address.
  /// Consumers previously wired via connect_b are attached to the dead
  /// stack — call connect_b again for the reborn one.
  void recover_b();
  /// How many times node B has been restarted via crash_b/recover_b.
  std::uint64_t b_restarts() const { return b_restarts_; }

  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }
  void run_until_idle() { sim_.run(); }

 private:
  ExperimentConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<netsim::TwoHostWorld> world_;
  std::unique_ptr<kompics::KompicsSystem> system_;
  std::shared_ptr<messaging::SerializerRegistry> registry_;
  messaging::Address addr_a_;
  messaging::Address addr_b_;
  messaging::NetworkComponent* net_a_ = nullptr;
  messaging::NetworkComponent* net_b_ = nullptr;
  adaptive::DataInterceptor* interceptor_ = nullptr;
  kompics::PortInstance* port_a_ = nullptr;
  kompics::TimerComponent* timer_ = nullptr;
  std::uint64_t b_restarts_ = 0;
};

}  // namespace kmsg::apps
