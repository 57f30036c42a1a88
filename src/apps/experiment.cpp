#include "apps/experiment.hpp"

namespace kmsg::apps {

TwoNodeExperiment::TwoNodeExperiment(ExperimentConfig config)
    : config_(std::move(config)) {
  world_ = std::make_unique<netsim::TwoHostWorld>(sim_, config_.setup,
                                                  config_.seed);
  if (config_.link_override) {
    world_->net.add_duplex_link(world_->sender, world_->receiver,
                                *config_.link_override);
  }
  system_ = std::make_unique<kompics::KompicsSystem>(sim_);
  registry_ = std::make_shared<messaging::SerializerRegistry>();
  register_app_serializers(*registry_);

  // The nodes' ports, for their stream listeners and UDP endpoints.
  constexpr netsim::Port kPortA = 1000;
  constexpr netsim::Port kPortB = 2000;
  addr_a_ = messaging::Address{world_->sender, kPortA};
  addr_b_ = messaging::Address{world_->receiver, kPortB};

  auto& host_a = world_->net.host(world_->sender);
  auto& host_b = world_->net.host(world_->receiver);

  messaging::NetworkConfig cfg_a = config_.net;
  cfg_a.self = addr_a_;
  messaging::NetworkConfig cfg_b = config_.net;
  cfg_b.self = addr_b_;

  if (config_.use_data_network) {
    auto dn = adaptive::DataNetwork::create(*system_, host_a, cfg_a,
                                            config_.data, registry_);
    net_a_ = &dn.network();
    interceptor_ = &dn.interceptor();
    port_a_ = &dn.port();
  } else {
    net_a_ = &system_->create<messaging::NetworkComponent>(
        "network@" + addr_a_.to_string(), host_a, cfg_a, registry_);
    port_a_ = &net_a_->network_port();
  }
  net_b_ = &system_->create<messaging::NetworkComponent>(
      "network@" + addr_b_.to_string(), host_b, cfg_b, registry_);

  timer_ = &system_->create<kompics::TimerComponent>("timer");
}

TwoNodeExperiment::~TwoNodeExperiment() = default;

kompics::PortInstance& TwoNodeExperiment::net_port_a() { return *port_a_; }

kompics::PortInstance& TwoNodeExperiment::net_port_b() {
  return net_b_->network_port();
}

kompics::Channel& TwoNodeExperiment::connect_a(kompics::PortInstance& consumer) {
  return system_->connect(net_port_a(), consumer);
}

kompics::Channel& TwoNodeExperiment::connect_b(kompics::PortInstance& consumer) {
  return system_->connect(net_port_b(), consumer);
}

kompics::Channel& TwoNodeExperiment::connect_timer(
    kompics::PortInstance& consumer) {
  return system_->connect(timer_->provides_port(), consumer);
}

void TwoNodeExperiment::start() { system_->start_all(); }

void TwoNodeExperiment::crash_b() {
  // Order matters: the host stops routing first (nothing the dying component
  // emits during teardown escapes onto the wire), then the process is killed
  // so its subtree tears down and its port bindings free up.
  world_->net.host(world_->receiver).crash();
  system_->kill(*net_b_);
}

void TwoNodeExperiment::recover_b() {
  auto& host_b = world_->net.host(world_->receiver);
  host_b.recover();
  ++b_restarts_;
  messaging::NetworkConfig cfg_b = config_.net;
  cfg_b.self = addr_b_;
  net_b_ = &system_->create<messaging::NetworkComponent>(
      "network@" + addr_b_.to_string() + "#inc" +
          std::to_string(host_b.incarnation()),
      host_b, cfg_b, registry_);
  system_->start(*net_b_);
}

}  // namespace kmsg::apps
