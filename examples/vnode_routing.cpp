// Virtual nodes and multi-hop routing: the flexible-API features of paper
// §III. One physical host runs three chat "rooms" as virtual nodes behind a
// single NetworkComponent; a remote host messages them individually, a
// co-hosted vnode whispers to its neighbour without any serialisation
// (local reflection), and a RoutingHeader bounces a message across a relay
// vnode before reaching its destination.
//
// Run: ./vnode_routing
#include <cstdio>
#include <string>

#include "apps/chat.hpp"
#include "apps/experiment.hpp"
#include "messaging/virtual_network.hpp"

using namespace kmsg;
using namespace kmsg::messaging;
using apps::ChatMsg;
using apps::register_chat;

namespace {

/// A chat room living in one virtual node. Forwards messages that still have
/// relay hops left; prints the ones addressed to it.
class Room final : public kompics::ComponentDefinition {
 public:
  explicit Room(std::string name) : room_name_(std::move(name)) {}

  void setup() override {
    net_ = &require<Network>();
    subscribe<ChatMsg>(*net_, [this](const ChatMsg& msg) {
      if (msg.route().has_next()) {
        // Relay: forward to the next hop, advancing the route. Messages are
        // immutable, so forwarding constructs a new one.
        const Address next = msg.route().next_hop();
        std::printf("  [%s] relaying \"%s\" -> %s\n", room_name_.c_str(),
                    msg.text().c_str(), next.to_string().c_str());
        BasicHeader fwd{msg.basic_header().source(), next,
                        msg.header().protocol()};
        trigger(kompics::make_event<ChatMsg>(fwd, msg.text(),
                                             msg.route().advanced()),
                *net_);
        return;
      }
      std::printf("  [%s] received: \"%s\" (from %s via %s)\n",
                  room_name_.c_str(), msg.text().c_str(),
                  msg.header().source().to_string().c_str(),
                  to_string(msg.header().protocol()));
      ++received_;
    });
  }
  kompics::PortInstance& network() { return *net_; }
  int received() const { return received_; }

 private:
  std::string room_name_;
  kompics::PortInstance* net_ = nullptr;
  int received_ = 0;
};

}  // namespace

int main() {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  apps::TwoNodeExperiment exp(cfg);
  register_chat(*exp.registry());

  // Host B runs three rooms as vnodes 1..3 behind one NetworkComponent.
  VirtualNetworkChannel vnet_b(exp.system(), exp.net_port_b());
  auto& lobby = exp.system().create<Room>("lobby", "lobby");
  auto& dev = exp.system().create<Room>("dev", "dev");
  auto& ops = exp.system().create<Room>("ops", "ops");
  vnet_b.register_vnode(1, lobby.network());
  vnet_b.register_vnode(2, dev.network());
  vnet_b.register_vnode(3, ops.network());

  // Host A runs a plain sender room.
  auto& alice = exp.system().create<Room>("alice", "alice");
  exp.connect_a(alice.network());

  exp.start();
  const auto serialized_at_start = exp.registry()->messages_serialized();

  std::printf("1) Remote messages to individual vnodes (A -> B#1..3):\n");
  // Publishing on alice's required Network port is exactly what trigger()
  // does from inside her component — the request flows down to node A's
  // network stack.
  auto say = [&](std::uint64_t vnode, const std::string& text, Transport t) {
    BasicHeader h{exp.addr_a(), exp.addr_b().with_vnode(vnode), t};
    alice.network().publish(kompics::make_event<ChatMsg>(h, text));
  };

  say(1, "hello lobby", Transport::kTcp);
  say(2, "deploy at noon?", Transport::kTcp);
  say(3, "disk alert on node 7", Transport::kUdp);
  exp.run_for(Duration::seconds(1.0));

  std::printf("\n2) Co-hosted whisper (B#2 -> B#3): reflected locally, never "
              "serialised.\n");
  const auto serialized_before = exp.registry()->messages_serialized();
  BasicHeader whisper{exp.addr_b().with_vnode(2), exp.addr_b().with_vnode(3),
                      Transport::kTcp};
  dev.network().publish(kompics::make_event<ChatMsg>(whisper, "psst, ops"));
  exp.run_for(Duration::millis(200));
  std::printf("  messages serialised during whisper: %llu (expected 0)\n",
              static_cast<unsigned long long>(
                  exp.registry()->messages_serialized() - serialized_before));

  std::printf("\n3) Multi-hop route: A -> B#1 (relay) -> B#3 (final).\n");
  Route route({exp.addr_b().with_vnode(3)});  // remaining hop after B#1
  BasicHeader routed{exp.addr_a(), exp.addr_b().with_vnode(1), Transport::kTcp};
  alice.network().publish(
      kompics::make_event<ChatMsg>(routed, "routed hello", route));
  exp.run_for(Duration::seconds(1.0));

  const int total =
      lobby.received() + dev.received() + ops.received() + alice.received();
  std::printf("\ndelivered chat messages: %d (expected 5)\n", total);
  std::printf("total serialisations: %llu (whisper stayed local)\n",
              static_cast<unsigned long long>(
                  exp.registry()->messages_serialized() - serialized_at_start));
  return total == 5 ? 0 : 1;
}
