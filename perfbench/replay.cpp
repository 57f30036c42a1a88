#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "adaptive/prp.hpp"
#include "adaptive/psp.hpp"
#include "apps/experiment.hpp"
#include "apps/messages.hpp"
#include "kompics/system.hpp"
#include "messaging/serialization.hpp"
#include "netsim/topology.hpp"
#include "rl/sarsa.hpp"
#include "sim/simulator.hpp"
#include "transport/ledbat.hpp"
#include "transport/tcp.hpp"
#include "transport/udt.hpp"
#include "wire/framing.hpp"

namespace perfbench {

using namespace kmsg;
using messaging::Transport;

namespace {

constexpr std::size_t kChunkBytes = 65000;
constexpr std::size_t kMiB = 1024 * 1024;

/// Median wall nanoseconds per op of three timed passes of `fn(n)`.
template <typename Fn>
double ns_per_op(std::uint64_t n, Fn&& fn) {
  std::vector<double> passes;
  for (int i = 0; i < 3; ++i) {
    const double t0 = wall_now_s();
    fn(n);
    passes.push_back((wall_now_s() - t0) * 1e9 / static_cast<double>(n));
  }
  std::sort(passes.begin(), passes.end());
  return passes[1];
}

// --- sim --------------------------------------------------------------------

/// A self-rescheduling event: `chains` of these keep as many events pending
/// as the workload does, with delays spread over 1 us .. 2 ms.
struct Chain {
  sim::Simulator* sim;
  std::uint64_t* left;
  std::uint64_t state;
  void operator()() {
    if (*left == 0) return;
    --*left;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto delay = static_cast<std::int64_t>(1 + (state >> 33) % 2000);
    sim->schedule_after(Duration::micros(delay), Chain{*this});
  }
};

double sim_ns_per_event(unsigned chains, std::uint64_t events) {
  return ns_per_op(events, [&](std::uint64_t n) {
    sim::Simulator sim;
    std::uint64_t left = n;
    for (unsigned c = 0; c < chains; ++c) {
      sim.schedule_after(Duration::micros(c % 2000), Chain{&sim, &left, c + 1u});
    }
    sim.run();
  });
}

// --- kompics ----------------------------------------------------------------

struct ReplayPort : kompics::PortType {
  ReplayPort() { indication<messaging::Msg>(); }
};

class Producer final : public kompics::ComponentDefinition {
 public:
  void setup() override { port_ = &provides<ReplayPort>(); }
  kompics::PortInstance& port() { return *port_; }
  template <typename M, typename... Args>
  void emit(Args&&... args) {
    trigger(kompics::make_event<M>(std::forward<Args>(args)...), *port_);
  }

 private:
  kompics::PortInstance* port_ = nullptr;
};

class Consumer final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    port_ = &require<ReplayPort>();
    subscribe<messaging::Msg>(*port_, [this](const messaging::Msg&) { ++received; });
  }
  kompics::PortInstance& port() { return *port_; }
  std::uint64_t received = 0;

 private:
  kompics::PortInstance* port_ = nullptr;
};

const messaging::Address kA{1, 100};
const messaging::Address kB{2, 200};

void kompics_replay(const Mix& p, std::uint64_t events, Replays& out) {
  sim::Simulator sim;
  kompics::KompicsSystem sys(sim);
  auto& prod = sys.create<Producer>("producer");
  auto& cons = sys.create<Consumer>("consumer");
  sys.connect(prod.port(), cons.port());
  sys.start_all();
  sim.run();
  const wire::BufSlice payload = apps::make_payload_slice(0, kChunkBytes);
  const std::uint64_t allocs0 = alloc_count();
  const double ns = ns_per_op(events, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; i += 1000) {
      for (std::uint64_t j = i; j < std::min(n, i + 1000); ++j) {
        if (p.bulk) {
          prod.emit<apps::DataChunkMsg>(messaging::DataHeader{kA, kB, Transport::kTcp},
                                        1, j * kChunkBytes, payload, false);
        } else {
          prod.emit<apps::PingMsg>(messaging::BasicHeader{kA, kB, Transport::kTcp}, j,
                                   std::int64_t{0});
        }
      }
      sim.run();
    }
  });
  out.metrics["kompics.dispatch_ns"] = {ns, "ns"};
  out.metrics["kompics.allocs_per_event"] = {
      static_cast<double>(alloc_count() - allocs0) / static_cast<double>(cons.received),
      "ratio"};
}

// --- netsim -----------------------------------------------------------------

struct ReplayBody final : netsim::DatagramBody {};

/// Nanoseconds per datagram through one link (offer, serialise, propagate,
/// deliver), and the sim events each one takes.
void netsim_replay(const Mix& p, std::uint64_t datagrams, Replays& out,
                   double sim_ns) {
  std::uint64_t events = 0;
  const double ns = ns_per_op(datagrams, [&](std::uint64_t n) {
    sim::Simulator sim;
    netsim::Network net(sim, 1);
    auto& a = net.add_host();
    auto& b = net.add_host();
    netsim::LinkConfig cfg;
    cfg.bandwidth_bytes_per_sec = 1e12;
    cfg.propagation_delay = Duration::micros(100);
    cfg.queue_capacity_bytes = std::size_t{1} << 30;
    net.add_duplex_link(a.id(), b.id(), cfg);
    std::uint64_t got = 0;
    b.bind(netsim::IpProto::kUdp, 9, [&](const netsim::Datagram&) { ++got; });
    for (std::uint64_t i = 0; i < n; i += 256) {
      for (std::uint64_t j = i; j < std::min(n, i + 256); ++j) {
        netsim::Datagram dg;
        dg.dst = b.id();
        dg.src_port = 9;
        dg.dst_port = 9;
        dg.proto = netsim::IpProto::kUdp;
        dg.wire_bytes = static_cast<std::size_t>(p.datagram_bytes);
        dg.body = std::make_shared<const ReplayBody>();
        a.send(std::move(dg));
      }
      sim.run();
    }
    events = sim.executed();
  });
  out.metrics["netsim.ns_per_datagram"] = {ns, "ns"};
  const double events_per = static_cast<double>(events) / static_cast<double>(datagrams);
  out.netsim_self_ns = std::max(0.0, ns - events_per * sim_ns);
}

// --- transport --------------------------------------------------------------

struct StreamRun {
  double ns_per_kib = 0.0;
  double self_ns_per_kib = 0.0;
  double retransmit_ratio = 0.0;
  double allocs_per_segment = 0.0;
  std::uint64_t open_faults = 0;
};

/// Opens one connection over `link`, then streams `bytes` through it and
/// times the transfer from the first write to the last delivered byte.
template <typename Conn, typename Listener, typename Config>
StreamRun stream_replay(const netsim::LinkConfig& link, const Config& cfg,
                        std::uint64_t bytes, double sim_ns, double netsim_ns) {
  static const std::vector<std::uint8_t> block = [] {
    std::vector<std::uint8_t> b(64 * 1024);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i * 131);
    return b;
  }();
  StreamRun out;
  sim::Simulator sim;
  netsim::Network net(sim, 7);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), link);
  const auto slice = [&] { sim.run_until(sim.now() + Duration::millis(10)); };
  const TimePoint limit = TimePoint::zero() + Duration::seconds(300.0);

  const std::uint64_t faults0 = usage_now().minor_faults;
  std::shared_ptr<Conn> server;
  std::uint64_t received = 0;
  Listener listener(b, 80, cfg, [&](std::shared_ptr<Conn> c) {
    server = std::move(c);
    server->set_on_data([&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = Conn::connect(a, b.id(), 80, cfg);
  bool connected = false;
  client->set_on_connected([&] { connected = true; });
  while ((!connected || !server) && sim.now() < limit) slice();
  out.open_faults = usage_now().minor_faults - faults0;

  std::uint64_t written = 0;
  const auto pump = [&] {
    while (written < bytes) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(block.size(), bytes - written));
      const std::size_t n = client->write(std::span<const std::uint8_t>(block.data(), want));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_writable(pump);
  const auto datagrams_sent = [&] {
    std::uint64_t n = 0;
    net.for_each_link([&](netsim::HostId, netsim::HostId, netsim::Link& l) {
      n += l.stats().datagrams_sent;
    });
    return n;
  };
  const std::uint64_t datagrams0 = datagrams_sent();
  const std::uint64_t events0 = sim.executed();
  const std::uint64_t allocs0 = alloc_count();
  const double t0 = wall_now_s();
  pump();
  while (received < bytes && sim.now() < limit) slice();
  const double wall = wall_now_s() - t0;
  const std::uint64_t allocs = alloc_count() - allocs0;
  const std::uint64_t datagrams = datagrams_sent() - datagrams0;

  const double kib = static_cast<double>(bytes) / 1024.0;
  const auto& st = client->stats();
  out.ns_per_kib = wall * 1e9 / kib;
  out.self_ns_per_kib =
      std::max(0.0, (wall * 1e9 - static_cast<double>(sim.executed() - events0) * sim_ns -
                     static_cast<double>(datagrams) * netsim_ns) /
                        kib);
  const double segments = static_cast<double>(std::max<std::uint64_t>(st.segments_sent, 1));
  out.retransmit_ratio = static_cast<double>(st.segments_retransmitted) / segments;
  out.allocs_per_segment = static_cast<double>(allocs) / segments;
  return out;
}

netsim::LinkConfig replay_link(double loss) {
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.propagation_delay = Duration::millis(1);
  cfg.queue_capacity_bytes = 16 * kMiB;
  cfg.random_loss_rate = loss;
  return cfg;
}

void transport_replay(const Mix& p, std::uint64_t bytes, double sim_ns,
                      Replays& out) {
  using namespace transport;
  const double nn = out.netsim_self_ns;
  UdtConfig udt;
  udt.send_buffer_bytes = p.udt_buffer_bytes;
  udt.recv_buffer_bytes = p.udt_buffer_bytes;

  // The workload's own transport on its own path: retransmissions,
  // allocations per segment, and the page faults of opening a connection.
  const StreamRun own =
      p.primary == Transport::kUdt
          ? stream_replay<UdtConnection, UdtListener>(netsim::link_config_for(p.setup),
                                                      udt, bytes, sim_ns, nn)
          : stream_replay<TcpConnection, TcpListener>(netsim::link_config_for(p.setup),
                                                      TcpConfig{}, bytes, sim_ns, nn);
  out.metrics["transport.retransmit_ratio"] = {own.retransmit_ratio, "ratio"};
  out.metrics["transport.allocs_per_segment"] = {own.allocs_per_segment, "ratio"};
  out.metrics["transport.conn_open_faults"] = {static_cast<double>(own.open_faults),
                                               "count"};

  for (const auto& [suffix, loss] : {std::pair{"clean", 0.0}, std::pair{"loss1", 0.01}}) {
    const auto link = replay_link(loss);
    const StreamRun tcp =
        stream_replay<TcpConnection, TcpListener>(link, TcpConfig{}, bytes, sim_ns, nn);
    const StreamRun u =
        stream_replay<UdtConnection, UdtListener>(link, udt, bytes, sim_ns, nn);
    const StreamRun led = stream_replay<LedbatConnection, LedbatListener>(
        link, LedbatConfig{}, bytes, sim_ns, nn);
    const std::string s = suffix;
    out.metrics["transport.tcp_ns_per_kib_" + s] = {tcp.ns_per_kib, "ns/KiB"};
    out.metrics["transport.udt_ns_per_kib_" + s] = {u.ns_per_kib, "ns/KiB"};
    out.metrics["transport.ledbat_ns_per_kib_" + s] = {led.ns_per_kib, "ns/KiB"};
    if (loss == 0.0) {
      out.tcp_self_ns_per_kib = tcp.self_ns_per_kib;
      out.udt_self_ns_per_kib = u.self_ns_per_kib;
    }
  }
}

// --- wire -------------------------------------------------------------------

void wire_replay(std::size_t size, std::uint64_t frames, const char* cls,
                 Replays& out) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  constexpr std::size_t kBatch = 64;
  double enc_s = 0.0, dec_s = 0.0;
  std::uint64_t decoded = 0;
  wire::FrameDecoder dec;
  dec.set_on_frame([&](wire::BufSlice) { ++decoded; });
  for (std::uint64_t done = 0; done < frames; done += kBatch) {
    std::vector<wire::BufSlice> batch;
    for (std::size_t k = 0; k < kBatch; ++k) {
      batch.push_back(wire::BufSlice::copy_of(payload, wire::kFrameHeaderBytes));
    }
    const double t0 = wall_now_s();
    for (auto& s : batch) s = wire::encode_frame_slice(std::move(s));
    const double t1 = wall_now_s();
    for (const auto& s : batch) dec.feed(s);
    dec_s += wall_now_s() - t1;
    enc_s += t1 - t0;
  }
  const double n = static_cast<double>(decoded);
  out.metrics[std::string("wire.frame_encode_ns_") + cls] = {enc_s * 1e9 / n, "ns"};
  out.metrics[std::string("wire.frame_decode_ns_") + cls] = {dec_s * 1e9 / n, "ns"};
}

// --- messaging --------------------------------------------------------------

void serialize_replay(const messaging::Msg& msg, std::uint64_t n, const char* cls,
                      Replays& out) {
  messaging::SerializerRegistry reg;
  apps::register_app_serializers(reg);
  out.metrics[std::string("messaging.serialize_ns_") + cls] = {
      ns_per_op(n, [&](std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) reg.serialize(msg);
      }),
      "ns"};
  const wire::BufSlice bytes = *reg.serialize(msg);
  out.metrics[std::string("messaging.deserialize_ns_") + cls] = {
      ns_per_op(n, [&](std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) reg.deserialize(bytes);
      }),
      "ns"};
}

class Blaster final : public kompics::ComponentDefinition {
 public:
  Blaster(messaging::Address self, messaging::Address dst, bool bulk)
      : self_(self), dst_(dst), bulk_(bulk),
        payload_(apps::make_payload_slice(0, kChunkBytes)) {}
  void setup() override { net_ = &require<messaging::Network>(); }
  kompics::PortInstance& network() { return *net_; }
  void send(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++seq_) {
      if (bulk_) {
        trigger(kompics::make_event<apps::DataChunkMsg>(
                    messaging::DataHeader{self_, dst_, Transport::kTcp}, 1,
                    seq_ * kChunkBytes, payload_, false),
                *net_);
      } else {
        trigger(kompics::make_event<apps::PingMsg>(
                    messaging::BasicHeader{self_, dst_, Transport::kTcp}, seq_,
                    std::int64_t{0}),
                *net_);
      }
    }
  }

 private:
  messaging::Address self_;
  messaging::Address dst_;
  bool bulk_;
  wire::BufSlice payload_;
  std::uint64_t seq_ = 0;
  kompics::PortInstance* net_ = nullptr;
};

class Receiver final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<apps::PingMsg>(*net_, [this](const apps::PingMsg&) { ++received; });
    subscribe<apps::DataChunkMsg>(*net_, [this](const apps::DataChunkMsg&) { ++received; });
  }
  kompics::PortInstance& network() { return *net_; }
  std::uint64_t received = 0;

 private:
  kompics::PortInstance* net_ = nullptr;
};

/// One message at a time through the whole NetworkComponent stack of a
/// Local two-node world, in bursts that stay under the session queue cap.
/// Returns (ns, allocs) per message.
std::pair<double, double> send_to_deliver(bool bulk, std::uint64_t msgs) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kLocal;
  apps::TwoNodeExperiment exp(cfg);
  auto& blaster = exp.system().create<Blaster>("blaster", exp.addr_a(), exp.addr_b(), bulk);
  auto& receiver = exp.system().create<Receiver>("receiver");
  exp.connect_a(blaster.network());
  exp.connect_b(receiver.network());
  exp.start();
  const Duration step = bulk ? Duration::millis(1) : Duration::micros(100);
  const auto deliver = [&](std::uint64_t target) {
    const TimePoint limit = exp.simulator().now() + Duration::seconds(60.0);
    while (receiver.received < target && exp.simulator().now() < limit) exp.run_for(step);
  };
  blaster.send(1);  // session set-up stays out of the timing
  deliver(1);
  const std::uint64_t burst = bulk ? 16 : 256;
  const std::uint64_t allocs0 = alloc_count();
  const double t0 = wall_now_s();
  for (std::uint64_t sent = 0; sent < msgs; sent += burst) {
    blaster.send(burst);
    deliver(1 + sent + burst);
  }
  const double wall = wall_now_s() - t0;
  const double n = static_cast<double>(receiver.received - 1);
  return {wall * 1e9 / n, static_cast<double>(alloc_count() - allocs0) / n};
}

// --- adaptive, rl, apps -----------------------------------------------------

void learner_replay(std::uint64_t n, Replays& out) {
  adaptive::PatternSelection psp;
  psp.set_ratio(0.37);
  std::uint64_t udt = 0;
  out.metrics["adaptive.psp_next_ns"] = {
      ns_per_op(n * 20, [&](std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) udt += psp.next() == Transport::kUdt;
      }),
      "ns"};
  if (udt == 0) throw std::runtime_error("pattern selection never picked UDT");

  out.metrics["adaptive.prp_update_ns"] = {
      ns_per_op(n, [&](std::uint64_t k) {
        adaptive::TDRatioLearner learner(
            adaptive::model_learner_defaults(adaptive::VfKind::kQuadApprox), Rng(1));
        learner.begin(0.5);
        for (std::uint64_t i = 0; i < k; ++i) {
          adaptive::EpisodeStats st;
          st.throughput_bps = 5e6 + static_cast<double>(i % 7) * 1e6;
          learner.update(st);
        }
      }),
      "ns"};

  out.metrics["rl.sarsa_step_ns"] = {
      ns_per_op(n, [&](std::uint64_t k) {
        rl::AdditiveModel model(11, {-2, -1, 0, 1, 2});
        rl::SarsaLambda sarsa(std::make_unique<rl::QuadApproxV>(model), rl::SarsaConfig{},
                              Rng(1));
        sarsa.begin(5);
        int s = 5;
        for (std::uint64_t i = 0; i < k; ++i) s = model.next_state(s, sarsa.step(0.5, s));
      }),
      "ns"};
}

void payload_replay(std::uint64_t chunks, Replays& out) {
  // A small ring of live chunks, so slabs recycle as they do in a transfer
  // instead of every chunk faulting in fresh pages.
  constexpr std::size_t kRing = 16;
  const double kib_per_chunk = static_cast<double>(kChunkBytes) / 1024.0;
  std::vector<wire::BufSlice> ring(kRing);
  out.metrics["apps.payload_gen_ns_per_kib"] = {
      ns_per_op(chunks, [&](std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) {
          ring[i % kRing] = apps::make_payload_slice((i % kRing) * kChunkBytes, kChunkBytes);
        }
      }) / kib_per_chunk,
      "ns/KiB"};
  std::uint64_t bad = 0;
  out.metrics["apps.payload_verify_ns_per_kib"] = {
      ns_per_op(chunks, [&](std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) {
          bad += !apps::verify_payload((i % kRing) * kChunkBytes, ring[i % kRing].span());
        }
      }) / kib_per_chunk,
      "ns/KiB"};
  if (bad != 0) throw std::runtime_error("payload verification failed");
}

}  // namespace

Replays run_replays(const Mix& p, bool tiny) {
  const std::uint64_t scale = tiny ? 20 : 1;
  Replays out;

  const auto chains = static_cast<unsigned>(std::max(1.0, std::round(p.pending_events)));
  const double sim_ns = sim_ns_per_event(chains, 300'000 / scale);
  out.metrics["sim.ns_per_event"] = {sim_ns, "ns"};
  kompics_replay(p, 100'000 / scale, out);
  netsim_replay(p, 100'000 / scale, out, sim_ns);
  transport_replay(p, (8 * kMiB) / scale, sim_ns, out);

  wire_replay(kChunkBytes + 64, 2'048 / scale, "64k", out);
  messaging::SerializerRegistry reg;
  apps::register_app_serializers(reg);
  const apps::PingMsg ping(messaging::BasicHeader{kA, kB, Transport::kTcp}, 7, 123456789);
  const apps::DataChunkMsg chunk(messaging::DataHeader{kA, kB, Transport::kTcp}, 1, 0,
                                 apps::make_payload_slice(0, kChunkBytes), false);
  wire_replay(reg.serialize(ping)->size(), 65'536 / scale, "small", out);
  serialize_replay(chunk, 2'000 / scale, "64k", out);
  serialize_replay(ping, 100'000 / scale, "small", out);

  const auto [small_ns, small_allocs] = send_to_deliver(false, 20'000 / scale);
  const auto [bulk_ns, bulk_allocs] = send_to_deliver(true, 1'024 / scale);
  out.metrics["messaging.send_to_deliver_ns_small"] = {small_ns, "ns"};
  out.metrics["messaging.send_to_deliver_ns_64k"] = {bulk_ns, "ns"};
  out.metrics["messaging.allocs_per_msg"] = {p.bulk ? bulk_allocs : small_allocs, "ratio"};

  learner_replay(20'000 / scale, out);
  payload_replay(1'000 / scale, out);
  return out;
}

}  // namespace perfbench
