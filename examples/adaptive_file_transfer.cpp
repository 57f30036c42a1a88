// Adaptive bulk transfer: the paper's headline scenario as a runnable
// example. Moves a 256 MiB synthetic dataset between two simulated EC2-class
// hosts on the EU<->US path (~155 ms RTT) three ways — plain TCP, plain UDT,
// and the adaptive DATA meta-protocol with the Sarsa(λ) learner — and prints
// the learner's per-second decisions so you can watch it discover that UDT
// is the right choice at this RTT.
//
// Run: ./adaptive_file_transfer [--mb 256]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"

using namespace kmsg;
using messaging::Transport;

namespace {

double transfer(netsim::Setup setup, Transport proto, std::uint64_t bytes,
                bool trace_learner, std::uint64_t& overflow) {
  apps::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.use_data_network = (proto == Transport::kData);
  cfg.data.prp_kind = adaptive::PrpKind::kTdQuadApprox;
  cfg.data.psp_kind = adaptive::PspKind::kPattern;
  cfg.net.udt.send_buffer_bytes = 100 * 1024 * 1024;
  cfg.net.udt.recv_buffer_bytes = 100 * 1024 * 1024;
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = bytes;
  scfg.protocol = proto;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());

  double mbps = 0.0;
  bool done = false;
  source.set_on_complete([&](Duration d, std::uint64_t total) {
    mbps = static_cast<double>(total) / d.as_seconds() / 1e6;
    done = true;
  });
  exp.start();

  int second = 0;
  while (!done && second < 600) {
    exp.run_for(Duration::seconds(1.0));
    ++second;
    if (trace_learner && exp.interceptor() != nullptr && second % 2 == 0) {
      auto flows = exp.interceptor()->flows();
      if (!flows.empty()) {
        const auto& f = flows[0];
        std::printf("  t=%3ds  target r=%+.2f  eps=%.2f  last throughput=%6.2f "
                    "MB/s  sent tcp/udt=%llu/%llu\n",
                    second, 2.0 * f.target_prob_udt - 1.0, f.epsilon,
                    f.last_throughput_bps / 1e6,
                    static_cast<unsigned long long>(f.released_tcp),
                    static_cast<unsigned long long>(f.released_udt));
      }
    }
  }
  if (sink.corrupt_chunks() != 0) {
    std::printf("  !! payload corruption detected\n");
  }
  overflow += exp.network_a().net_stats().queue_overflow +
              exp.network_b().net_stats().queue_overflow;
  return mbps;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t mb = 256;
  for (int i = 1; i + 1 < argc + 1; ++i) {
    if (std::strcmp(argv[i], "--mb") == 0 && i + 1 < argc) {
      mb = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  const std::uint64_t bytes = mb * 1024 * 1024;
  const auto setup = netsim::Setup::kEu2Us;

  std::printf("Transferring %llu MiB over the %s path (~155 ms RTT)\n\n",
              static_cast<unsigned long long>(mb), netsim::to_string(setup));

  // Session-queue drops: the source's notify window should be paced by
  // backpressure, so any drop fails the run.
  std::uint64_t overflow = 0;
  std::printf("[1/3] plain TCP...\n");
  const double tcp = transfer(setup, Transport::kTcp, bytes, false, overflow);
  std::printf("  -> %.2f MB/s\n\n", tcp);

  std::printf("[2/3] plain UDT...\n");
  const double udt = transfer(setup, Transport::kUdt, bytes, false, overflow);
  std::printf("  -> %.2f MB/s\n\n", udt);

  std::printf("[3/3] adaptive DATA (watch the learner move toward UDT):\n");
  const double data = transfer(setup, Transport::kData, bytes, true, overflow);
  std::printf("  -> %.2f MB/s\n\n", data);

  std::printf("summary: TCP %.2f MB/s | UDT %.2f MB/s | DATA %.2f MB/s\n", tcp,
              udt, data);
  std::printf("expected shape: UDT >> TCP at this RTT; DATA close to UDT "
              "after its ramp-up.\n");
  if (overflow != 0) {
    std::fprintf(stderr, "adaptive_file_transfer: %llu messages overflowed a "
                 "session queue\n", static_cast<unsigned long long>(overflow));
    return 1;
  }
  return 0;
}
