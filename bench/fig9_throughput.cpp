// Figure 9 reproduction: bulk transfer throughput vs RTT for TCP, UDT and
// the adaptive DATA meta-protocol over the four setups. Methodology follows
// the paper (§V-B): repeated disk-to-disk-style transfers per configuration,
// at least `min_runs`, continuing until the relative standard error of the
// mean drops below 10% (or `max_runs`); 95% confidence intervals reported.
//
// Default transfer size is 64 MiB (pass --mb=395 for the paper's full NetCDF
// size; the shape is identical, the suite just runs longer).
#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"

namespace {

using namespace kmsg;
using messaging::Transport;

double one_transfer_mbps(netsim::Setup setup, Transport proto,
                         std::uint64_t bytes, std::uint64_t seed,
                         std::uint64_t& overflow) {
  apps::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.seed = seed;
  cfg.use_data_network = (proto == Transport::kData);
  cfg.net.udt.send_buffer_bytes = 100 * 1024 * 1024;  // the paper's tuning
  cfg.net.udt.recv_buffer_bytes = 100 * 1024 * 1024;
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = bytes;
  scfg.chunk_bytes = 65000;
  scfg.protocol = proto;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
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
  const TimePoint deadline = TimePoint::zero() + Duration::seconds(1200.0);
  while (!done && exp.simulator().now() < deadline) {
    exp.run_for(Duration::seconds(1.0));
  }
  (void)sink;
  overflow += exp.network_a().net_stats().queue_overflow +
              exp.network_b().net_stats().queue_overflow;
  return mbps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kmsg::bench;
  Flags flags(argc, argv);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(flags.get_int("mb", 64)) * 1024 * 1024;
  const int min_runs = static_cast<int>(flags.get_int("min_runs", 5));
  const int max_runs = static_cast<int>(flags.get_int("max_runs", 10));

  print_header("Figure 9", "transfer throughput vs RTT per protocol");
  print_expectation(
      "TCP: excellent at 0/3 ms, sharp drop-off at 155/320 ms (window/RTT "
      "limited). UDT: flat ~10 MB/s wherever the UDP policer applies (all "
      "remote setups), several times faster than TCP at high RTT. DATA: "
      "tracks the better protocol everywhere, with ramp-up cost and higher "
      "variance.");

  std::printf("%-10s %10s | %-6s %12s %12s %6s\n", "setup", "RTT(ms)",
              "proto", "MB/s", "ci95", "runs");
  std::uint64_t overflow = 0;
  for (auto setup : kmsg::netsim::kAllSetups) {
    const double rtt_ms = kmsg::netsim::rtt_of(setup).as_millis();
    for (auto proto : {Transport::kTcp, Transport::kUdt, Transport::kData}) {
      RunningStats stats;
      for (int run = 0; run < max_runs; ++run) {
        const double mbps =
            one_transfer_mbps(setup, proto, bytes,
                              static_cast<std::uint64_t>(run) * 7919 + 13,
                              overflow);
        if (mbps > 0.0) stats.add(mbps);
        if (run + 1 >= min_runs && stats.rse() < 0.10) break;
      }
      std::printf("%-10s %10.1f | %-6s %12.2f %12.2f %6zu\n",
                  kmsg::netsim::to_string(setup), rtt_ms,
                  kmsg::messaging::to_string(proto), stats.mean(),
                  stats.ci95_halfwidth(), stats.count());
    }
    std::printf("\n");
  }
  return exit_status("fig9_throughput", overflow);
}
