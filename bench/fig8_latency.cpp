// Figure 8 reproduction: RTTs of small "Ping" control messages over the four
// setups (Local / EU-VPC / EU2US / EU2AU), with and without a parallel bulk
// data transfer, for the protocol combinations the paper evaluates:
//   - TCP pings only                       ("TCP Pings Only")
//   - UDT pings only                       ("UDT Pings Only")
//   - TCP pings + bulk data over TCP       ("TCP Ping - TCP Data")
//   - TCP pings + bulk data over UDT       ("TCP Ping - UDT Data")
//   - TCP pings + bulk data over DATA      ("DATA Ping - TCP Data" analogue)
// The paper's Fig. 8 is log-scale; we print raw medians/means in ms.
#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/pingpong.hpp"
#include "bench_util.hpp"

namespace {

using namespace kmsg;
using messaging::Transport;

struct RttResult {
  double median_ms;
  double mean_ms;
  double p95_ms;
  std::uint64_t pongs;
  std::uint64_t queue_overflow;  // both nodes' session-queue drops
};

enum class Bulk { kNone, kTcp, kUdt, kData, kLedbat };

RttResult measure(netsim::Setup setup, Transport ping_proto, Bulk bulk,
                  double seconds, std::uint64_t seed) {
  apps::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.seed = seed;
  cfg.use_data_network = (bulk == Bulk::kData);
  cfg.net.udt.send_buffer_bytes = 100 * 1024 * 1024;
  cfg.net.udt.recv_buffer_bytes = 100 * 1024 * 1024;
  apps::TwoNodeExperiment exp(cfg);

  apps::PingerConfig pcfg;
  pcfg.self = exp.addr_a();
  pcfg.dst = exp.addr_b();
  pcfg.protocol = ping_proto;
  pcfg.interval = Duration::millis(100);
  auto& pinger = exp.system().create<apps::Pinger>("pinger", pcfg);
  auto& ponger =
      exp.system().create<apps::Ponger>("ponger", apps::PongerConfig{exp.addr_b()});
  exp.connect_a(pinger.network());
  exp.connect_b(ponger.network());
  exp.connect_timer(pinger.timer());

  if (bulk != Bulk::kNone) {
    apps::DataSourceConfig scfg;
    scfg.self = exp.addr_a();
    scfg.dst = exp.addr_b();
    scfg.total_bytes = 0;  // stream for the whole measurement
    scfg.protocol = (bulk == Bulk::kTcp)      ? Transport::kTcp
                    : (bulk == Bulk::kUdt)    ? Transport::kUdt
                    : (bulk == Bulk::kLedbat) ? Transport::kLedbat
                                              : Transport::kData;
    auto& source = exp.system().create<apps::DataSource>("source", scfg);
    apps::DataSinkConfig kcfg;
    kcfg.self = exp.addr_b();
    auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
    exp.connect_a(source.network());
    exp.connect_b(sink.network());
  }

  exp.start();
  exp.run_for(Duration::seconds(seconds));

  const auto& rtts = pinger.rtts_ms();
  RttResult r;
  r.median_ms = rtts.median();
  r.mean_ms = rtts.mean();
  r.p95_ms = rtts.percentile(95);
  r.pongs = pinger.pongs_received();
  r.queue_overflow = exp.network_a().net_stats().queue_overflow +
                     exp.network_b().net_stats().queue_overflow;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kmsg::bench;
  Flags flags(argc, argv);
  const double seconds = flags.get_double("seconds", 25.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  print_header("Figure 8", "control-message RTT vs parallel data transfer");
  print_expectation(
      "Pings sharing TCP with bulk data inflate by orders of magnitude "
      "(head-of-line blocking in the shared send buffer); data over UDT "
      "leaves ping RTT near baseline; DATA sits between but >= 2 orders of "
      "magnitude below the TCP+TCP case.");

  struct Config {
    const char* label;
    kmsg::messaging::Transport ping;
    Bulk bulk;
  };
  const Config configs[] = {
      {"TCP pings only", Transport::kTcp, Bulk::kNone},
      {"UDT pings only", Transport::kUdt, Bulk::kNone},
      {"TCP ping + TCP data", Transport::kTcp, Bulk::kTcp},
      {"TCP ping + UDT data", Transport::kTcp, Bulk::kUdt},
      {"TCP ping + DATA data", Transport::kTcp, Bulk::kData},
      // Extension row: bulk over the LEDBAT background transport.
      {"TCP ping + LEDBAT data", Transport::kTcp, Bulk::kLedbat},
  };

  std::printf("%-10s %-22s %12s %12s %12s %8s\n", "setup", "configuration",
              "median(ms)", "mean(ms)", "p95(ms)", "pongs");
  std::uint64_t overflow = 0;
  for (auto setup : kmsg::netsim::kAllSetups) {
    for (const auto& c : configs) {
      const auto r = measure(setup, c.ping, c.bulk, seconds, seed);
      overflow += r.queue_overflow;
      std::printf("%-10s %-22s %12.3f %12.3f %12.3f %8llu\n",
                  kmsg::netsim::to_string(setup), c.label, r.median_ms,
                  r.mean_ms, r.p95_ms,
                  static_cast<unsigned long long>(r.pongs));
    }
    std::printf("\n");
  }
  return exit_status("fig8_latency", overflow);
}
