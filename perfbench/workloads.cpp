#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/gossip.hpp"
#include "apps/pingpong.hpp"
#include "netsim/topology.hpp"
#include "sim/sharded.hpp"
#include "wire/buffer.hpp"

namespace perfbench {

using namespace kmsg;
using messaging::Transport;

namespace {

// --- Workload sizes ---------------------------------------------------------
// Each repetition is a fixed amount of simulated work, sized so that one
// run of the benchmark repeats it often enough to report steady medians.

/// bulk_tcp: file size (the fig9 default is 64 MiB; a quarter keeps one
/// repetition well under a second of wall time).
constexpr std::uint64_t kBulkBytes = 16ull << 20;
constexpr std::uint64_t kBulkBytesTiny = 1ull << 20;
constexpr std::size_t kChunkBytes = 65000;

/// adaptive_wan: simulated span of DATA streaming plus 100 ms TCP pings.
/// Pings stop kPingQuietS before the end so every ping sent, and every chunk
/// issued by then, can arrive.
constexpr double kAdaptiveSpanS = 20.0;
constexpr double kAdaptiveSpanTinyS = 10.0;
constexpr double kPingQuietS = 8.0;
static_assert(kAdaptiveSpanTinyS > kPingQuietS);
constexpr std::size_t kPaperUdtBufferBytes = 100 * 1024 * 1024;

/// small_msgs: round trips at a 100 us simulated interval.
constexpr std::uint64_t kSmallPings = 50'000;
constexpr std::uint64_t kSmallPingsTiny = 2'000;

/// gossip_sharded: star-of-regions size (regions x 8 hosts) and shards.
constexpr unsigned kGossipRegions = 1250;
constexpr unsigned kGossipRegionsTiny = 50;
constexpr unsigned kGossipShards = 4;

/// Simulated slice per run_for() call on the two-node workloads; the traced
/// run times each one.
constexpr Duration kSlice = Duration::millis(100);

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string exact(std::uint64_t v) { return std::to_string(v); }

/// Brackets the timed phase: process probes and slab-pool deltas cover
/// exactly the calls made inside it.
class TimedPhase {
 public:
  explicit TimedPhase(RepResult& r)
      : r_(r), slabs0_(wire::SlabPool::instance().stats()), p0_(Probe::now()) {}

  void finish() {
    const Probe p1 = Probe::now();
    const auto slabs1 = wire::SlabPool::instance().stats();
    r_.wall_s = p1.wall_s - p0_.wall_s;
    r_.cpu_s = p1.usage.cpu_s - p0_.usage.cpu_s;
    r_.allocs = p1.allocs - p0_.allocs;
    r_.counts["wire.slabs_created"] =
        static_cast<double>(slabs1.slabs_created - slabs0_.slabs_created);
    r_.counts["wire.slabs_recycled"] =
        static_cast<double>(slabs1.slabs_recycled - slabs0_.slabs_recycled);
    r_.counts["wire.payload_bytes_copied"] = static_cast<double>(
        slabs1.payload_bytes_copied - slabs0_.payload_bytes_copied);
  }

 private:
  RepResult& r_;
  wire::SlabPoolStats slabs0_;
  Probe p0_;
};

void read_link_counts(netsim::Network& net, RepResult& r) {
  netsim::LinkStats sum;
  net.for_each_link([&](netsim::HostId, netsim::HostId, netsim::Link& link) {
    const auto& s = link.stats();
    sum.datagrams_sent += s.datagrams_sent;
    sum.datagrams_delivered += s.datagrams_delivered;
    sum.drops_queue_full += s.drops_queue_full;
    sum.drops_policer += s.drops_policer;
    sum.bytes_delivered += s.bytes_delivered;
  });
  r.counts["netsim.datagrams"] = static_cast<double>(sum.datagrams_sent);
  r.counts["netsim.drops_queue_full"] = static_cast<double>(sum.drops_queue_full);
  r.counts["netsim.drops_policer"] = static_cast<double>(sum.drops_policer);
  r.counts["netsim.datagrams_delivered"] =
      static_cast<double>(sum.datagrams_delivered);
  r.counts["netsim.bytes_delivered"] = static_cast<double>(sum.bytes_delivered);
  r.mix.datagram_bytes = static_cast<double>(sum.bytes_delivered) /
                         static_cast<double>(std::max<std::uint64_t>(1, sum.datagrams_delivered));
}

/// Public stats of a two-node experiment, summed over both hosts.
void read_two_node_counts(apps::TwoNodeExperiment& exp, RepResult& r) {
  r.counts["sim.events"] = static_cast<double>(exp.simulator().executed());
  read_link_counts(exp.network(), r);
  const auto& a = exp.network_a().net_stats();
  const auto& b = exp.network_b().net_stats();
  r.counts["messaging.msgs_sent"] = static_cast<double>(a.msgs_sent + b.msgs_sent);
  r.counts["messaging.msgs_received"] =
      static_cast<double>(a.msgs_received + b.msgs_received);
  r.counts["messaging.wire_bytes_sent"] =
      static_cast<double>(a.wire_bytes_sent + b.wire_bytes_sent);
  r.counts["messaging.queue_overflow"] =
      static_cast<double>(a.queue_overflow + b.queue_overflow);
  r.counts["messaging.session_reconnects"] =
      static_cast<double>(a.session_reconnects + b.session_reconnects);
  double episodes = 0, released_tcp = 0, released_udt = 0;
  if (auto* ic = exp.interceptor()) {
    for (const auto& f : ic->flows()) {
      episodes += static_cast<double>(f.episodes);
      released_tcp += static_cast<double>(f.released_tcp);
      released_udt += static_cast<double>(f.released_udt);
    }
  }
  r.counts["adaptive.episodes"] = episodes;
  r.counts["adaptive.released_tcp"] = released_tcp;
  r.counts["adaptive.released_udt"] = released_udt;
}

/// Runs `exp` in kSlice steps until `done()` or `limit` of simulated time.
template <typename DoneFn>
void run_slices(apps::TwoNodeExperiment& exp, const RepOptions& opt,
                TimePoint limit, RepResult& r, DoneFn done) {
  while (!done() && exp.simulator().now() < limit) {
    if (opt.trace_slices) {
      const double t0 = wall_now_s();
      exp.run_for(kSlice);
      r.slice_ms.push_back((wall_now_s() - t0) * 1e3);
      r.slice_pending.push_back(static_cast<double>(exp.simulator().pending()));
    } else {
      exp.run_for(kSlice);
    }
  }
}

apps::ExperimentConfig two_node_config(netsim::Setup setup, std::uint64_t seed) {
  apps::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.seed = seed;
  return cfg;
}

void set_mix(const apps::ExperimentConfig& cfg, bool bulk, Transport primary,
             RepResult& r) {
  r.mix.bulk = bulk;
  r.mix.primary = primary;
  r.mix.setup = cfg.setup;
  r.mix.udt_buffer_bytes = cfg.net.udt.send_buffer_bytes;
}

void bulk_tcp(std::uint64_t seed, const RepOptions& opt, RepResult& r) {
  const std::uint64_t total = opt.tiny ? kBulkBytesTiny : kBulkBytes;
  const double t0 = wall_now_s();
  const apps::ExperimentConfig cfg = two_node_config(netsim::Setup::kEuVpc, seed);
  set_mix(cfg, true, Transport::kTcp, r);
  apps::TwoNodeExperiment exp(cfg);
  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = total;
  scfg.chunk_bytes = kChunkBytes;
  scfg.protocol = Transport::kTcp;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  double goodput_mbps = 0.0;
  source.set_on_complete([&](Duration d, std::uint64_t bytes) {
    goodput_mbps = static_cast<double>(bytes) / d.as_seconds() / 1e6;
  });
  r.setup_s = wall_now_s() - t0;

  TimedPhase phase(r);
  exp.start();
  run_slices(exp, opt, TimePoint::zero() + Duration::seconds(600.0), r,
             [&] { return source.finished(); });
  phase.finish();

  const std::uint64_t chunks = (total + kChunkBytes - 1) / kChunkBytes;
  const std::uint64_t intact =
      sink.chunks_received() - std::min(sink.chunks_received(), sink.corrupt_chunks());
  r.attempted = chunks;
  r.failed = source.finished() && sink.bytes_received() == total
                 ? chunks - std::min(chunks, intact)
                 : chunks;
  r.msgs = sink.chunks_received();
  r.payload_bytes = sink.bytes_received();
  r.sim["goodput_mbps"] = exact(goodput_mbps);
  r.sim["bytes_delivered"] = exact(sink.bytes_received());
  read_two_node_counts(exp, r);
  // One dispatch per message sent (at the network port) and received (at
  // the app), plus one notify response per chunk attempt.
  r.counts["kompics.events"] = r.counts["messaging.msgs_sent"] +
                               r.counts["messaging.msgs_received"] +
                               static_cast<double>(chunks) +
                               r.counts["messaging.queue_overflow"];
  r.counts["apps.payload_kib"] = static_cast<double>(sink.bytes_received()) / 1024.0;
}

void adaptive_wan(std::uint64_t seed, const RepOptions& opt, RepResult& r) {
  const double span_s = opt.tiny ? kAdaptiveSpanTinyS : kAdaptiveSpanS;
  const double t0 = wall_now_s();
  apps::ExperimentConfig cfg = two_node_config(netsim::Setup::kEu2Us, seed);
  // The learner keeps the library's default seed: a different learner seed
  // sends a different share of the data over each transport, which changes
  // the work of a repetition by up to 2x and would drown the timing.
  cfg.use_data_network = true;
  cfg.net.udt.send_buffer_bytes = kPaperUdtBufferBytes;
  cfg.net.udt.recv_buffer_bytes = kPaperUdtBufferBytes;
  set_mix(cfg, true, Transport::kUdt, r);
  apps::TwoNodeExperiment exp(cfg);

  apps::PingerConfig pcfg;
  pcfg.self = exp.addr_a();
  pcfg.dst = exp.addr_b();
  pcfg.protocol = Transport::kTcp;
  pcfg.interval = Duration::millis(100);
  pcfg.max_pings = static_cast<std::uint64_t>((span_s - kPingQuietS) * 10.0);
  auto& pinger = exp.system().create<apps::Pinger>("pinger", pcfg);
  auto& ponger =
      exp.system().create<apps::Ponger>("ponger", apps::PongerConfig{exp.addr_b()});
  exp.connect_a(pinger.network());
  exp.connect_b(ponger.network());
  exp.connect_timer(pinger.timer());

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = 0;  // stream for the whole span
  scfg.chunk_bytes = kChunkBytes;
  scfg.protocol = Transport::kData;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  r.setup_s = wall_now_s() - t0;

  TimedPhase phase(r);
  exp.start();
  const auto never = [] { return false; };
  const TimePoint cutoff = TimePoint::zero() + Duration::seconds(span_s - kPingQuietS);
  run_slices(exp, opt, cutoff, r, never);
  // Every chunk the source has issued by now must reach the sink before the
  // span ends; later ones may still be in flight at the end.
  const std::uint64_t chunks = source.bytes_sent() / kChunkBytes;
  run_slices(exp, opt, TimePoint::zero() + Duration::seconds(span_s), r, never);
  phase.finish();

  const auto& rtts = pinger.rtts_ms();
  const std::uint64_t intact =
      sink.chunks_received() - std::min(sink.chunks_received(), sink.corrupt_chunks());
  r.attempted = chunks + pinger.pings_sent();
  r.failed = std::max(sink.corrupt_chunks(), chunks - std::min(chunks, intact)) +
             (pinger.pings_sent() - pinger.pongs_received());
  r.msgs = sink.chunks_received() + pinger.pongs_received() + ponger.pongs_sent();
  r.payload_bytes = sink.bytes_received();
  r.sim["goodput_mbps"] =
      exact(static_cast<double>(sink.bytes_received()) / span_s / 1e6);
  r.sim["bytes_delivered"] = exact(sink.bytes_received());
  r.sim["rtt_p50_ms"] = exact(rtts.empty() ? 0.0 : rtts.median());
  r.sim["rtt_p98_ms"] = exact(rtts.empty() ? 0.0 : rtts.percentile(98));
  r.sim["pongs"] = exact(pinger.pongs_received());
  read_two_node_counts(exp, r);
  // Messages, plus the interceptor hop of every released DATA chunk, one
  // notify per chunk and one timer event per ping.
  r.counts["kompics.events"] =
      r.counts["messaging.msgs_sent"] + r.counts["messaging.msgs_received"] +
      2.0 * (r.counts["adaptive.released_tcp"] + r.counts["adaptive.released_udt"]) +
      static_cast<double>(pinger.pings_sent());
  r.counts["apps.payload_kib"] = static_cast<double>(sink.bytes_received()) / 1024.0;
}

void small_msgs(std::uint64_t seed, const RepOptions& opt, RepResult& r) {
  const std::uint64_t pings = opt.tiny ? kSmallPingsTiny : kSmallPings;
  const double t0 = wall_now_s();
  const apps::ExperimentConfig cfg = two_node_config(netsim::Setup::kEuVpc, seed);
  set_mix(cfg, false, Transport::kTcp, r);
  apps::TwoNodeExperiment exp(cfg);
  apps::PingerConfig pcfg;
  pcfg.self = exp.addr_a();
  pcfg.dst = exp.addr_b();
  pcfg.protocol = Transport::kTcp;
  pcfg.interval = Duration::micros(100);
  pcfg.max_pings = pings;
  auto& pinger = exp.system().create<apps::Pinger>("pinger", pcfg);
  auto& ponger =
      exp.system().create<apps::Ponger>("ponger", apps::PongerConfig{exp.addr_b()});
  exp.connect_a(pinger.network());
  exp.connect_b(ponger.network());
  exp.connect_timer(pinger.timer());
  r.setup_s = wall_now_s() - t0;

  TimedPhase phase(r);
  exp.start();
  run_slices(exp, opt, TimePoint::zero() + Duration::seconds(600.0), r,
             [&] { return pinger.pongs_received() >= pings; });
  phase.finish();

  const auto& rtts = pinger.rtts_ms();
  r.attempted = pings;
  r.failed = pings - std::min(pings, pinger.pongs_received());
  r.msgs = pinger.pongs_received() + ponger.pongs_sent();
  r.payload_bytes = exp.network_a().net_stats().bytes_received +
                    exp.network_b().net_stats().bytes_received;
  r.sim["rtt_p50_ms"] = exact(rtts.empty() ? 0.0 : rtts.median());
  r.sim["rtt_p98_ms"] = exact(rtts.empty() ? 0.0 : rtts.percentile(98));
  r.sim["pongs"] = exact(pinger.pongs_received());
  read_two_node_counts(exp, r);
  // Messages plus one timer event per ping.
  r.counts["kompics.events"] = r.counts["messaging.msgs_sent"] +
                               r.counts["messaging.msgs_received"] +
                               static_cast<double>(pinger.pings_sent());
  r.counts["apps.payload_kib"] = 0.0;
}

/// The shard-soak gossip configuration, with churn and without chaos.
apps::GossipConfig soak_gossip_config() {
  apps::GossipConfig cfg;
  cfg.run_for = Duration::seconds(6.0);
  cfg.heartbeat_period = Duration::millis(1000);
  cfg.suspect_timeout = Duration::millis(2200);
  cfg.dead_timeout = Duration::millis(3000);
  cfg.rumors = 64;
  cfg.rumor_window = Duration::seconds(2.0);
  cfg.fanout = 5;
  cfg.churn_events = 200;
  cfg.churn_from = Duration::millis(500);
  cfg.churn_to = Duration::seconds(4.0);
  cfg.churn_down_for = Duration::seconds(3.5);
  return cfg;
}

void gossip_sharded(std::uint64_t seed, const RepOptions& opt, RepResult& r) {
  const double t0 = wall_now_s();
  netsim::StarOfRegionsConfig topo;
  topo.regions = opt.tiny ? kGossipRegionsTiny : kGossipRegions;
  topo.hosts_per_region = 8;
  const netsim::TopologySpec spec = netsim::make_star_of_regions(topo, seed);
  sim::ShardedSimulator ssim(kGossipShards);
  netsim::Network net(ssim, seed);
  netsim::build_topology(spec, net);
  net.finalize_shards();
  apps::GossipConfig gcfg = soak_gossip_config();
  if (opt.tiny) gcfg.churn_events = 20;
  apps::GossipOverlay overlay(net, gcfg, seed);
  overlay.start();
  r.setup_s = wall_now_s() - t0;

  const TimePoint first_bound =
      TimePoint::from_nanos(Duration::millis(250).as_nanos());
  TimedPhase phase(r);
  if (opt.trace_slices) {
    // The same horizon waves run_to_quiescence() makes, one span each.
    std::int64_t bound = first_bound.as_nanos();
    while (!ssim.idle()) {
      const double w0 = wall_now_s();
      ssim.run_until(TimePoint::from_nanos(bound), opt.threads);
      r.slice_ms.push_back((wall_now_s() - w0) * 1e3);
      r.slice_pending.push_back(static_cast<double>(ssim.pending()));
      bound *= 2;
    }
  } else {
    ssim.run_to_quiescence(first_bound, opt.threads);
  }
  phase.finish();

  const apps::GossipStats s = overlay.stats();
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, overlay.fingerprint());
  r.attempted = 1;
  r.failed = ssim.idle() ? 0 : 1;
  r.sim["fingerprint"] = fp;
  r.sim["heartbeats_sent"] = exact(s.heartbeats_sent);
  r.sim["heartbeats_received"] = exact(s.heartbeats_received);
  r.sim["rumors_forwarded"] = exact(s.rumors_forwarded);
  r.sim["rumor_deliveries"] = exact(s.rumor_deliveries);
  r.sim["suspects"] = exact(s.suspects);
  r.sim["deaths"] = exact(s.deaths);
  r.sim["recoveries"] = exact(s.recoveries);
  r.sim["stops"] = exact(s.stops);
  r.sim["rejoins"] = exact(s.rejoins);
  r.counts["sim.events"] = static_cast<double>(ssim.executed());
  set_mix(apps::ExperimentConfig{}, false, Transport::kTcp, r);
  read_link_counts(net, r);
  r.msgs = static_cast<std::uint64_t>(r.counts["netsim.datagrams_delivered"]);
  r.payload_bytes = static_cast<std::uint64_t>(r.counts["netsim.bytes_delivered"]);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kBulkTcp, Workload::kAdaptiveWan,
                     Workload::kSmallMsgs, Workload::kGossipSharded}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kBulkTcp: return "bulk_tcp";
    case Workload::kAdaptiveWan: return "adaptive_wan";
    case Workload::kSmallMsgs: return "small_msgs";
    case Workload::kGossipSharded: return "gossip_sharded";
  }
  return "?";
}

RepResult run_rep(Workload w, std::uint64_t seed, const RepOptions& opt,
                  StderrCapture& capture) {
  // Hand the previous repetition's freed heap back to the kernel, so every
  // repetition starts from the same allocator state and its minor faults
  // count the memory it touches rather than what an earlier one left behind.
  malloc_trim(0);
  RepResult r;
  capture.begin();
  const std::uint64_t faults0 = usage_now().minor_faults;
  switch (w) {
    case Workload::kBulkTcp: bulk_tcp(seed, opt, r); break;
    case Workload::kAdaptiveWan: adaptive_wan(seed, opt, r); break;
    case Workload::kSmallMsgs: small_msgs(seed, opt, r); break;
    case Workload::kGossipSharded: gossip_sharded(seed, opt, r); break;
  }
  r.minor_faults = usage_now().minor_faults - faults0;
  r.log_lines = capture.end();
  return r;
}

}  // namespace perfbench
