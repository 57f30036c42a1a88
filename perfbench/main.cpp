// perfbench: runs one workload of the benchmark and prints a report as its
// last stdout line (one JSON object). run.py builds this binary, compares
// the reported simulated results with the recorded golden values and prints
// the benchmark's result line. See README.md for the metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--golden-seeds a,b] [--tiny]
//   perfbench --selftest-stderr <lines>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "capture.hpp"
#include "common/logging.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Repetitions a run makes at least, however long each one takes.
constexpr int kMinReps = 3;
/// Untraced and traced repetitions of the traced run.
constexpr int kTraceReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::vector<std::uint64_t> golden_seeds;
  bool tiny = false;
  long selftest_stderr = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--tiny") {
      a.tiny = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--golden-seeds") {
      const std::string list = argv[++i];
      std::size_t at = 0;
      while (at < list.size()) {
        const std::size_t comma = list.find(',', at);
        const std::string item =
            list.substr(at, comma == std::string::npos ? std::string::npos : comma - at);
        if (!item.empty()) a.golden_seeds.push_back(std::strtoull(item.c_str(), nullptr, 10));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (k == "--selftest-stderr") {
      a.selftest_stderr = std::atol(argv[++i]);
    } else {
      return false;
    }
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();  // drop the NUL padding
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string stamp_json(unsigned threads) {
  std::string s = "{";
  s += "\"num_cpus\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"cpu_model\": " + json_string(cpu_model());
  s += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  s += ", \"asserts\": \"off\"";
#else
  s += ", \"asserts\": \"on\"";
#endif
  s += ", \"sanitizer\": " + json_string(sanitizer());
  s += ", \"sharded_threads\": " + std::to_string(threads);
  return s + "}";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string sim_json(const std::map<std::string, std::string>& sim) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : sim) {
    if (!first) s += ", ";
    first = false;
    s += json_string(k) + ": " + json_string(v);
  }
  return s + "}";
}

/// Collects what every run reports besides its metrics: operations, the
/// simulated results per seed, and whether repetitions of one seed agreed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::map<std::uint64_t, std::map<std::string, std::string>> sim_by_seed;

  void add(std::uint64_t seed, const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    auto [it, fresh] = sim_by_seed.emplace(seed, r.sim);
    if (!fresh && it->second != r.sim) {
      deterministic = false;
      failed += r.attempted;
    }
  }
};

/// count x replayed per-op cost, per layer, as a share of wall_s.
struct Attribution {
  struct Row {
    const char* layer;
    double count;
    const char* what;
    double ns_per;
    double share;
  };
  std::vector<Row> rows;
  double unattributed = 1.0;
};

Attribution attribute(const RepResult& r, const Replays& rp,
                      double wall_s) {
  const auto& c = r.counts;
  const auto at = [](const std::map<std::string, double>& mp, const char* k) {
    const auto it = mp.find(k);
    return it == mp.end() ? 0.0 : it->second;
  };
  // Frames and messages split into 65 kB chunks (from the payload
  // delivered) and small control messages (the rest).
  const double msgs = at(c, "messaging.msgs_sent");
  const double overflow = at(c, "messaging.queue_overflow");
  const double payload_kib = at(c, "apps.payload_kib");
  const double overflow_kib = overflow * 65000.0 / 1024.0;
  const double chunks = std::min(msgs, payload_kib * 1024.0 / 65000.0);
  const auto per_msg = [&](const char* prefix) {
    const double big = rp.at(std::string(prefix) + "64k");
    const double small = rp.at(std::string(prefix) + "small");
    return msgs > 0 ? (chunks * big + (msgs - chunks) * small) / msgs : 0.0;
  };

  // Stream KiB split between TCP and UDT in the ratio the interceptor
  // released chunks (all TCP without the interceptor).
  const double released = at(c, "adaptive.released_tcp") + at(c, "adaptive.released_udt");
  const double udt_frac = released > 0 ? at(c, "adaptive.released_udt") / released : 0.0;
  const double transport_ns_per_kib =
      (1.0 - udt_frac) * rp.tcp_self_ns_per_kib + udt_frac * rp.udt_self_ns_per_kib;
  const double episodes = at(c, "adaptive.episodes");
  const double prp_self = std::max(0.0, rp.at("adaptive.prp_update_ns") -
                                            rp.at("rl.sarsa_step_ns"));

  Attribution a;
  a.rows = {
      {"sim", at(c, "sim.events"), "events", rp.at("sim.ns_per_event"), 0},
      {"kompics", at(c, "kompics.events"), "events", rp.at("kompics.dispatch_ns"), 0},
      {"netsim", at(c, "netsim.datagrams"), "datagrams", rp.netsim_self_ns, 0},
      {"transport", at(c, "messaging.wire_bytes_sent") / 1024.0, "KiB",
       transport_ns_per_kib, 0},
      {"wire", msgs, "frames",
       per_msg("wire.frame_encode_ns_") + per_msg("wire.frame_decode_ns_"), 0},
      // A chunk dropped at the session queue cap was generated and
      // serialised before the drop, and is generated again for its retry.
      {"messaging", msgs + overflow, "msgs",
       (msgs * (per_msg("messaging.serialize_ns_") + per_msg("messaging.deserialize_ns_")) +
        overflow * rp.at("messaging.serialize_ns_64k")) /
           std::max(1.0, msgs + overflow),
       0},
      {"adaptive", released, "releases",
       rp.at("adaptive.psp_next_ns") + (released > 0 ? episodes * prp_self / released : 0.0),
       0},
      {"rl", episodes, "episodes", rp.at("rl.sarsa_step_ns"), 0},
      {"apps", payload_kib + overflow_kib, "KiB",
       (payload_kib * (rp.at("apps.payload_gen_ns_per_kib") +
                       rp.at("apps.payload_verify_ns_per_kib")) +
        overflow_kib * rp.at("apps.payload_gen_ns_per_kib")) /
           std::max(1.0, payload_kib + overflow_kib),
       0},
  };
  for (auto& row : a.rows) {
    row.share = wall_s > 0 ? row.count * row.ns_per / 1e9 / wall_s : 0.0;
    a.unattributed -= row.share;
  }
  return a;
}

void print_attribution(Workload w, const Attribution& a, double wall_s,
                       double overhead) {
  std::printf("attribution of wall_s = %.4f s on %s (count x replayed cost per op)\n",
              wall_s, to_string(w));
  std::printf("  %-13s %14s %-10s %12s %9s\n", "layer", "count", "unit", "ns/unit",
              "share");
  for (const auto& row : a.rows) {
    std::printf("  %-13s %14.0f %-10s %12.1f %8.1f%%\n", row.layer, row.count,
                row.what, row.ns_per, 100.0 * row.share);
  }
  std::printf("  %-13s %14s %-10s %12s %8.1f%%\n", "unattributed", "", "", "",
              100.0 * a.unattributed);
  std::printf("  trace.overhead = %.4f (traced / untraced wall_s)\n", overhead);
}

int selftest_stderr(long lines) {
  StderrCapture cap(3);
  kmsg::Logger::set_level(kmsg::LogLevel::kWarn);
  cap.begin();
  for (long i = 0; i < lines; ++i) KMSG_WARN("selftest") << "line " << i;
  const std::uint64_t counted = cap.end();
  cap.print_summary("selftest");
  std::printf("{\"counted\": %llu, \"sample\": %zu}\n",
              static_cast<unsigned long long>(counted), cap.sample().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  if (args.selftest_stderr >= 0) return selftest_stderr(args.selftest_stderr);
  const auto w = parse_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // The timed repetitions run the sharded engine round-robin on one thread:
  // with a worker thread per shard, the wall time of one seed on a shared
  // 4-CPU host ranged over 0.5-1.9 s from run to run, too wide for any
  // bound. The traced run reports the threaded engine's speedup instead.
  const unsigned threaded = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  RepOptions opt;
  opt.tiny = args.tiny;
  opt.threads = 1;

  StderrCapture capture;
  Ledger ledger;
  // Golden seeds first: their results are checked against the recorded
  // values, and the repetitions warm the allocator and caches.
  for (const std::uint64_t s : args.golden_seeds) {
    ledger.add(s, run_rep(*w, s, opt, capture));
  }

  std::vector<Metric> metrics;
  std::uint64_t reps = 0;
  if (args.trace == 0) {
    std::vector<double> setup, wall, msgs_ps, mib_ps, cpu, faults, allocs;
    const double start = wall_now_s();
    while (reps < static_cast<std::uint64_t>(kMinReps) ||
           wall_now_s() - start < args.seconds) {
      const RepResult r = run_rep(*w, args.seed, opt, capture);
      ledger.add(args.seed, r);
      ++reps;
      setup.push_back(r.setup_s);
      wall.push_back(r.wall_s);
      msgs_ps.push_back(static_cast<double>(r.msgs) / r.wall_s);
      mib_ps.push_back(static_cast<double>(r.payload_bytes) / (1024.0 * 1024.0) / r.wall_s);
      cpu.push_back(r.cpu_s);
      faults.push_back(static_cast<double>(r.minor_faults));
      allocs.push_back(static_cast<double>(r.allocs));
    }
    // Every repetition does the same work (its simulated results are checked
    // to be identical), so a slower one was slowed by other tenants of the
    // host, in phases of seconds to tens of seconds. Times come from the
    // fastest repetition: over ten runs of bulk_tcp on a shared 4-CPU host
    // the IQR of wall_s was 0.09 of the median, against 0.25-0.31 for the
    // median repetition, and that of setup_s 0.07 against 0.21.
    const auto fastest = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    const auto highest = [](const std::vector<double>& v) {
      return *std::max_element(v.begin(), v.end());
    };
    metrics = {
        {"setup_s", fastest(setup), "s"},
        {"wall_s", fastest(wall), "s"},
        {"msgs_per_s", highest(msgs_ps), "1/s"},
        {"payload_mib_per_s", highest(mib_ps), "MiB/s"},
        {"cpu_s", fastest(cpu), "s"},
        {"peak_rss_mib", usage_now().peak_rss_mib, "MiB"},
        {"minor_faults", median(faults), "count"},
        {"allocs", median(allocs), "count"},
    };
  } else {
    const int n = args.tiny ? 1 : kTraceReps;
    std::vector<double> wall_u, wall_t, cpu_per_wall, slices, pending, logs;
    RepResult last;
    for (int i = 0; i < n; ++i) {
      last = run_rep(*w, args.seed, opt, capture);
      ledger.add(args.seed, last);
      wall_u.push_back(last.wall_s);
      cpu_per_wall.push_back(last.cpu_s / last.wall_s);
      logs.push_back(static_cast<double>(last.log_lines));
      RepOptions traced = opt;
      traced.trace_slices = true;
      const RepResult t = run_rep(*w, args.seed, traced, capture);
      ledger.add(args.seed, t);
      wall_t.push_back(t.wall_s);
      slices.insert(slices.end(), t.slice_ms.begin(), t.slice_ms.end());
      pending.insert(pending.end(), t.slice_pending.begin(), t.slice_pending.end());
      reps += 2;
    }
    double speedup = 1.0;  // one simulator thread: nothing to speed up
    double cpu_ratio = median(cpu_per_wall);
    if (*w == Workload::kGossipSharded) {
      RepOptions parallel = opt;
      parallel.threads = threaded;
      std::vector<double> wall_p, cpu_p;
      for (int i = 0; i < n; ++i) {
        const RepResult p = run_rep(*w, args.seed, parallel, capture);
        ledger.add(args.seed, p);
        ++reps;
        wall_p.push_back(p.wall_s);
        cpu_p.push_back(p.cpu_s / p.wall_s);
      }
      speedup = median(wall_u) / median(wall_p);
      cpu_ratio = median(cpu_p);
    }
    const double wall_s = median(wall_u);
    const double overhead = median(wall_t) / wall_s;
    Mix mix = last.mix;
    mix.pending_events = median(pending);
    std::printf("replay mix: %s chunks, %s stream, UDT buffers %zu B, %.1f B per datagram, "
                "%.0f events pending\n",
                mix.bulk ? "65 kB" : "small", kmsg::messaging::to_string(mix.primary),
                mix.udt_buffer_bytes, mix.datagram_bytes, mix.pending_events);
    const Replays rp = run_replays(mix, args.tiny);
    const auto count = [&](const char* k) {
      const auto it = last.counts.find(k);
      return it == last.counts.end() ? 0.0 : it->second;
    };
    const double payload_mib = count("apps.payload_kib") / 1024.0;

    metrics = {
        {"sim.events", count("sim.events"), "count"},
        {"sim.slice_ms_p50", percentile(slices, 50), "ms"},
        {"sim.slice_ms_p90", percentile(slices, 90), "ms"},
        {"sim.sharded_speedup", speedup, "x"},
        {"sim.sharded_cpu_per_wall", cpu_ratio, "x"},
        {"netsim.datagrams", count("netsim.datagrams"), "count"},
        {"netsim.drops_queue_full", count("netsim.drops_queue_full"), "count"},
        {"netsim.drops_policer", count("netsim.drops_policer"), "count"},
        {"wire.slabs_created", count("wire.slabs_created"), "count"},
        {"wire.slabs_recycled", count("wire.slabs_recycled"), "count"},
        {"wire.payload_bytes_copied", count("wire.payload_bytes_copied"), "bytes"},
        {"messaging.queue_overflow", count("messaging.queue_overflow"), "count"},
        {"messaging.overflow_per_mib",
         payload_mib > 0 ? count("messaging.queue_overflow") / payload_mib : 0.0,
         "1/MiB"},
        {"messaging.msgs_sent", count("messaging.msgs_sent"), "count"},
        {"messaging.wire_bytes_sent", count("messaging.wire_bytes_sent"), "bytes"},
        {"messaging.session_reconnects", count("messaging.session_reconnects"), "count"},
        {"adaptive.episodes", count("adaptive.episodes"), "count"},
        {"adaptive.released_tcp", count("adaptive.released_tcp"), "count"},
        {"adaptive.released_udt", count("adaptive.released_udt"), "count"},
        {"log_lines", median(logs), "count"},
        {"trace.overhead", overhead, "x"},
    };
    for (const auto& [k, v] : rp.metrics) metrics.push_back({k, v.value, v.unit});
    const Attribution a = attribute(last, rp, wall_s);
    print_attribution(*w, a, wall_s, overhead);
    for (const auto& row : a.rows) {
      metrics.push_back({std::string("attrib.") + row.layer + "_share", row.share, "ratio"});
    }
    metrics.push_back({"attrib.unattributed_share", a.unattributed, "ratio"});
  }
  capture.print_summary(to_string(*w));

  std::string out = "{\"workload\": " + json_string(to_string(*w));
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::to_string(args.trace);
  out += ", \"reps\": " + std::to_string(reps);
  out += ", \"stamp\": " + stamp_json(threaded);
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += std::string(", \"deterministic\": ") + (ledger.deterministic ? "true" : "false");
  out += ", \"log_lines\": " + std::to_string(capture.total_lines());

  out += ", \"sim\": {";
  bool first = true;
  for (const auto& [seed, sim] : ledger.sim_by_seed) {
    if (!first) out += ", ";
    first = false;
    out += json_string(std::to_string(seed)) + ": " + sim_json(sim);
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
