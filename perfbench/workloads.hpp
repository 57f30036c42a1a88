// The benchmark's four workloads, each a fixed amount of simulated work run
// through the library's public API. One call to run_rep() builds a fresh
// world (timed as set-up), runs it to completion (the timed phase), checks
// every operation, and reads the layers' public stats.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "capture.hpp"
#include "messaging/transport.hpp"
#include "netsim/topology.hpp"

namespace perfbench {

enum class Workload { kBulkTcp, kAdaptiveWan, kSmallMsgs, kGossipSharded };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);

/// The operation mix a repetition put through the layers; the traced run's
/// replays reproduce it. The configuration fields are the ones the workload
/// built its world with. gossip_sharded opens no stream, so its transport
/// fields are the library defaults on EU-VPC.
struct Mix {
  bool bulk = false;  ///< 65 kB chunks, else small control messages
  kmsg::messaging::Transport primary = kmsg::messaging::Transport::kTcp;
  kmsg::netsim::Setup setup = kmsg::netsim::Setup::kEuVpc;
  std::size_t udt_buffer_bytes = 0;
  /// Measured: bytes per datagram the links delivered.
  double datagram_bytes = 0.0;
  /// Measured: median events pending in the simulator at the end of each
  /// traced slice (filled in from the traced repetitions).
  double pending_events = 0.0;
};

struct RepOptions {
  /// Time every simulated slice of the run separately (the traced run's
  /// spans); the untraced run makes the same calls without reading the
  /// clock between them.
  bool trace_slices = false;
  /// Shrinks the simulated work for the self-tests.
  bool tiny = false;
  /// Worker threads for the sharded engine (gossip_sharded only); 1 runs
  /// the shards round-robin on the calling thread.
  unsigned threads = 1;
};

struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Minor faults of the whole repetition, set-up included: the gossip
  /// world takes its memory while it is built and almost none afterwards.
  std::uint64_t minor_faults = 0;
  std::uint64_t allocs = 0;
  std::uint64_t log_lines = 0;
  /// Application messages delivered: chunks, pings + pongs, or gossip
  /// datagrams received.
  std::uint64_t msgs = 0;
  /// Application bytes delivered: chunk payloads, serialised ping/pong
  /// bytes, or gossip datagram bytes.
  std::uint64_t payload_bytes = 0;
  /// Operations (chunks, pings, or gossip runs) attempted and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Simulated results, formatted exactly; compared against the recorded
  /// golden values and across repetitions of one seed.
  std::map<std::string, std::string> sim;
  /// Per-layer counts read from public stats after the run.
  std::map<std::string, double> counts;
  /// Wall milliseconds of each simulated slice, and the events pending in
  /// the simulator after it (trace_slices only).
  std::vector<double> slice_ms;
  std::vector<double> slice_pending;
  Mix mix;
};

/// Runs one repetition of `w` with inputs derived from `seed`. Library
/// output on fd 2 during the rep goes to `capture`.
RepResult run_rep(Workload w, std::uint64_t seed, const RepOptions& opt,
                  StderrCapture& capture);

}  // namespace perfbench
