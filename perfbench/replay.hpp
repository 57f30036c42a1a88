// The traced run's per-operation costs: each layer's public API replayed in
// isolation with the mix of operations a repetition of the workload made
// (message sizes, datagram sizes, pending events, transports, buffer sizes,
// path), timed from the benchmark's side.
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct Replays {
  struct Value {
    double value = 0.0;
    const char* unit = "";
  };
  /// Per-layer metrics by name (the *_ns, *_per_* and conn_open_faults rows).
  std::map<std::string, Value> metrics;
  /// Self costs for the attribution table: each replay's time minus what its
  /// nested layers account for (netsim minus sim events; transport minus sim
  /// events and datagrams).
  double netsim_self_ns = 0.0;
  double tcp_self_ns_per_kib = 0.0;
  double udt_self_ns_per_kib = 0.0;

  double at(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.value;
  }
};

Replays run_replays(const Mix& mix, bool tiny);

}  // namespace perfbench
