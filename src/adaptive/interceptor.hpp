// The data-network-interceptor component (paper §IV-A).
//
// Sits between message producers and the NetworkComponent. Messages whose
// DataHeader still carries the pseudo-protocol Transport::DATA are queued
// per destination and released to the network layer at an adaptive rate
// (bounded in-flight bytes, re-opened by acknowledgement progress reported
// in NetworkStatus), with the concrete transport — TCP or UDT — stamped by
// the flow's Protocol Selection Policy. The target ratio the PSP chases is
// re-computed every learning episode by the flow's Protocol Ratio Policy
// from observed throughput (and optionally latency) statistics.
//
// Everything else (control traffic, already-resolved messages, inbound
// indications, delivery notifications) passes straight through, so the
// interceptor is transparent to non-DATA users of the port.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "adaptive/prp.hpp"
#include "adaptive/psp.hpp"
#include "kompics/system.hpp"
#include "messaging/network_component.hpp"

namespace kmsg::adaptive {

struct DataNetworkConfig {
  Duration episode_length = Duration::seconds(1.0);
  /// In-flight (unacknowledged + queued-in-transport) byte budget per flow;
  /// the adaptive release rate in the paper's terms.
  std::size_t inflight_window_bytes = 6 * 1024 * 1024;
  PspKind psp_kind = PspKind::kPattern;
  PrpKind prp_kind = PrpKind::kTdQuadApprox;
  double initial_prob_udt = 0.5;
  /// Full learner override; when set, prp_kind must be a TD kind.
  std::optional<TDRatioConfig> td_config;
  double static_prob_udt = 0.5;  ///< used with PrpKind::kStatic
  std::uint64_t seed = 7;
  /// Transport fallback: when the supervision layer reports a flow peer's
  /// TCP or UDT channel Dead, DATA traffic is pinned to the survivor and the
  /// dead transport blacklisted until probation expires (or the channel
  /// reports healthy again, whichever comes first).
  Duration fallback_probation = Duration::seconds(5.0);
};

class DataInterceptor final : public kompics::ComponentDefinition {
 public:
  explicit DataInterceptor(DataNetworkConfig config) : config_(std::move(config)) {}
  ~DataInterceptor() override;

  void setup() override;

  /// Consumer-facing provided Network port.
  kompics::PortInstance& consumer_port() { return *up_; }
  /// Required Network port; connect to the NetworkComponent's provided port.
  kompics::PortInstance& network_port() { return *down_; }

  struct FlowSnapshot {
    messaging::Address peer;
    double target_prob_udt = 0.5;
    double effective_prob_udt = 0.5;  ///< after blacklist pinning
    double epsilon = 0.0;  ///< 0 for non-TD policies
    double last_throughput_bps = 0.0;
    std::uint64_t released_tcp = 0;  ///< totals since flow start
    std::uint64_t released_udt = 0;
    std::size_t queued_messages = 0;
    std::uint64_t inflight_estimate = 0;
    std::uint64_t episodes = 0;
    bool tcp_blacklisted = false;
    bool udt_blacklisted = false;
    bool peer_dead = false;
  };
  std::vector<FlowSnapshot> flows() const;

 private:
  struct Flow {
    messaging::Address peer;
    std::unique_ptr<ProtocolSelectionPolicy> psp;
    std::unique_ptr<ProtocolRatioPolicy> prp;
    double target_prob = 0.5;
    std::deque<std::pair<messaging::MsgPtr, std::optional<messaging::NotifyId>>> queue;

    // In-flight estimate: transport-reported backlog at the last status
    // tick plus everything released since.
    std::uint64_t base_unacked = 0;
    std::uint64_t released_since_status = 0;

    // Episode accounting.
    std::uint64_t last_status_acked = 0;   // latest absolute acked sum
    std::uint64_t episode_start_acked = 0;
    std::uint64_t ep_released = 0;
    std::uint64_t total_tcp = 0;
    std::uint64_t total_udt = 0;
    std::uint64_t episodes = 0;
    double last_throughput = 0.0;
    kompics::TimerHandle episode_cancel;

    // Transport fallback (driven by ConnectionStatus indications).
    struct Blacklist {
      bool active = false;
      kompics::TimerHandle expire;  // probation timer
    };
    Blacklist black_tcp;
    Blacklist black_udt;
    double effective_prob = 0.5;  // target_prob after blacklist pinning
    /// Peer declared Dead at peer scope: hold the queue (releasing would
    /// only manufacture PeerFailed notifies) until it recovers.
    bool peer_dead = false;
  };

  void on_outgoing(messaging::MsgPtr msg,
                   std::optional<messaging::NotifyId> notify);
  Flow& flow_for(const messaging::Address& peer);
  void pump(Flow& flow);
  void release_one(Flow& flow);
  void on_status(const messaging::NetworkStatus& status);
  void on_connection_status(const messaging::ConnectionStatus& cs);
  /// Recomputes the PSP's executing ratio and the PRP's bounds from the
  /// learner target and the current blacklist set.
  void apply_ratio(Flow& flow);
  void blacklist_transport(Flow& flow, messaging::Transport t);
  void clear_blacklist(Flow& flow, messaging::Transport t);
  void episode_end(Flow& flow);
  std::uint64_t inflight_estimate(const Flow& flow) const {
    return flow.base_unacked + flow.released_since_status;
  }

  DataNetworkConfig config_;
  Rng rng_{7};
  kompics::PortInstance* up_ = nullptr;    // provided (consumer side)
  kompics::PortInstance* down_ = nullptr;  // required (network side)
  std::map<messaging::Address, std::unique_ptr<Flow>> flows_;
};

}  // namespace kmsg::adaptive
