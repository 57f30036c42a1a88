#include "adaptive/interceptor.hpp"

#include "common/logging.hpp"

namespace kmsg::adaptive {

using messaging::Address;
using messaging::DataHeader;
using messaging::DataMsg;
using messaging::Msg;
using messaging::MsgPtr;
using messaging::Transport;

DataInterceptor::~DataInterceptor() {
  for (auto& [peer, flow] : flows_) {
    flow->episode_cancel.cancel();
    flow->black_tcp.expire.cancel();
    flow->black_udt.expire.cancel();
  }
}

void DataInterceptor::setup() {
  rng_ = Rng{config_.seed};
  up_ = &provides<messaging::Network>();
  down_ = &require<messaging::Network>();

  // Consumer-side requests.
  subscribe_ptr<Msg>(*up_, [this](MsgPtr m) { on_outgoing(std::move(m), {}); });
  subscribe_ptr<messaging::MessageNotifyReq>(
      *up_, [this](kompics::EventRef<messaging::MessageNotifyReq> req) {
        on_outgoing(req->msg, req->id);
      });

  // Network-side indications: pass everything up; mine NetworkStatus for
  // acknowledgement progress.
  subscribe_ptr<Msg>(*down_, [this](MsgPtr m) { trigger(std::move(m), *up_); });
  subscribe_ptr<messaging::MessageNotifyResp>(
      *down_, [this](kompics::EventRef<messaging::MessageNotifyResp> resp) {
        trigger(std::move(resp), *up_);
      });
  subscribe_ptr<messaging::NetworkStatus>(
      *down_, [this](kompics::EventRef<messaging::NetworkStatus> status) {
        on_status(*status);
        trigger(std::move(status), *up_);
      });
  subscribe_ptr<messaging::ConnectionStatus>(
      *down_, [this](kompics::EventRef<messaging::ConnectionStatus> cs) {
        on_connection_status(*cs);
        trigger(std::move(cs), *up_);
      });
}

void DataInterceptor::on_outgoing(MsgPtr msg,
                                  std::optional<messaging::NotifyId> notify) {
  const auto* dh = dynamic_cast<const DataHeader*>(&msg->header());
  const auto* dm = dynamic_cast<const DataMsg*>(msg.get());
  const bool intercept = dh != nullptr && !dh->resolved() && dm != nullptr;
  if (!intercept) {
    // Transparent passthrough for non-DATA traffic.
    if (notify) {
      trigger(kompics::make_event<messaging::MessageNotifyReq>(std::move(msg),
                                                               *notify),
              *down_);
    } else {
      trigger(std::move(msg), *down_);
    }
    return;
  }

  Flow& flow = flow_for(msg->header().destination().with_vnode(0));
  flow.queue.emplace_back(std::move(msg), notify);
  pump(flow);
}

DataInterceptor::Flow& DataInterceptor::flow_for(const Address& peer) {
  if (auto it = flows_.find(peer); it != flows_.end()) return *it->second;

  auto flow = std::make_unique<Flow>();
  flow->peer = peer;
  flow->psp = make_psp(config_.psp_kind, rng_.split());
  if (config_.td_config) {
    flow->prp = std::make_unique<TDRatioLearner>(*config_.td_config, rng_.split());
  } else {
    flow->prp = make_prp(config_.prp_kind, config_.static_prob_udt, rng_.split());
  }
  flow->target_prob = flow->prp->begin(config_.initial_prob_udt);
  flow->psp->set_ratio(flow->target_prob);

  flow->effective_prob = flow->target_prob;

  Flow& ref = *flow;
  flows_.emplace(peer, std::move(flow));

  Flow* raw = &ref;
  ref.episode_cancel = system().scheduler().schedule_delayed(
      config_.episode_length, [this, raw] { episode_end(*raw); });
  return ref;
}

void DataInterceptor::apply_ratio(Flow& flow) {
  double effective = flow.target_prob;
  double lo = 0.0;
  double hi = 1.0;
  if (flow.black_udt.active && !flow.black_tcp.active) {
    effective = 0.0;
    hi = 0.0;
  } else if (flow.black_tcp.active && !flow.black_udt.active) {
    effective = 1.0;
    lo = 1.0;
  }
  // Both blacklisted: no usable transport — the peer itself is (about to
  // be) Dead and pump() is holding the queue, so the ratio is moot.
  flow.effective_prob = effective;
  flow.prp->set_bounds(lo, hi);
  flow.psp->set_ratio(effective);
}

void DataInterceptor::blacklist_transport(Flow& flow, Transport t) {
  Flow::Blacklist& b = t == Transport::kUdt ? flow.black_udt : flow.black_tcp;
  b.expire.cancel();
  b.active = true;
  Flow* raw = &flow;
  b.expire = system().scheduler().schedule_delayed(
      config_.fallback_probation, [this, raw, t] {
        // Probation over: let the transport compete again. If the channel is
        // still dead the next ConnectionStatus re-blacklists it.
        clear_blacklist(*raw, t);
      });
  apply_ratio(flow);
}

void DataInterceptor::clear_blacklist(Flow& flow, Transport t) {
  Flow::Blacklist& b = t == Transport::kUdt ? flow.black_udt : flow.black_tcp;
  if (!b.active) return;
  b.expire.cancel();
  b.active = false;
  apply_ratio(flow);
  pump(flow);
}

void DataInterceptor::on_connection_status(
    const messaging::ConnectionStatus& cs) {
  auto it = flows_.find(cs.peer.with_vnode(0));
  if (it == flows_.end()) return;
  Flow& flow = *it->second;

  if (!cs.transport) {
    // Peer-scope transition.
    if (cs.new_state == messaging::PeerHealth::kDead) {
      flow.peer_dead = true;
    } else if (flow.peer_dead) {
      flow.peer_dead = false;
      pump(flow);
    }
    return;
  }

  // Channel-scope transition for one of the DATA transports.
  const Transport t = *cs.transport;
  if (t != Transport::kTcp && t != Transport::kUdt) return;
  if (cs.new_state == messaging::PeerHealth::kDead) {
    KMSG_INFO("interceptor")
        << "channel " << to_string(t) << " to " << cs.peer.to_string()
        << " dead (" << to_string(cs.reason) << "); pinning DATA to survivor";
    blacklist_transport(flow, t);
  } else if (cs.new_state == messaging::PeerHealth::kHealthy) {
    clear_blacklist(flow, t);
  }
}

void DataInterceptor::release_one(Flow& flow) {
  auto [msg, notify] = std::move(flow.queue.front());
  flow.queue.pop_front();

  const auto& dm = dynamic_cast<const DataMsg&>(*msg);
  const Transport t = flow.psp->next();
  MsgPtr resolved = dm.with_protocol(t);
  const std::size_t sz = dm.payload_size();

  flow.released_since_status += sz;
  ++flow.ep_released;
  if (t == Transport::kUdt) {
    ++flow.total_udt;
  } else {
    ++flow.total_tcp;
  }

  if (notify) {
    trigger(kompics::make_event<messaging::MessageNotifyReq>(std::move(resolved),
                                                             *notify),
            *down_);
  } else {
    trigger(std::move(resolved), *down_);
  }
}

void DataInterceptor::pump(Flow& flow) {
  if (flow.peer_dead) return;
  while (!flow.queue.empty() &&
         inflight_estimate(flow) < config_.inflight_window_bytes) {
    release_one(flow);
  }
}

void DataInterceptor::on_status(const messaging::NetworkStatus& status) {
  // Aggregate transport progress per flow peer over TCP and UDT sessions.
  for (auto& [peer, flow] : flows_) {
    std::uint64_t unacked = 0;
    std::uint64_t acked = 0;
    bool any = false;
    for (const auto& s : status.sessions) {
      if (!(s.peer == peer)) continue;
      if (s.transport != Transport::kTcp && s.transport != Transport::kUdt) continue;
      unacked += s.bytes_unacked;
      acked += s.bytes_acked;
      any = true;
    }
    if (!any) continue;
    flow->base_unacked = unacked;
    flow->released_since_status = 0;
    flow->last_status_acked = acked;
    pump(*flow);
  }
}

void DataInterceptor::episode_end(Flow& flow) {
  EpisodeStats stats;
  stats.length = config_.episode_length;
  stats.bytes_acked = flow.last_status_acked >= flow.episode_start_acked
                          ? flow.last_status_acked - flow.episode_start_acked
                          : 0;
  stats.messages_released = flow.ep_released;
  stats.throughput_bps =
      static_cast<double>(stats.bytes_acked) / stats.length.as_seconds();

  flow.last_throughput = stats.throughput_bps;
  flow.episode_start_acked = flow.last_status_acked;
  flow.ep_released = 0;
  ++flow.episodes;

  flow.target_prob = flow.prp->update(stats);
  apply_ratio(flow);
  pump(flow);

  Flow* raw = &flow;
  flow.episode_cancel = system().scheduler().schedule_delayed(
      config_.episode_length, [this, raw] { episode_end(*raw); });
}

std::vector<DataInterceptor::FlowSnapshot> DataInterceptor::flows() const {
  std::vector<FlowSnapshot> out;
  out.reserve(flows_.size());
  for (const auto& [peer, f] : flows_) {
    FlowSnapshot s;
    s.peer = f->peer;
    s.target_prob_udt = f->target_prob;
    s.effective_prob_udt = f->effective_prob;
    s.tcp_blacklisted = f->black_tcp.active;
    s.udt_blacklisted = f->black_udt.active;
    s.peer_dead = f->peer_dead;
    if (const auto* td = dynamic_cast<const TDRatioLearner*>(f->prp.get())) {
      s.epsilon = td->epsilon();
    }
    s.last_throughput_bps = f->last_throughput;
    s.released_tcp = f->total_tcp;
    s.released_udt = f->total_udt;
    s.queued_messages = f->queue.size();
    s.inflight_estimate = f->base_unacked + f->released_since_status;
    s.episodes = f->episodes;
    out.push_back(s);
  }
  return out;
}

}  // namespace kmsg::adaptive
