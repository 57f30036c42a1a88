#include "messaging/reliable.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace kmsg::messaging {

void register_reliable_serializers(SerializerRegistry& registry) {
  registry.register_type(
      kReliableEnvelopeTypeId,
      [](const Msg& m, wire::ByteBuf& buf) {
        const auto& e = dynamic_cast<const ReliableEnvelope&>(m);
        buf.write_varint(e.seq());
        buf.write_blob(e.payload().span());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const std::uint64_t seq = buf.read_varint();
        // Zero-copy: the payload stays a view of the inbound frame's slab.
        auto payload = buf.read_blob_slice();
        return kompics::make_event<ReliableEnvelope>(h, seq, std::move(payload));
      });
  registry.register_type(
      kReliableAckTypeId,
      [](const Msg& m, wire::ByteBuf& buf) {
        const auto& a = dynamic_cast<const ReliableAck&>(m);
        buf.write_varint(a.cumulative_seq());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        return kompics::make_event<ReliableAck>(h, buf.read_varint());
      });
}

ReliableChannel::~ReliableChannel() {
  for (auto& [peer, flow] : flows_) {
    for (auto& [seq, pending] : flow.pending) {
      pending.timer.cancel();
    }
  }
}

void ReliableChannel::setup() {
  up_ = &provides<Network>();
  down_ = &require<Network>();

  subscribe_ptr<Msg>(*up_, [this](MsgPtr m) { on_outgoing(std::move(m)); });
  subscribe_ptr<MessageNotifyReq>(
      *up_, [this](kompics::EventRef<MessageNotifyReq> req) {
        // Notification requests pass through unreliably-tracked (the
        // reliability layer's own acks supersede transport notifies).
        trigger(std::move(req), *down_);
      });

  subscribe_ptr<Msg>(*down_, [this](MsgPtr m) { on_incoming(std::move(m)); });
  subscribe_ptr<MessageNotifyResp>(
      *down_, [this](kompics::EventRef<MessageNotifyResp> resp) {
        trigger(std::move(resp), *up_);
      });
  subscribe_ptr<NetworkStatus>(
      *down_, [this](kompics::EventRef<NetworkStatus> status) {
        trigger(std::move(status), *up_);
      });
}

void ReliableChannel::on_outgoing(MsgPtr msg) {
  // Only envelope-wrap messages the registry can serialise and that are not
  // already reliability-layer traffic; everything else passes through.
  const auto tid = msg->type_id();
  if (tid == kReliableEnvelopeTypeId || tid == kReliableAckTypeId) {
    trigger(std::move(msg), *down_);
    return;
  }
  auto inner = registry_->serialize(*msg);
  if (!inner) {
    trigger(std::move(msg), *down_);  // not ours to manage
    return;
  }
  const Address peer = msg->header().destination().with_vnode(0);
  Flow& flow = flows_[peer];
  const std::uint64_t seq = flow.next_seq++;
  BasicHeader h{config_.self, msg->header().destination(),
                msg->header().protocol()};
  auto envelope =
      kompics::make_event<ReliableEnvelope>(h, seq, std::move(*inner));
  flow.pending.emplace(seq, Pending{envelope, 0, {}});
  ++stats_.sent;
  trigger(envelope, *down_);
  arm_retransmit(peer, seq);
}

void ReliableChannel::arm_retransmit(const Address& peer, std::uint64_t seq) {
  auto fit = flows_.find(peer);
  if (fit == flows_.end()) return;
  auto pit = fit->second.pending.find(seq);
  if (pit == fit->second.pending.end()) return;
  Pending& p = pit->second;
  // Exponential backoff: the RTO doubles per unacked retry, capped so
  // recovery after a long partition is still prompt.
  const double max_s = config_.max_retransmit_timeout.as_seconds();
  double rto_s = config_.retransmit_timeout.as_seconds();
  for (int i = 0; i < p.retries && rto_s < max_s; ++i) rto_s *= 2.0;
  const Duration rto = Duration::seconds(std::min(rto_s, max_s));
  p.timer = system().scheduler().schedule_delayed(
      rto, [this, peer, seq] {
        auto f = flows_.find(peer);
        if (f == flows_.end()) return;
        auto it = f->second.pending.find(seq);
        if (it == f->second.pending.end()) return;  // acked meanwhile
        if (++it->second.retries > config_.max_retries) {
          ++stats_.gave_up;
          KMSG_WARN("reliable") << "giving up on seq " << seq << " to "
                                << peer.to_string();
          f->second.pending.erase(it);
          return;
        }
        ++stats_.retransmitted;
        trigger(it->second.envelope, *down_);
        arm_retransmit(peer, seq);
      });
}

void ReliableChannel::on_incoming(MsgPtr msg) {
  if (auto env = kompics::event_cast<ReliableEnvelope>(msg)) {
    handle_envelope(std::move(env));
    return;
  }
  if (const auto* ack = dynamic_cast<const ReliableAck*>(msg.get())) {
    handle_ack(*ack);
    return;
  }
  trigger(std::move(msg), *up_);  // unmanaged traffic passes through
}

void ReliableChannel::handle_envelope(
    kompics::EventRef<ReliableEnvelope> env) {
  const Address peer = env->header().source().with_vnode(0);
  Flow& flow = flows_[peer];
  const std::uint64_t seq = env->seq();

  const bool duplicate =
      seq <= flow.delivered_up_to || flow.delivered_ahead.count(seq) > 0;
  if (duplicate) {
    ++stats_.duplicates_suppressed;
  } else {
    auto inner = registry_->deserialize(env->payload());
    if (inner) {
      ++stats_.delivered;
      trigger(std::move(inner), *up_);
    }
    flow.delivered_ahead.insert(seq);
    while (flow.delivered_ahead.count(flow.delivered_up_to + 1) > 0) {
      flow.delivered_ahead.erase(++flow.delivered_up_to);
    }
  }
  send_ack(peer, flow.delivered_up_to);
}

void ReliableChannel::send_ack(const Address& peer, std::uint64_t cum) {
  BasicHeader h{config_.self, peer, config_.ack_protocol};
  trigger(kompics::make_event<ReliableAck>(h, cum), *down_);
}

void ReliableChannel::handle_ack(const ReliableAck& ack) {
  const Address peer = ack.header().source().with_vnode(0);
  auto fit = flows_.find(peer);
  if (fit == flows_.end()) return;
  Flow& flow = fit->second;
  for (auto it = flow.pending.begin();
       it != flow.pending.end() && it->first <= ack.cumulative_seq();) {
    it->second.timer.cancel();
    it = flow.pending.erase(it);
    ++stats_.acked;
  }
}

}  // namespace kmsg::messaging
