#include "apps/filetransfer.hpp"

#include "common/logging.hpp"

namespace kmsg::apps {

using messaging::DataHeader;
using messaging::MessageNotifyReq;
using messaging::MessageNotifyResp;
using messaging::Transport;

void DataSource::setup() {
  net_ = &require<messaging::Network>();
  subscribe<kompics::Start>(control(),
                            [this](const kompics::Start&) { start_transfer(); });
  subscribe<MessageNotifyResp>(*net_, [this](const MessageNotifyResp& resp) {
    auto it = pending_notifies_.find(resp.id);
    if (it == pending_notifies_.end()) return;
    const ChunkRef failed = it->second;
    pending_notifies_.erase(it);
    --inflight_;
    if (resp.status == messaging::DeliveryStatus::kSent) {
      bytes_accepted_ += resp.bytes;
      pump();
      return;
    }
    KMSG_WARN("data-source") << "chunk send failed via " << to_string(resp.via)
                             << " (" << to_string(resp.status)
                             << "), will retransmit offset " << failed.offset;
    // The chunk never reached the wire (its peer failed or timed out, or the
    // stack refused it); schedule it for retransmission so a fixed-size
    // transfer still completes — nothing below this layer resends it.
    retry_queue_.push_back(failed);
    // Back off before refilling: a Dead peer answers at once, and re-pumping
    // in the same instant would spin without ever letting simulated time —
    // and therefore the peer's recovery — advance.
    if (!retry_pending_) {
      retry_pending_ = true;
      retry_cancel_ = system().scheduler().schedule_delayed(
          config_.retry_backoff, [this] {
            retry_pending_ = false;
            retry_cancel_ = {};
            pump();
          });
    }
  });
  subscribe<messaging::PeerRestarted>(
      *net_, [this](const messaging::PeerRestarted& pr) {
        on_peer_restarted(pr);
      });
  subscribe<TransferCompleteMsg>(*net_, [this](const TransferCompleteMsg& done) {
    if (done.transfer_id() != config_.transfer_id || finished_) return;
    finished_ = true;
    finished_at_ = clock().now();
    if (on_complete_) {
      on_complete_(finished_at_ - started_at_, done.total_bytes());
    }
  });
}

void DataSource::start_transfer() {
  started_at_ = clock().now();
  pump();
}

void DataSource::on_peer_restarted(const messaging::PeerRestarted& pr) {
  if (!pr.peer.same_host_as(config_.dst) || finished_) return;
  ++restarts_observed_;
  KMSG_WARN("data-source") << "sink restarted (incarnation "
                           << pr.old_incarnation << " -> "
                           << pr.new_incarnation << "), rewinding transfer "
                           << config_.transfer_id;
  // The sink's per-transfer byte counts died with its old process, so a
  // partial transfer can never complete against the new incarnation. Chunks
  // are synthesised from (offset, len), so rewinding costs nothing: restart
  // from offset 0 and let the new sink count a fresh, complete stream.
  next_offset_ = 0;
  sent_all_ = false;
  inflight_ = 0;
  pending_notifies_.clear();
  retry_queue_.clear();
  pump();
}

Duration DataSource::elapsed() const {
  return (finished_ ? finished_at_ : clock().now()) - started_at_;
}

void DataSource::pump() {
  while (inflight_ < config_.window_chunks &&
         (!retry_queue_.empty() || !sent_all_)) {
    if (!retry_queue_.empty()) {
      const ChunkRef ref = retry_queue_.front();
      retry_queue_.pop_front();
      send_chunk_ref(ref);
    } else {
      send_chunk();
    }
  }
}

void DataSource::send_chunk() {
  std::size_t len = config_.chunk_bytes;
  bool last = false;
  if (config_.total_bytes > 0) {
    const std::uint64_t remaining = config_.total_bytes - next_offset_;
    len = static_cast<std::size_t>(
        std::min<std::uint64_t>(len, remaining));
    last = (remaining == len);
  }
  const ChunkRef ref{next_offset_, len, last};
  next_offset_ += len;
  if (last) sent_all_ = true;
  send_chunk_ref(ref);
}

void DataSource::send_chunk_ref(const ChunkRef& ref) {
  DataHeader header = (config_.protocol == Transport::kData)
                          ? DataHeader{config_.self, config_.dst}
                          : DataHeader{config_.self, config_.dst, config_.protocol};
  auto msg = kompics::make_event<DataChunkMsg>(
      header, config_.transfer_id, ref.offset,
      make_payload_slice(ref.offset, ref.len),
      ref.last);
  const auto id = messaging::next_notify_id();
  pending_notifies_.emplace(id, ref);
  ++inflight_;
  trigger(kompics::make_event<MessageNotifyReq>(std::move(msg), id), *net_);
}

void DataSink::setup() {
  net_ = &require<messaging::Network>();
  subscribe<DataChunkMsg>(*net_,
                          [this](const DataChunkMsg& c) { handle_chunk(c); });
}

void DataSink::handle_chunk(const DataChunkMsg& chunk) {
  ++chunks_;
  bytes_received_ += chunk.bytes().size();
  const auto proto = chunk.header().protocol();
  ++via_[static_cast<std::size_t>(proto)];
  if (config_.verify_payload && !verify_payload(chunk.offset(), chunk.bytes())) {
    ++corrupt_;
    KMSG_ERROR("data-sink") << "payload corruption at offset " << chunk.offset();
  }

  auto& received = per_transfer_bytes_[chunk.transfer_id()];
  received += chunk.bytes().size();
  if (chunk.last()) {
    expected_total_[chunk.transfer_id()] = chunk.offset() + chunk.bytes().size();
  }
  auto it = expected_total_.find(chunk.transfer_id());
  if (it != expected_total_.end() && received >= it->second &&
      completed_transfers_.insert(chunk.transfer_id()).second) {
    // All bytes arrived (chunks may interleave across protocols, so the
    // last-flagged chunk is not necessarily the final arrival).
    messaging::BasicHeader h{config_.self, chunk.header().source(),
                             Transport::kTcp};
    trigger(kompics::make_event<TransferCompleteMsg>(h, chunk.transfer_id(),
                                                     received),
            *net_);
  }
}

std::uint64_t DataSink::take_interval_bytes() {
  const std::uint64_t delta = bytes_received_ - interval_bytes_mark_;
  interval_bytes_mark_ = bytes_received_;
  return delta;
}

std::pair<std::uint64_t, std::uint64_t> DataSink::take_interval_chunks() {
  const std::uint64_t tcp = via_[static_cast<std::size_t>(Transport::kTcp)];
  const std::uint64_t udt = via_[static_cast<std::size_t>(Transport::kUdt)];
  const auto out = std::make_pair(tcp - interval_tcp_mark_, udt - interval_udt_mark_);
  interval_tcp_mark_ = tcp;
  interval_udt_mark_ = udt;
  return out;
}

}  // namespace kmsg::apps
