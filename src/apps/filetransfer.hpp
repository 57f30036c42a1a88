// Bulk file transfer components (paper §V-A item 1).
//
// DataSource chunks a (synthetic) file into 65 kB-class DataChunkMsgs and
// streams them to a DataSink, keeping a bounded number of chunks in flight
// via MessageNotify feedback (asynchronous, no data duplication — the role
// the paper's RandomAccessFile wrappers played). The sink counts and
// optionally verifies payload bytes and closes each transfer with a
// TransferCompleteMsg receipt over TCP.
//
// `total_bytes == 0` puts the source in streaming mode: it sends forever,
// which is what the learner-convergence experiments (Figs. 2, 4-6) need.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "apps/messages.hpp"
#include "common/arena.hpp"
#include "kompics/system.hpp"
#include "messaging/network_port.hpp"

namespace kmsg::apps {

struct DataSourceConfig {
  messaging::Address self;
  messaging::Address dst;
  /// Bytes to transfer; 0 = stream indefinitely.
  std::uint64_t total_bytes = 64 * 1024 * 1024;
  /// Chunk payload size; the paper used 65 kB serialisation buffers.
  std::size_t chunk_bytes = 65000;
  /// Protocol stamped on chunks; kData enables the adaptive interceptor.
  messaging::Transport protocol = messaging::Transport::kData;
  /// Max chunks awaiting a send notification: the source's whole flow
  /// control. The network holds a notified chunk that does not fit its
  /// session queue until there is room, so a window deeper than the queue
  /// cap (96 x 65 kB = 6.2 MB against 4 MiB by default) costs waiting
  /// chunks, never refused ones. It stays at 96 because the DATA path is
  /// paced by it too: on fig8's EU2US "TCP ping + DATA data" run, 48 moves
  /// the ping RTTs and the goodput, 200 changes nothing.
  std::size_t window_chunks = 96;
  std::uint64_t transfer_id = 1;
  /// Pause before resending chunks whose notify came back unsent
  /// (PeerFailed, TimedOut, or a local refusal). A Dead peer answers at
  /// once, so without it a streaming source would spin against it, every
  /// answer re-opening the window at the same instant.
  Duration retry_backoff = Duration::millis(20);
};

class DataSource final : public kompics::ComponentDefinition {
 public:
  using CompleteFn = std::function<void(Duration, std::uint64_t)>;

  explicit DataSource(DataSourceConfig config) : config_(config) {}
  ~DataSource() override { retry_cancel_.cancel(); }

  void setup() override;

  /// Required Network port: connect to a network/data-network provided port.
  kompics::PortInstance& network() { return *net_; }
  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  std::uint64_t bytes_sent() const { return next_offset_; }
  std::uint64_t bytes_accepted() const { return bytes_accepted_; }
  bool finished() const { return finished_; }
  /// How many PeerRestarted notifications forced a transfer rewind.
  std::uint64_t restarts_observed() const { return restarts_observed_; }
  Duration elapsed() const;

 private:
  /// A chunk's identity, kept per in-flight notify so a Failed/PeerFailed/
  /// TimedOut outcome can be retransmitted instead of silently losing the
  /// byte range (the network layer is at-most-once; end-to-end completeness
  /// is the application's job).
  struct ChunkRef {
    std::uint64_t offset = 0;
    std::size_t len = 0;
    bool last = false;
  };

  void start_transfer();
  void pump();
  void send_chunk();
  void send_chunk_ref(const ChunkRef& ref);
  void on_peer_restarted(const messaging::PeerRestarted& pr);

  DataSourceConfig config_;
  kompics::PortInstance* net_ = nullptr;
  std::uint64_t next_offset_ = 0;
  std::uint64_t bytes_accepted_ = 0;
  std::size_t inflight_ = 0;
  bool sent_all_ = false;
  bool finished_ = false;
  std::uint64_t restarts_observed_ = 0;
  TimePoint started_at_;
  TimePoint finished_at_;
  /// Nodes come from the arena, so a warm source sends a chunk without the
  /// global allocator.
  std::map<messaging::NotifyId, ChunkRef, std::less<messaging::NotifyId>,
           ArenaAllocator<std::pair<const messaging::NotifyId, ChunkRef>>>
      pending_notifies_;
  std::deque<ChunkRef> retry_queue_;
  bool retry_pending_ = false;
  kompics::TimerHandle retry_cancel_;
  CompleteFn on_complete_;
};

struct DataSinkConfig {
  messaging::Address self;
  /// Verify payload contents against the deterministic generator.
  bool verify_payload = false;
};

class DataSink final : public kompics::ComponentDefinition {
 public:
  explicit DataSink(DataSinkConfig config) : config_(config) {}

  void setup() override;

  kompics::PortInstance& network() { return *net_; }

  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t chunks_received() const { return chunks_; }
  std::uint64_t corrupt_chunks() const { return corrupt_; }
  /// Per-protocol message counters (for true-ratio measurement, Fig. 2).
  std::uint64_t chunks_via(messaging::Transport t) const {
    return via_[static_cast<std::size_t>(t)];
  }
  /// Takes a delta snapshot of bytes received since the previous call —
  /// the receiver-side throughput samples of Figs. 2, 4-6.
  std::uint64_t take_interval_bytes();
  /// Delta snapshot of (tcp, udt) chunk counts since the previous call.
  std::pair<std::uint64_t, std::uint64_t> take_interval_chunks();

 private:
  void handle_chunk(const DataChunkMsg& chunk);

  DataSinkConfig config_;
  kompics::PortInstance* net_ = nullptr;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t via_[5] = {0, 0, 0, 0, 0};
  std::uint64_t interval_bytes_mark_ = 0;
  std::uint64_t interval_tcp_mark_ = 0;
  std::uint64_t interval_udt_mark_ = 0;
  std::map<std::uint64_t, std::uint64_t> per_transfer_bytes_;
  std::map<std::uint64_t, std::uint64_t> expected_total_;
  std::set<std::uint64_t> completed_transfers_;
};

}  // namespace kmsg::apps
