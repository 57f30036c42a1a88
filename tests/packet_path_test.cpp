// The per-message and bulk paths' deterministic counters, gated hard.
//
// One TCP ping/pong round trip goes through every layer: the Kompics timer
// and dispatch, serialisation and framing, the session queue, the TCP engine,
// the link's serialisation and arrival events, reassembly and delivery. Once
// the containers on that path are warm, a round trip must not reach the
// global allocator, and cancelled timers must not pile up in the event wheel.
// A bulk transfer adds the per-byte work: 65 kB chunks generated, framed,
// segmented, reassembled, decoded and verified, where a warm chunk must
// neither allocate nor copy payload bytes beyond a bound, on the send side
// or into the receiver's frame decoder (which cuts frames out of the
// sender's slabs), nor move bytes already written to a fresh slab. It runs
// over TCP, UDT and the adaptive DATA path, whose interceptor picks a
// transport per chunk.
// These counts depend only on the code, the compiler and the standard
// library, never on the host's speed, so they are exact gates on any host.
//
// This binary replaces global operator new with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/pingpong.hpp"
#include "wire/buffer.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kmsg::apps {
namespace {

constexpr std::uint64_t kPings = 2000;
constexpr std::uint64_t kWarmupPings = 100;

/// TCP ping/pong on EU-VPC every 100 us: the small_msgs benchmark workload,
/// shrunk.
struct PingPongWorld {
  TwoNodeExperiment exp{ExperimentConfig{}};
  Pinger* pinger = nullptr;

  PingPongWorld() {
    PingerConfig pcfg;
    pcfg.self = exp.addr_a();
    pcfg.dst = exp.addr_b();
    pcfg.protocol = messaging::Transport::kTcp;
    pcfg.interval = Duration::micros(100);
    pcfg.max_pings = kPings;
    pinger = &exp.system().create<Pinger>("pinger", pcfg);
    auto& ponger =
        exp.system().create<Ponger>("ponger", PongerConfig{exp.addr_b()});
    exp.connect_a(pinger->network());
    exp.connect_b(ponger.network());
    exp.connect_timer(pinger->timer());
    exp.start();
  }

  /// Runs in 10 ms steps until `pongs` pongs came back; returns the most
  /// events the simulator held pending at the end of any step.
  std::size_t run_until_pongs(std::uint64_t pongs) {
    std::size_t most_pending = 0;
    const TimePoint limit = exp.simulator().now() + Duration::seconds(5.0);
    while (pinger->pongs_received() < pongs && exp.simulator().now() < limit) {
      exp.run_for(Duration::millis(10));
      most_pending = std::max(most_pending, exp.simulator().pending());
    }
    return most_pending;
  }
};

TEST(PacketPathTest, RoundTripDoesNotAllocate) {
  PingPongWorld world;
  world.run_until_pongs(kWarmupPings);
  ASSERT_GE(world.pinger->pongs_received(), kWarmupPings);
  const std::uint64_t pongs0 = world.pinger->pongs_received();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  world.run_until_pongs(kPings);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t round_trips = world.pinger->pongs_received() - pongs0;
  ASSERT_EQ(world.pinger->pongs_received(), kPings);
  const double per_round_trip =
      static_cast<double>(allocs) / static_cast<double>(round_trips);
  EXPECT_LE(per_round_trip, 1.0)
      << allocs << " operator new calls over " << round_trips
      << " warm round trips";
}

TEST(PacketPathTest, CancelledTimersLeaveTheWheel) {
  // Every send and every ACK re-arms TCP's retransmission timer 200 ms out.
  // A cancelled timer that stayed in the wheel until its deadline would leave
  // thousands of dead events pending at this rate.
  PingPongWorld world;
  const std::size_t most_pending = world.run_until_pongs(kPings);
  ASSERT_EQ(world.pinger->pongs_received(), kPings);
  EXPECT_LE(most_pending, 200u);
}

// --- Bulk path: 65,000-byte chunks over TCP and UDT on EU-VPC, and over
// DATA on EU2US ---

constexpr std::size_t kChunkBytes = 65'000;
// A small window and send buffer spread the sender's work over the
// transfer: with the defaults (96 chunks, 4 MiB) every chunk is generated,
// framed and written before the first one arrives.
constexpr std::size_t kWindowChunks = 4;
constexpr std::size_t kSendBufferBytes = 256 * 1024;

/// A transfer's size and the two arrivals between which its counts are
/// read: after the first ones warmed the connections, and while the source
/// still sends, so each counted chunk is both sent and received.
struct BulkWindow {
  std::uint64_t bytes;
  std::size_t from_chunk;
  std::size_t to_chunk;
  std::size_t chunks() const {
    return static_cast<std::size_t>((bytes + kChunkBytes - 1) / kChunkBytes);
  }
};

/// TCP and UDT: 4 MiB (65 chunks), counted from the 16th arrival to the last.
constexpr BulkWindow kStreamWindow{4 * 1024 * 1024, 16, 65};
/// DATA: the interceptor releases its first 6 MiB (97 chunks) at once and
/// the rest as acknowledgements return, so 16 MiB (259 chunks, about 4.6
/// simulated seconds) are counted from the 112th arrival to the 160th, while
/// the source sends 38 chunks.
constexpr BulkWindow kDataWindow{16 * 1024 * 1024, 112, 160};

/// Beside the DataSink, counts each chunk by its offset and reads both
/// counters when the window's first and last counted chunks arrive.
class ChunkLog final : public kompics::ComponentDefinition {
 public:
  explicit ChunkLog(BulkWindow window)
      : arrivals(window.chunks(), 0), window_(window) {}

  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<DataChunkMsg>(*net_,
                            [this](const DataChunkMsg& c) { on_chunk(c); });
  }

  kompics::PortInstance& network() { return *net_; }

  std::size_t chunks = 0;
  /// Arrivals per chunk index; sized up front so logging never allocates.
  std::vector<int> arrivals;
  bool misplaced = false;  ///< an offset off the chunk grid or past the end
  std::uint64_t allocs_from = 0, allocs_to = 0;
  std::uint64_t copied_from = 0, copied_to = 0;
  std::uint64_t decoded_from = 0, decoded_to = 0;
  std::uint64_t moved_from = 0, moved_to = 0;

 private:
  void on_chunk(const DataChunkMsg& c) {
    const std::uint64_t index = c.offset() / kChunkBytes;
    if (c.offset() % kChunkBytes != 0 || index >= arrivals.size()) {
      misplaced = true;
    } else {
      ++arrivals[index];
    }
    ++chunks;
    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
    const wire::SlabPoolStats slabs = wire::SlabPool::instance().stats();
    if (chunks == window_.from_chunk) {
      allocs_from = allocs;
      copied_from = slabs.payload_bytes_copied;
      decoded_from = slabs.decoder_bytes_copied;
      moved_from = slabs.grow_bytes_copied;
    }
    if (chunks == window_.to_chunk) {
      allocs_to = allocs;
      copied_to = slabs.payload_bytes_copied;
      decoded_to = slabs.decoder_bytes_copied;
      moved_to = slabs.grow_bytes_copied;
    }
  }

  BulkWindow window_;
  kompics::PortInstance* net_ = nullptr;
};

struct BulkCounts {
  double allocs_per_chunk = 0.0;
  double copied_per_chunk = 0.0;   ///< SlabPoolStats::payload_bytes_copied
  double decoded_per_chunk = 0.0;  ///< SlabPoolStats::decoder_bytes_copied
  double moved_per_chunk = 0.0;    ///< SlabPoolStats::grow_bytes_copied

  void print(const char* row) const {
    std::printf(
        "%s: %.3f allocations, %.1f copied, %.1f decoder-copied and %.1f "
        "moved bytes per warm chunk\n",
        row, allocs_per_chunk, copied_per_chunk, decoded_per_chunk,
        moved_per_chunk);
  }
};

/// The TCP and UDT rows' setup: EU-VPC with small send buffers.
ExperimentConfig stream_config() {
  ExperimentConfig cfg;
  cfg.net.tcp.send_buffer_bytes = kSendBufferBytes;
  cfg.net.udt.send_buffer_bytes = kSendBufferBytes;
  return cfg;
}

/// The DATA row's setup, as in perfbench's adaptive_wan: EU2US through the
/// adaptive interceptor, with UDT buffers at the paper's 100 MB.
ExperimentConfig data_config() {
  constexpr std::size_t kPaperUdtBufferBytes = 100 * 1024 * 1024;
  ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEu2Us;
  cfg.use_data_network = true;
  cfg.net.udt.send_buffer_bytes = kPaperUdtBufferBytes;
  cfg.net.udt.recv_buffer_bytes = kPaperUdtBufferBytes;
  return cfg;
}

/// Sends `window.bytes` over `protocol` with the sink verifying every byte,
/// and returns the counts per chunk over the window's arrivals.
BulkCounts run_bulk(const ExperimentConfig& cfg, messaging::Transport protocol,
                    BulkWindow window) {
  TwoNodeExperiment exp{cfg};
  DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = window.bytes;
  scfg.chunk_bytes = kChunkBytes;
  scfg.protocol = protocol;
  scfg.window_chunks = kWindowChunks;
  auto& source = exp.system().create<DataSource>("source", scfg);
  DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<DataSink>("sink", kcfg);
  auto& log = exp.system().create<ChunkLog>("log", window);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.connect_b(log.network());
  exp.start();
  const std::size_t chunks = window.chunks();
  const TimePoint limit = exp.simulator().now() + Duration::seconds(30.0);
  while (log.chunks < chunks && exp.simulator().now() < limit) {
    exp.run_for(Duration::millis(10));
  }

  EXPECT_EQ(log.chunks, chunks);
  EXPECT_FALSE(log.misplaced);
  for (std::size_t i = 0; i < chunks; ++i) {
    EXPECT_EQ(log.arrivals[i], 1) << "chunk " << i;
  }
  EXPECT_EQ(sink.chunks_received(), chunks);
  EXPECT_EQ(sink.bytes_received(), window.bytes);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);
  const auto counted = static_cast<double>(window.to_chunk - window.from_chunk);
  return {static_cast<double>(log.allocs_to - log.allocs_from) / counted,
          static_cast<double>(log.copied_to - log.copied_from) / counted,
          static_cast<double>(log.decoded_to - log.decoded_from) / counted,
          static_cast<double>(log.moved_to - log.moved_from) / counted};
}

// Bounds from the counts the code read when they were set. Allocations per
// warm chunk: TCP 0.204, UDT 0.265, DATA 0.333 (the source's notify map
// takes its nodes from the arena); one more allocation per sent chunk reads
// 1.102, 1.122 and 1.125 and fails each row. Copied payload bytes
// (the gathers of segments spanning three or more writes): TCP 0, UDT 911,
// DATA 746; a new copy of more than about 1 kB per chunk fails each row.
// Bytes copied into the receiver's frame decoder: TCP 0, UDT 13,272, DATA
// 10,843 (the frames joined across a gathered segment); a decoder fed
// copies of every chunk reads about 64,000 on each row, and more than about
// 1.7 kB of new decoder copies per chunk fails each row. Bytes moved to a
// fresh slab (a writing ByteBuf outgrowing its slab, or the decoder moving
// its unparsed bytes): 0 on every row, and any move fails it; a decoder
// that moved a pinned slab's unparsed bytes to one of the same capacity
// read 1,334 per chunk on the DATA row.

TEST(PacketPathTest, BulkTcpChunksStayWithinTheirCounts) {
  // The first run warms the arena.
  run_bulk(stream_config(), messaging::Transport::kTcp, kStreamWindow);
  const BulkCounts c =
      run_bulk(stream_config(), messaging::Transport::kTcp, kStreamWindow);
  c.print("tcp");
  EXPECT_LE(c.allocs_per_chunk, 0.6);
  EXPECT_LE(c.copied_per_chunk, 1'000.0);
  EXPECT_LE(c.decoded_per_chunk, 1'000.0);
  EXPECT_EQ(c.moved_per_chunk, 0.0);
}

TEST(PacketPathTest, BulkUdtChunksStayWithinTheirCounts) {
  // The first run warms the arena.
  run_bulk(stream_config(), messaging::Transport::kUdt, kStreamWindow);
  const BulkCounts c =
      run_bulk(stream_config(), messaging::Transport::kUdt, kStreamWindow);
  c.print("udt");
  EXPECT_LE(c.allocs_per_chunk, 0.6);
  EXPECT_LE(c.copied_per_chunk, 2'000.0);
  EXPECT_LE(c.decoded_per_chunk, 15'000.0);
  EXPECT_EQ(c.moved_per_chunk, 0.0);
}

TEST(PacketPathTest, BulkDataChunksStayWithinTheirCounts) {
  // The first run warms the arena.
  run_bulk(data_config(), messaging::Transport::kData, kDataWindow);
  const BulkCounts c =
      run_bulk(data_config(), messaging::Transport::kData, kDataWindow);
  c.print("data");
  EXPECT_LE(c.allocs_per_chunk, 0.6);
  EXPECT_LE(c.copied_per_chunk, 1'750.0);
  EXPECT_LE(c.decoded_per_chunk, 12'500.0);
  EXPECT_EQ(c.moved_per_chunk, 0.0);
}

}  // namespace
}  // namespace kmsg::apps
