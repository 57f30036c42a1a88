// Micro-benchmarks (google-benchmark) for the building blocks whose costs
// determine middleware throughput: ByteBuf encoding, the snappy-like codec,
// frame decoding (of copied chunks and of the segment views the bulk path
// delivers), message (de)serialisation and a bulk chunk's generate,
// serialise and frame, protocol-selection policies,
// Sarsa(λ) steps, simulator event dispatch and Kompics event handling, and
// the bulk path's per-byte kernels: payload generation and checking and the
// frame CRC.
//
// Every benchmark additionally reports allocs_per_op / alloc_bytes_per_op via
// the replaced global operator new below, so allocation regressions on the
// hot paths show up in BENCH_micro.json alongside ns/op.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "adaptive/prp.hpp"
#include "adaptive/psp.hpp"
#include "apps/messages.hpp"
#include "kompics/system.hpp"
#include "messaging/serialization.hpp"
#include "rl/sarsa.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"
#include "wire/snappy.hpp"

// --- Counting allocator -----------------------------------------------------
// Replaces the global allocation functions for this binary only. Relaxed
// atomics: benchmarks are single-threaded, the counters just need to be sane.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
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

namespace {

using namespace kmsg;

/// Snapshots the allocation counters on construction and publishes
/// allocs_per_op / alloc_bytes_per_op when it goes out of scope (i.e. after
/// the benchmark loop has finished and iterations() is final).
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_(state),
        count0_(g_alloc_count.load(std::memory_order_relaxed)),
        bytes0_(g_alloc_bytes.load(std::memory_order_relaxed)) {}
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  ~AllocScope() {
    const auto iters =
        static_cast<double>(std::max<std::int64_t>(state_.iterations(), 1));
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                            count0_) /
        iters);
    state_.counters["alloc_bytes_per_op"] = benchmark::Counter(
        static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed) -
                            bytes0_) /
        iters);
  }

 private:
  benchmark::State& state_;
  std::uint64_t count0_;
  std::uint64_t bytes0_;
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::vector<std::uint8_t> compressible_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i % 29);
  return out;
}

void BM_ByteBufWritePrimitives(benchmark::State& state) {
  AllocScope allocs(state);
  for (auto _ : state) {
    wire::ByteBuf buf;
    for (int i = 0; i < 100; ++i) {
      buf.write_u32(static_cast<std::uint32_t>(i));
      buf.write_varint(static_cast<std::uint64_t>(i) * 7919);
      buf.write_f64(static_cast<double>(i) * 1.5);
    }
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_ByteBufWritePrimitives);

void BM_SnappyCompress(benchmark::State& state) {
  const bool compressible = state.range(0) == 1;
  auto input = compressible ? compressible_bytes(65000) : random_bytes(65000, 3);
  for (auto _ : state) {
    auto out = wire::snappy_compress(input);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
  state.SetLabel(compressible ? "compressible" : "incompressible");
}
BENCHMARK(BM_SnappyCompress)->Arg(0)->Arg(1);

void BM_SnappyDecompress(benchmark::State& state) {
  auto compressed = wire::snappy_compress(compressible_bytes(65000));
  for (auto _ : state) {
    auto out = wire::snappy_decompress(compressed);
    benchmark::DoNotOptimize(out->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
}
BENCHMARK(BM_SnappyDecompress);

/// Reports the bytes frame decoders copied in (decoder_copied_per_op) and
/// moved to fresh slabs (grow_copied_per_op) per op since `before`.
void report_decoder_bytes(benchmark::State& state,
                          const wire::SlabPoolStats& before) {
  const wire::SlabPoolStats after = wire::SlabPool::instance().stats();
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["decoder_copied_per_op"] = benchmark::Counter(
      static_cast<double>(after.decoder_bytes_copied -
                          before.decoder_bytes_copied) /
      iters);
  state.counters["grow_copied_per_op"] = benchmark::Counter(
      static_cast<double>(after.grow_bytes_copied - before.grow_bytes_copied) /
      iters);
}

// A 64-frame stream (1,000-byte payloads, 64,512 bytes) fed to a fresh
// decoder as one borrowed chunk: the decoder copies the stream once into a
// slab of its own and moves nothing, which check_bench_json.py requires.
void BM_FrameDecode(benchmark::State& state) {
  AllocScope allocs(state);
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 64; ++i) {
    auto f = wire::encode_frame(random_bytes(1000, static_cast<std::uint64_t>(i)));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const wire::SlabPoolStats before = wire::SlabPool::instance().stats();
  for (auto _ : state) {
    wire::FrameDecoder dec;
    std::size_t frames = 0;
    dec.set_on_frame([&](wire::BufSlice) { ++frames; });
    dec.feed(stream);
    benchmark::DoNotOptimize(frames);
  }
  report_decoder_bytes(state, before);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_FrameDecode);

// The bulk workloads' receive path: 65,008-byte frames (65,000-byte
// payloads), each in a slab of its own as the sender wrote it, arrive as
// 8,928-byte segments (the simulated path MTU's payload), and a segment
// straddling two frames is two views, one of each, as the stream transports
// send it. The decoder cuts each frame out of its slab in place, widening
// its view of the unparsed bytes as the segments continue them; one op
// decodes 16 frames. decoder_copied_per_op and grow_copied_per_op count the
// bytes the decoder copied into a slab of its own and moved, which
// check_bench_json.py requires to be 0.
void BM_FrameDecodeSegments(benchmark::State& state) {
  constexpr std::size_t kFrames = 16;
  constexpr std::size_t kPayloadBytes = 65'000;
  constexpr std::size_t kSegmentBytes = 8'928;
  std::vector<wire::BufSlice> frames;
  std::size_t stream_bytes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames.push_back(wire::encode_frame_slice(wire::BufSlice::copy_of(
        random_bytes(kPayloadBytes, 100 + i), wire::kFrameHeaderBytes)));
    stream_bytes += frames.back().size();
  }
  // The views the segments carry, in stream order.
  std::vector<wire::BufSlice> views;
  std::size_t in_segment = 0;
  for (const wire::BufSlice& f : frames) {
    for (std::size_t at = 0; at < f.size();) {
      const std::size_t n = std::min(kSegmentBytes - in_segment, f.size() - at);
      views.push_back(f.slice(at, n));
      at += n;
      in_segment = (in_segment + n) % kSegmentBytes;
    }
  }
  wire::FrameDecoder dec;
  std::uint64_t decoded = 0;
  dec.set_on_frame([&decoded](wire::BufSlice) { ++decoded; });
  const wire::SlabPoolStats before = wire::SlabPool::instance().stats();
  AllocScope allocs(state);
  for (auto _ : state) {
    for (const wire::BufSlice& v : views) dec.feed(v);
    benchmark::DoNotOptimize(decoded);
  }
  if (decoded != static_cast<std::uint64_t>(state.iterations()) * kFrames) {
    state.SkipWithError("the decoder lost frames");
  }
  report_decoder_bytes(state, before);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream_bytes));
}
BENCHMARK(BM_FrameDecodeSegments);

// Serialises and deserialises one 65,000-byte chunk over and over. Only the
// chunk's first serialisation writes its envelope in front of the payload;
// every later one copies the payload, a copy counted in
// payload_bytes_copied, so this times that fallback. BM_ChunkSerializeFrame
// times the bulk path's own case.
void BM_MessageSerializeRoundTrip(benchmark::State& state) {
  AllocScope allocs(state);
  messaging::SerializerRegistry reg;
  apps::register_app_serializers(reg);
  messaging::DataHeader h{messaging::Address{1, 100}, messaging::Address{2, 200},
                          messaging::Transport::kTcp};
  apps::DataChunkMsg chunk{h, 1, 0, apps::make_payload_slice(0, 65000), false};
  for (auto _ : state) {
    auto bytes = reg.serialize(chunk);
    auto msg = reg.deserialize(*bytes);
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
}
BENCHMARK(BM_MessageSerializeRoundTrip);

// The bulk send path's first half, as a DataSource and its NetworkComponent
// run it per chunk: each op generates a fresh 65,000-byte payload,
// serialises it into a DataChunkMsg and frames it. The serialiser writes the
// envelope in front of the payload and the frame header goes in front of
// that, all in the slab the generator wrote, so payload_copied_per_op (the
// payload bytes copied per op), which check_bench_json.py requires to be 0,
// shows a serialiser that copies the payload again.
void BM_ChunkSerializeFrame(benchmark::State& state) {
  constexpr std::size_t kPayloadBytes = 65'000;
  messaging::SerializerRegistry reg;
  apps::register_app_serializers(reg);
  const messaging::DataHeader h{messaging::Address{1, 100},
                                messaging::Address{2, 200},
                                messaging::Transport::kTcp};
  std::uint64_t offset = 0;
  const std::uint64_t copied0 =
      wire::SlabPool::instance().stats().payload_bytes_copied;
  AllocScope allocs(state);
  for (auto _ : state) {
    const apps::DataChunkMsg chunk{
        h, 1, offset, apps::make_payload_slice(offset, kPayloadBytes), false};
    offset += kPayloadBytes;
    const wire::BufSlice frame =
        wire::encode_frame_slice(*reg.serialize(chunk));
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["payload_copied_per_op"] = benchmark::Counter(
      static_cast<double>(
          wire::SlabPool::instance().stats().payload_bytes_copied - copied0) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPayloadBytes));
}
BENCHMARK(BM_ChunkSerializeFrame);

// --- Small-message wire efficiency -------------------------------------------
// The many-small-messages workload the delta codec and coalescer target:
// telemetry reports with a 64-byte reading block where consecutive reports
// differ in a handful of fields. Each variant runs the full
// serialise->delta->coalesce->frame->decode path and reports bytes_per_msg —
// the metric the regression gate pins (delta elides unchanged fields,
// coalescing amortises the frame header).

constexpr std::size_t kSmallMsgCount = 64;
constexpr std::size_t kSmallMsgBatch = 16;  // burst size the coalescer packs

std::vector<std::vector<std::uint8_t>> small_msg_stream(
    messaging::SerializerRegistry& reg) {
  std::vector<std::vector<std::uint8_t>> out;
  messaging::BasicHeader h{messaging::Address{1, 100},
                           messaging::Address{2, 200},
                           messaging::Transport::kTcp};
  for (std::uint64_t seq = 0; seq < kSmallMsgCount; ++seq) {
    std::array<std::uint64_t, apps::TelemetryMsg::kReadings> r{};
    for (std::size_t j = 0; j < r.size(); ++j) r[j] = 1000 + j;
    r[seq % r.size()] = seq;
    apps::TelemetryMsg msg{h, "sensor-7", seq,
                           static_cast<std::uint8_t>(seq & 0xff), r};
    auto s = reg.serialize(msg);
    out.emplace_back(s->data(), s->data() + s->size());
  }
  return out;
}

void run_small_msg_wire(benchmark::State& state, bool use_delta,
                        bool use_coalesce) {
  AllocScope allocs(state);
  messaging::SerializerRegistry reg;
  apps::register_app_serializers(reg);
  apps::register_app_delta_schemas(reg);
  const auto stream = small_msg_stream(reg);
  const std::size_t headroom =
      wire::kCodecHeadroomBytes + wire::kFrameHeaderBytes;

  std::uint64_t wire_bytes = 0;
  std::uint64_t msgs = 0;
  std::uint64_t delivered_total = 0;

  for (auto _ : state) {
    messaging::DeltaEncoder enc(&reg, /*keyframe_interval=*/64);
    messaging::DeltaDecoder dec(&reg);
    wire::FrameDecoder fdec;
    std::size_t delivered = 0;
    fdec.set_on_frame([&](wire::BufSlice sub) {
      if (use_delta) {
        auto r = dec.decode(std::move(sub));
        if (r.status == messaging::DeltaDecoder::Status::kOk) ++delivered;
      } else {
        ++delivered;
      }
    });

    std::vector<wire::BufSlice> batch;
    auto flush = [&] {
      if (batch.empty()) return;
      const bool coalesced = batch.size() > 1;
      auto framed = wire::encode_frame_slice(
          coalesced ? wire::encode_wire_coalesced(batch)
                    : std::move(batch.front()),
          coalesced);
      wire_bytes += framed.size();
      fdec.feed(framed);
      batch.clear();
    };

    for (const auto& m : stream) {
      auto s = wire::BufSlice::copy_of({m.data(), m.size()}, headroom);
      if (use_delta) s = enc.encode(apps::kTelemetryTypeId, std::move(s));
      batch.push_back(std::move(s));
      if (!use_coalesce || batch.size() >= kSmallMsgBatch) flush();
    }
    flush();
    msgs += stream.size();
    delivered_total += delivered;
    benchmark::DoNotOptimize(delivered);
  }

  if (delivered_total != msgs) state.SkipWithError("lost messages on the wire");
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.counters["bytes_per_msg"] = benchmark::Counter(
      static_cast<double>(wire_bytes) /
      static_cast<double>(std::max<std::uint64_t>(msgs, 1)));
}

void BM_SmallMsgWireBaseline(benchmark::State& state) {
  run_small_msg_wire(state, false, false);
}
void BM_SmallMsgWireDelta(benchmark::State& state) {
  run_small_msg_wire(state, true, false);
}
void BM_SmallMsgWireCoalesce(benchmark::State& state) {
  run_small_msg_wire(state, false, true);
}
void BM_SmallMsgWireBoth(benchmark::State& state) {
  run_small_msg_wire(state, true, true);
}
BENCHMARK(BM_SmallMsgWireBaseline);
BENCHMARK(BM_SmallMsgWireDelta);
BENCHMARK(BM_SmallMsgWireCoalesce);
BENCHMARK(BM_SmallMsgWireBoth);

void BM_PatternSelectionNext(benchmark::State& state) {
  adaptive::PatternSelection psp;
  psp.set_ratio(0.37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psp.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternSelectionNext);

void BM_PatternRebuild(benchmark::State& state) {
  adaptive::PatternSelection psp;
  double r = 0.01;
  for (auto _ : state) {
    psp.set_ratio(r);
    r += 0.013;
    if (r > 0.99) r = 0.01;
    benchmark::DoNotOptimize(psp.pattern().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternRebuild);

void BM_SarsaStep(benchmark::State& state) {
  rl::AdditiveModel model(11, {-2, -1, 0, 1, 2});
  rl::SarsaLambda sarsa(std::make_unique<rl::QuadApproxV>(model),
                        rl::SarsaConfig{}, Rng(1));
  sarsa.begin(5);
  int s = 5;
  for (auto _ : state) {
    const int a = sarsa.step(0.5, s);
    s = model.next_state(s, a);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SarsaStep);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  AllocScope allocs(state);
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_after(Duration::micros(i % 777), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Sharded engine scaling curve: the same 40k-event workload partitioned
// across 1/2/4/8 shards, one worker thread per shard. Each shard runs mostly
// local events plus a 1-in-16 cross-shard post to its ring neighbour, so the
// conservative horizon protocol (lookahead waves + MPSC queues) is on the
// hot path rather than idling. items/s across the Arg values is the scaling
// curve the perf trajectory tracks.
void BM_ShardedSimThroughput(benchmark::State& state) {
  AllocScope allocs(state);
  const auto shards = static_cast<unsigned>(state.range(0));
  constexpr int kTotalEvents = 40000;
  const int per_shard = kTotalEvents / static_cast<int>(shards);
  for (auto _ : state) {
    sim::ShardedSimulator ssim(shards);
    for (unsigned from = 0; from < shards; ++from) {
      for (unsigned to = 0; to < shards; ++to) {
        if (from != to) ssim.set_lookahead(from, to, Duration::micros(5));
      }
    }
    for (unsigned s = 0; s < shards; ++s) {
      sim::Simulator& sim = ssim.shard(s);
      for (int i = 0; i < per_shard; ++i) {
        const auto at = TimePoint::zero() + Duration::micros(10 + i % 777);
        if (shards > 1 && i % 16 == 0) {
          const unsigned to = (s + 1) % shards;
          // Post from outside the run loop: `at` respects the lookahead
          // because every target instant is >= 10 us ahead of time zero.
          ssim.post(s, to, at, sim::delivery_key(s, to, static_cast<std::uint64_t>(i)),
                    SmallFn([] {}));
        } else {
          sim.schedule_at(at, [] {});
        }
      }
    }
    ssim.run_until(TimePoint::zero() + Duration::millis(1), shards);
    benchmark::DoNotOptimize(ssim.executed());
  }
  state.SetItemsProcessed(state.iterations() * kTotalEvents);
}
BENCHMARK(BM_ShardedSimThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Kompics event dispatch: producer -> channel -> consumer round trip.
struct BenchEvent final : kompics::KompicsEvent {
  explicit BenchEvent(int v) : value(v) {}
  int value;
};
struct BenchPort : kompics::PortType {
  BenchPort() { indication<BenchEvent>(); }
};
class BenchProducer final : public kompics::ComponentDefinition {
 public:
  void setup() override { port_ = &provides<BenchPort>(); }
  kompics::PortInstance& port() { return *port_; }
  void emit(int v) { trigger(kompics::make_event<BenchEvent>(v), *port_); }

 private:
  kompics::PortInstance* port_ = nullptr;
};
class BenchConsumer final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    port_ = &require<BenchPort>();
    subscribe<BenchEvent>(*port_, [this](const BenchEvent& e) { sum += e.value; });
  }
  kompics::PortInstance& port() { return *port_; }
  long sum = 0;

 private:
  kompics::PortInstance* port_ = nullptr;
};

void BM_KompicsEventDispatch(benchmark::State& state) {
  AllocScope allocs(state);
  sim::Simulator sim;
  kompics::KompicsSystem sys(sim);
  auto& prod = sys.create<BenchProducer>("p");
  auto& cons = sys.create<BenchConsumer>("c");
  sys.connect(prod.port(), cons.port());
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) prod.emit(i);
    sim.run();
  }
  benchmark::DoNotOptimize(cons.sum);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KompicsEventDispatch);

// --- Multi-core dispatch on the work-stealing runtime -----------------------
// W token rings of kRingSize relay components on a W-worker pool, fixed total
// hop count per iteration. Shard-local variant pins each ring to one worker
// (private mailboxes, plain refcounts, intrusive run queue); the cross-shard
// variant stripes each ring's nodes across workers so every hop goes through
// the escalated path (atomic refcounts, batched public-mailbox handoff).
// One op == one hop. Main blocks on a condvar while the pool runs, so
// process_cpu_time is the workers' dispatch cost, not a spin loop.
struct TokenEv final : kompics::KompicsEvent {};
struct RingPort : kompics::PortType {
  RingPort() { indication<TokenEv>(); }
};

struct RingSync {
  std::mutex m;
  std::condition_variable cv;
  int done = 0;
  void ring_done() {
    std::lock_guard<std::mutex> lock(m);
    ++done;
    cv.notify_one();
  }
  void reset() {
    std::lock_guard<std::mutex> lock(m);
    done = 0;
  }
  void wait_for(int n) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done >= n; });
  }
};

class RingNode final : public kompics::ComponentDefinition {
 public:
  explicit RingNode(RingSync* sync) : sync_(sync) {}
  void setup() override {
    out_ = &provides<RingPort>();
    in_ = &require<RingPort>();
    subscribe<TokenEv>(*in_, [this](const TokenEv&) {
      if (sync_ != nullptr && --laps_ <= 0) {  // head node: lap accounting
        sync_->ring_done();
        return;  // drop the token: iteration over for this ring
      }
      trigger(kompics::make_event<TokenEv>(), *out_);
    });
  }
  kompics::PortInstance& out() { return *out_; }
  kompics::PortInstance& in() { return *in_; }
  void arm(int laps) { laps_ = laps; }
  void inject() { trigger(kompics::make_event<TokenEv>(), *out_); }

 private:
  RingSync* sync_;
  int laps_ = 0;
  kompics::PortInstance* out_ = nullptr;
  kompics::PortInstance* in_ = nullptr;
};

void bm_multicore_dispatch(benchmark::State& state, bool cross_shard) {
  AllocScope allocs(state);
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  constexpr int kRingSize = 4;
  constexpr int kTotalHops = 32768;
  const int laps_per_ring =
      kTotalHops / kRingSize / static_cast<int>(workers);
  RingSync sync;
  kompics::KompicsSystem sys(workers);
  std::vector<std::vector<RingNode*>> rings(workers);
  for (std::uint32_t r = 0; r < workers; ++r) {
    for (int i = 0; i < kRingSize; ++i) {
      auto& node = sys.create<RingNode>(
          "ring" + std::to_string(r) + "_n" + std::to_string(i),
          i == 0 ? &sync : nullptr);
      // Pin before connect: placement decides local vs escalated mode.
      sys.pin_home(node, cross_shard ? (r + static_cast<std::uint32_t>(i)) %
                                           workers
                                     : r);
      rings[r].push_back(&node);
    }
    for (int i = 0; i < kRingSize; ++i) {
      sys.connect(rings[r][static_cast<std::size_t>(i)]->out(),
                  rings[r][static_cast<std::size_t>((i + 1) % kRingSize)]->in());
    }
  }
  for (auto _ : state) {
    sync.reset();
    for (auto& ring : rings) ring[0]->arm(laps_per_ring);
    for (auto& ring : rings) ring[0]->inject();
    sync.wait_for(static_cast<int>(workers));
  }
  state.SetItemsProcessed(state.iterations() * kTotalHops);
  sys.shutdown();
}

void BM_MultiCoreDispatch(benchmark::State& state) {
  bm_multicore_dispatch(state, /*cross_shard=*/false);
}
void BM_MultiCoreDispatchCross(benchmark::State& state) {
  bm_multicore_dispatch(state, /*cross_shard=*/true);
}
BENCHMARK(BM_MultiCoreDispatch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
BENCHMARK(BM_MultiCoreDispatchCross)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_PayloadGeneration(benchmark::State& state) {
  AllocScope allocs(state);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    auto p = apps::make_payload_slice(offset, 65000);
    offset += 65000;
    benchmark::DoNotOptimize(p.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
}
BENCHMARK(BM_PayloadGeneration);

void BM_PayloadVerify(benchmark::State& state) {
  const wire::BufSlice chunk = apps::make_payload_slice(0, 65000);
  AllocScope allocs(state);
  for (auto _ : state) {
    bool ok = apps::verify_payload(0, chunk.span());
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
}
BENCHMARK(BM_PayloadVerify);

void BM_Crc32(benchmark::State& state) {
  const auto bytes = random_bytes(65000, 11);
  AllocScope allocs(state);
  for (auto _ : state) {
    std::uint32_t crc = wire::crc32(bytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 65000);
}
BENCHMARK(BM_Crc32);

}  // namespace

// Build-type annotation (bench credibility): the schema check refuses numbers
// from unoptimized builds, so the binary records how it was compiled.
#ifndef KMSG_BUILD_TYPE
#define KMSG_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kmsg_build_type", KMSG_BUILD_TYPE);
#ifdef NDEBUG
  benchmark::AddCustomContext("kmsg_asserts", "off");
#else
  benchmark::AddCustomContext("kmsg_asserts", "on");
#endif
#ifdef KMSG_SANITIZED
  benchmark::AddCustomContext("kmsg_sanitized", "yes");
#else
  benchmark::AddCustomContext("kmsg_sanitized", "no");
#endif
  // The kernel paths this CPU runs: rows timed on other paths are not
  // comparable to the committed numbers.
  benchmark::AddCustomContext("kmsg_crc32_fold_width",
                              std::to_string(wire::crc32_fold_width()));
  benchmark::AddCustomContext("kmsg_payload_kernel_width",
                              std::to_string(apps::payload_kernel_width()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
