// Zero-copy pipeline guarantees:
//  - the wire format is byte-identical to the pre-slice encoder (golden hex);
//  - slices are safe views: they outlive their producers and the pool never
//    recycles a slab that a live slice still pins;
//  - the serialise -> frame -> decode -> deserialise path moves no payload
//    byte: the envelope and frame header are written in front of the
//    payload, in the slab its producer wrote, and the receiver gets a view
//    of those same bytes (SlabPool copy counters); a second serialisation
//    of the same payload copies it, counted;
//  - the stream transports send views of the written slices, two for a
//    segment straddling two writes, and deliver views of them: 65 kB frames
//    cross TCP, UDT and LEDBAT without a copied byte;
//  - the payload generator and verifier, on every kernel path, match the
//    payload's byte-wise definition at every alignment and length;
//  - the simulator schedules and runs events without heap allocations once
//    its containers are warm (counting global operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/messages.hpp"
#include "common/rng.hpp"
#include "messaging/serialization.hpp"
#include "netsim/topology.hpp"
#include "sim/simulator.hpp"
#include "transport/ledbat.hpp"
#include "transport/tcp.hpp"
#include "transport/udt.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"

// Counting allocator: this test binary tracks every global allocation so the
// simulator hot path can be pinned allocation-free.
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

namespace kmsg {
namespace {

using messaging::Address;
using messaging::BasicHeader;
using messaging::DataHeader;
using messaging::SerializerRegistry;
using messaging::Transport;
using wire::BufSlice;
using wire::SlabPool;

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

SerializerRegistry make_registry() {
  SerializerRegistry reg;
  apps::register_app_serializers(reg);
  return reg;
}

// Golden encodings captured from the pre-refactor (vector-based) encoder.
// The slice pipeline must reproduce them bit for bit: this is the on-wire
// compatibility contract.
constexpr const char* kGoldenPing =
    "20000000010064070000000200c809012a00000000075bcd15";
constexpr const char* kGoldenChunk =
    "10000000010064000000000200c800020380010110079277badc86e15d6373e32ef07584"
    "80";
constexpr const char* kGoldenPingFrame =
    "000000197fd0ddb220000000010064070000000200c809012a00000000075bcd15";

apps::PingMsg golden_ping() {
  return apps::PingMsg{
      BasicHeader{Address{1, 100, 7}, Address{2, 200, 9}, Transport::kTcp}, 42,
      123456789};
}

TEST(GoldenWireTest, PingEnvelopeBytesUnchanged) {
  auto reg = make_registry();
  auto bytes = reg.serialize(golden_ping());
  ASSERT_TRUE(bytes);
  EXPECT_EQ(to_hex(bytes->span()), kGoldenPing);
}

TEST(GoldenWireTest, DataChunkEnvelopeBytesUnchanged) {
  auto reg = make_registry();
  apps::DataChunkMsg chunk{
      DataHeader{Address{1, 100}, Address{2, 200}, Transport::kUdt}, 3, 128,
      apps::make_payload_slice(128, 16), true};
  auto bytes = reg.serialize(chunk);
  ASSERT_TRUE(bytes);
  EXPECT_EQ(to_hex(bytes->span()), kGoldenChunk);
}

TEST(GoldenWireTest, FramedPingBytesUnchanged) {
  auto reg = make_registry();
  auto bytes = reg.serialize(golden_ping());
  ASSERT_TRUE(bytes);
  // In-place slice framing and the legacy vector framing must agree.
  const auto legacy = wire::encode_frame(bytes->span());
  auto framed = wire::encode_frame_slice(std::move(*bytes));
  EXPECT_EQ(to_hex(framed.span()), kGoldenPingFrame);
  EXPECT_EQ(to_hex({legacy.data(), legacy.size()}), kGoldenPingFrame);
}

TEST(GoldenWireTest, GoldenBytesDeserialize) {
  auto reg = make_registry();
  std::vector<std::uint8_t> raw;
  for (const char* p = kGoldenPing; *p != '\0'; p += 2) {
    raw.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(p, p + 2), nullptr, 16)));
  }
  auto msg = reg.deserialize(BufSlice::copy_of({raw.data(), raw.size()}));
  ASSERT_NE(msg, nullptr);
  const auto& ping = dynamic_cast<const apps::PingMsg&>(*msg);
  EXPECT_EQ(ping.seq(), 42u);
  EXPECT_EQ(ping.sent_at_nanos(), 123456789);
  EXPECT_EQ(ping.header().source(), (Address{1, 100, 7}));
  EXPECT_EQ(ping.header().destination(), (Address{2, 200, 9}));
}

// --- Slice lifetime / aliasing ---

TEST(SliceLifetimeTest, SliceOutlivesProducerBuffer) {
  BufSlice s;
  {
    wire::ByteBuf buf{32};
    buf.write_u32(0xCAFEBABE);
    buf.write_string("still here");
    s = std::move(buf).take_slice();
  }  // buf destroyed; the slice keeps the slab alive
  auto rd = wire::ByteBuf::wrap(s);
  EXPECT_EQ(rd.read_u32(), 0xCAFEBABEu);
  EXPECT_EQ(rd.read_string(), "still here");
}

TEST(SliceLifetimeTest, DecodedFramesOutliveDecoder) {
  std::vector<BufSlice> frames;
  {
    wire::FrameDecoder dec;
    dec.set_on_frame([&](BufSlice f) { frames.push_back(std::move(f)); });
    for (int i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> payload(100, static_cast<std::uint8_t>(i));
      EXPECT_TRUE(dec.feed(wire::encode_frame(payload)));
    }
  }  // decoder destroyed; emitted frames pin the slab it wrote
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(frames[i].size(), 100u);
    for (const std::uint8_t b : frames[i].span()) {
      ASSERT_EQ(b, static_cast<std::uint8_t>(i));
    }
  }
}

TEST(SliceLifetimeTest, PoolNeverHandsOutLiveSlab) {
  const std::vector<std::uint8_t> pattern(200, 0xA5);
  BufSlice live = BufSlice::copy_of({pattern.data(), pattern.size()});
  // Churn the same size class hard while `live` pins its slab.
  for (int i = 0; i < 100; ++i) {
    BufSlice other = BufSlice::copy_of({pattern.data(), pattern.size()});
    EXPECT_NE(other.data(), live.data());
  }
  for (const std::uint8_t b : live.span()) ASSERT_EQ(b, 0xA5);
}

TEST(SliceLifetimeTest, SubSlicesShareOneSlab) {
  wire::ByteBuf buf{64};
  for (std::uint32_t i = 0; i < 16; ++i) buf.write_u32(i);
  BufSlice whole = std::move(buf).take_slice();
  BufSlice a = whole.slice(0, 32);
  BufSlice b = whole.slice(32, 32);
  EXPECT_EQ(whole.ref_count(), 3u);
  EXPECT_EQ(a.data() + 32, b.data());
  whole = BufSlice{};  // the sub-slices alone keep the slab alive
  EXPECT_EQ(a.ref_count(), 2u);
  auto rd = wire::ByteBuf::wrap(b);
  EXPECT_EQ(rd.read_u32(), 8u);
}

// --- Copy accounting: the tentpole regression test ---

TEST(ZeroCopyPathTest, EndToEndMovesNoPayloadBytes) {
  auto reg = make_registry();

  // Incompressible payload, generated straight into a pooled slab — the
  // only write of the payload's life.
  const std::size_t kPayload = 4096;
  apps::DataChunkMsg chunk{
      DataHeader{Address{1, 100}, Address{2, 200}, Transport::kTcp}, 7, 0,
      apps::make_payload_slice(0, kPayload), false};

  SlabPool::instance().reset_stats();

  // Sender: serialise (the envelope goes in front of the payload, in its
  // slab), try compression (incompressible: the message goes on untagged
  // and untouched), frame (header in front of the envelope).
  auto envelope = reg.serialize(chunk);
  ASSERT_TRUE(envelope);
  auto encoded = wire::compress(std::move(*envelope));
  auto framed = wire::encode_frame_slice(std::move(encoded));

  // Receiver: decode the frame in place and, finding no codec tag,
  // deserialise with the chunk payload as a view of the frame's slab.
  messaging::MsgPtr delivered;
  wire::FrameDecoder dec;
  dec.set_on_frame([&](BufSlice frame) {
    ASSERT_GE(frame[0], wire::kReservedTypeIds) << "message was tagged";
    delivered = reg.deserialize(std::move(frame));
  });
  ASSERT_TRUE(dec.feed(framed));
  ASSERT_NE(delivered, nullptr);

  const auto& got = dynamic_cast<const apps::DataChunkMsg&>(*delivered);
  EXPECT_TRUE(apps::verify_payload(0, got.bytes()));
  // The delivered payload is a view inside the sender's framed slab, and
  // that is where the generator wrote it: same bytes end to end.
  EXPECT_EQ(got.bytes().data(),
            framed.data() + framed.size() - kPayload);
  EXPECT_EQ(got.bytes().data(), chunk.payload_slice().data());

  const auto stats = SlabPool::instance().stats();
  EXPECT_EQ(stats.payload_bytes_copied, 0u)
      << "payload was copied after the generator wrote it";
  EXPECT_EQ(stats.grow_bytes_copied, 0u)
      << "serialisation buffer was sized wrong and had to grow";
}

TEST(ZeroCopyPathTest, SecondSerialisationOfAPayloadIsACountedCopy) {
  auto reg = make_registry();
  const std::size_t kPayload = 65'000;
  const apps::DataChunkMsg chunk{
      DataHeader{Address{1, 100}, Address{2, 200}, Transport::kData}, 7,
      130'000, apps::make_payload_slice(130'000, kPayload), false};
  // The clone shares the payload slice, as the interceptor's are.
  const messaging::MsgPtr clone = chunk.with_protocol(Transport::kUdt);

  const auto copied = [] {
    return SlabPool::instance().stats().payload_bytes_copied;
  };
  const std::uint64_t copied0 = copied();
  auto first = reg.serialize(chunk);
  ASSERT_TRUE(first);
  const std::uint64_t copied1 = copied();
  auto second = reg.serialize(*clone);
  ASSERT_TRUE(second);
  const std::uint64_t copied2 = copied();
  EXPECT_EQ(copied1 - copied0, 0u) << "the first serialisation copied";
  EXPECT_EQ(copied2 - copied1, kPayload) << "the second was not counted";

  std::vector<messaging::MsgPtr> delivered;
  wire::FrameDecoder dec;
  dec.set_on_frame([&](BufSlice frame) {
    delivered.push_back(reg.deserialize(std::move(frame)));
  });
  ASSERT_TRUE(dec.feed(wire::encode_frame_slice(std::move(*first))));
  ASSERT_TRUE(dec.feed(wire::encode_frame_slice(std::move(*second))));
  ASSERT_EQ(delivered.size(), 2u);
  const Transport protocols[] = {Transport::kData, Transport::kUdt};
  // The first frame carries the generator's bytes, the second a copy.
  const bool generators[] = {true, false};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_NE(delivered[i], nullptr);
    const auto& got = dynamic_cast<const apps::DataChunkMsg&>(*delivered[i]);
    EXPECT_EQ(got.header().protocol(), protocols[i]);
    EXPECT_EQ(got.offset(), 130'000u);
    EXPECT_TRUE(apps::verify_payload(got.offset(), got.bytes()));
    EXPECT_EQ(got.bytes().data() == chunk.payload_slice().data(),
              generators[i]);
  }
}

// --- Transport send path: segments alias the written frames ---

/// Writes 64 retained 65,000-byte frames through one `Conn` over a clean
/// EU-VPC pair. The connection pins each frame until the peer acknowledges
/// all of it, then lets go. Its segments are views of the frames, two views
/// for a segment straddling two frames, so no payload byte is copied, first
/// transmission or resend (UDP's policer on EU-VPC makes UDT and LEDBAT
/// resend); and the receiver is handed views of the same frames.
template <typename Conn, typename Listener>
void expect_segments_alias_written_frames() {
  constexpr std::size_t kFrames = 64;
  constexpr std::size_t kFrameBytes = 65'000;
  constexpr std::uint64_t kTotal = kFrames * kFrameBytes;
  sim::Simulator sim;
  netsim::Network net(sim, 1);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(),
                      netsim::link_config_for(netsim::Setup::kEuVpc));
  std::vector<BufSlice> frames;
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames.push_back(apps::make_payload_slice(i * kFrameBytes, kFrameBytes));
  }
  const auto inside_a_frame = [&frames](const BufSlice& d) {
    return std::any_of(frames.begin(), frames.end(), [&d](const BufSlice& f) {
      return d.data() >= f.data() && d.data() + d.size() <= f.data() + f.size();
    });
  };
  std::vector<std::uint8_t> received;
  std::size_t foreign = 0;  ///< delivered runs that are not views of a frame
  std::shared_ptr<Conn> server;
  Listener listener(b, 80, typename Conn::Config{}, [&](std::shared_ptr<Conn> c) {
    server = std::move(c);
    server->set_on_data([&](const BufSlice& d) {
      if (!d.owning() || !inside_a_frame(d)) ++foreign;
      received.insert(received.end(), d.span().begin(), d.span().end());
    });
  });
  auto client = Conn::connect(a, b.id(), 80);

  const std::uint64_t copied0 = SlabPool::instance().stats().payload_bytes_copied;
  for (const BufSlice& f : frames) ASSERT_EQ(client->write(f), kFrameBytes);

  const TimePoint limit = TimePoint::zero() + Duration::seconds(30.0);
  while (client->stats().bytes_acked < kTotal && sim.now() < limit) {
    sim.run_until(sim.now() + Duration::millis(1));
    const std::uint64_t acked = client->stats().bytes_acked;
    for (std::size_t i = 0; i < kFrames; ++i) {
      if ((i + 1) * kFrameBytes > acked) {
        ASSERT_GT(frames[i].ref_count(), 1u) << "frame " << i << " released early";
      }
    }
  }
  ASSERT_EQ(client->stats().bytes_acked, kTotal);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(frames[i].ref_count(), 1u) << "frame " << i << " still pinned";
  }
  EXPECT_EQ(received.size(), kTotal);
  EXPECT_TRUE(apps::verify_payload(0, received));
  EXPECT_EQ(SlabPool::instance().stats().payload_bytes_copied, copied0)
      << "a segment copied payload bytes";
  EXPECT_EQ(foreign, 0u) << "delivered runs that are not views of a frame";
}

TEST(ZeroCopySendTest, TcpSegmentsAliasWrittenFrames) {
  expect_segments_alias_written_frames<transport::TcpConnection,
                                       transport::TcpListener>();
}

TEST(ZeroCopySendTest, UdtSegmentsAliasWrittenFrames) {
  expect_segments_alias_written_frames<transport::UdtConnection,
                                       transport::UdtListener>();
}

TEST(ZeroCopySendTest, LedbatSegmentsAliasWrittenFrames) {
  expect_segments_alias_written_frames<transport::LedbatConnection,
                                       transport::LedbatListener>();
}

// --- Payload generator: one hash per 8-byte word, 8 words per vector ---

TEST(PayloadTest, VerifiesChunksGeneratedAtAnyOffset) {
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{12'345}, (std::uint64_t{1} << 40) + 3}) {
    const BufSlice chunk = apps::make_payload_slice(offset, 65'000);
    ASSERT_EQ(chunk.size(), 65'000u);
    EXPECT_TRUE(apps::verify_payload(offset, chunk.span())) << offset;
    // A byte depends on its position only: any sub-range of a chunk is the
    // chunk generated at that sub-range's offset, whatever its alignment.
    for (const std::size_t skip : {1u, 5u, 8u, 13u}) {
      const BufSlice part = apps::make_payload_slice(offset + skip, 29);
      EXPECT_EQ(to_hex(part.span()), to_hex(chunk.span().subspan(skip, 29)))
          << offset << "+" << skip;
    }
  }
  EXPECT_TRUE(apps::verify_payload(7, {}));
}

TEST(PayloadTest, RejectsEverySingleByteFlip) {
  // 2^40 + 3 leaves a 5-byte unaligned head; 65,000 bytes later a 3-byte
  // tail follows the last whole word. The 8,124 whole words between them
  // make 1,015 8-word vectors, which the vector verifier tests in blocks of
  // 256 words (31 full blocks and one of 23 vectors), and 4 words after.
  const std::uint64_t offset = (std::uint64_t{1} << 40) + 3;
  const BufSlice chunk = apps::make_payload_slice(offset, 65'000);
  std::vector<std::uint8_t> bytes(chunk.data(), chunk.data() + chunk.size());
  ASSERT_TRUE(apps::verify_payload(offset, bytes));
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 16; ++i) positions.push_back(i);  // head
  // A window straddling a word boundary (offset + 32,501 is a multiple of 8).
  for (std::size_t i = 32'490; i < 32'512; ++i) positions.push_back(i);
  for (std::size_t i = 64'984; i < 65'000; ++i) positions.push_back(i);  // tail
  // One byte in each lane of the first two vectors, and in the words at
  // each edge of the first block, the last full block, the partial block
  // and the scalar words after it.
  constexpr std::size_t kHead = 5;
  std::vector<std::size_t> words;
  for (std::size_t w = 0; w < 16; ++w) words.push_back(w);
  for (const std::size_t w : {255, 256, 7'935, 7'936, 8'119, 8'120, 8'123}) {
    words.push_back(w);
  }
  for (const std::size_t w : words) positions.push_back(kHead + 8 * w + w % 8);
  for (const std::size_t i : positions) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      bytes[i] ^= mask;
      EXPECT_FALSE(apps::verify_payload(offset, bytes)) << "byte " << i;
      bytes[i] ^= mask;
    }
  }
  EXPECT_TRUE(apps::verify_payload(offset, bytes));
}

/// The payload's definition, one byte at a time: byte p is byte p & 7 of
/// splitmix64(p >> 3), little-endian.
std::vector<std::uint8_t> reference_payload(std::uint64_t offset,
                                            std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    std::uint64_t word = (offset + i) >> 3;
    out[i] = static_cast<std::uint8_t>(splitmix64(word) >>
                                       (8 * ((offset + i) & 7)));
  }
  return out;
}

TEST(PayloadTest, MatchesTheReferenceAtEveryAlignmentAndLength) {
  // Every head (offsets 0-15 and 2^40 + 3) meets every length up to
  // 75 words: no vectors, one to nine 8-word vectors with each remainder of
  // the four-vector steps, and every 0-7 words and 0-7 bytes after them.
  std::printf("payload kernel width on this CPU: %u bits\n",
              apps::payload_kernel_width());
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t o = 0; o < 16; ++o) offsets.push_back(o);
  offsets.push_back((std::uint64_t{1} << 40) + 3);
  for (const std::uint64_t offset : offsets) {
    const std::vector<std::uint8_t> ref = reference_payload(offset, 600);
    for (std::size_t len = 0; len <= 600; ++len) {
      const BufSlice got = apps::make_payload_slice(offset, len);
      ASSERT_EQ(got.size(), len);
      ASSERT_TRUE(std::equal(got.data(), got.data() + len, ref.begin()))
          << "offset " << offset << " len " << len;
      ASSERT_TRUE(apps::verify_payload(offset, got.span()))
          << "offset " << offset << " len " << len;
    }
  }
  const BufSlice chunk = apps::make_payload_slice(12'345, 65'000);
  const std::vector<std::uint8_t> ref = reference_payload(12'345, 65'000);
  EXPECT_TRUE(std::equal(chunk.data(), chunk.data() + chunk.size(),
                         ref.begin(), ref.end()));
}

TEST(PayloadTest, ChunkStaysIncompressible) {
  const BufSlice chunk = apps::make_payload_slice(12'345, 65'000);
  const std::uint8_t* at = chunk.data();
  const BufSlice wire_form = wire::compress(chunk);
  // No codec tag and no copy: compression could not shrink the chunk.
  EXPECT_EQ(wire_form.data(), at);
  EXPECT_EQ(wire_form.size(), 65'000u);
}

// --- Simulator hot path: allocation-free once warm ---

TEST(SimAllocTest, SteadyStateSchedulingIsAllocationFree) {
  sim::Simulator sim;
  const auto round = [&sim] {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(Duration::micros(i % 97), [] {});
    }
    return sim.run();
  };
  EXPECT_EQ(round(), 1000u);  // warm-up: grows queue + slot table capacity
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(round(), 1000u);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
      << "scheduling/running events allocated on a warm simulator";
}

TEST(SimAllocTest, CancellationNeedsNoAllocation) {
  sim::Simulator sim;
  auto warm = sim.schedule_after(Duration::millis(1), [] {});
  warm.cancel();
  sim.run();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    auto h = sim.schedule_after(Duration::millis(1), [] {});
    h.cancel();
    EXPECT_TRUE(h.cancelled());
  }
  sim.run();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace kmsg
