// Seeded mutation tests for the byte decoders on the receive path.
//
// Every decoder that reads bytes off the wire must survive adversarial
// input: no crash, no read outside its input (ASan and UBSan check that in
// the sanitizer build), and no message larger than the bytes it came from.
// The frame decoder must also deliver exactly what a reference framer in
// this file reads from the same bytes. Valid inputs — plain and coalesced
// frames, snappy blocks, delta keyframes and diffs (the 63-field maximum
// schema included), and the serialised form of every app, supervision and
// reliable-channel message and of the vnode example's chat message, with and
// without a route — are mutated with bit flips, byte overwrites,
// truncation, insertion and deletion. Seeds and the iteration budget are
// fixed, so every run decodes the same inputs, and a failure names its
// target, seed and iteration on one line: from a failed check, or from a
// crash handler (the sanitizers' death callback in a sanitized build).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "apps/chat.hpp"
#include "apps/messages.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "messaging/reliable.hpp"
#include "messaging/serialization.hpp"
#include "messaging/supervision.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define KMSG_FUZZ_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define KMSG_FUZZ_SANITIZED 1
#endif
#endif
#ifdef KMSG_FUZZ_SANITIZED
#include <sanitizer/common_interface_defs.h>
#endif

namespace kmsg {
namespace {

using messaging::Address;
using messaging::BasicHeader;
using messaging::Transport;
using Bytes = std::vector<std::uint8_t>;

constexpr std::array<std::uint64_t, 3> kSeeds = {1, 2, 3};
constexpr int kIterations = 25000;  // per seed and target

// --- The case in flight -------------------------------------------------------

/// One line naming the current target, seed and iteration, formatted when
/// the case starts so the crash handler only has to write it out.
char g_case_line[128] = "decoder_fuzz: no case running\n";

void set_case(const char* target, std::uint64_t seed, int iteration) {
  std::snprintf(g_case_line, sizeof(g_case_line),
                "decoder_fuzz target=%s seed=%llu iteration=%d\n", target,
                static_cast<unsigned long long>(seed), iteration);
}

std::string case_line() { return g_case_line; }

void write_case_line() {
  const std::size_t n = std::char_traits<char>::length(g_case_line);
  [[maybe_unused]] const ssize_t w = ::write(STDERR_FILENO, g_case_line, n);
}

#ifdef KMSG_FUZZ_SANITIZED
const bool g_crash_report_installed = [] {
  __sanitizer_set_death_callback(write_case_line);
  return true;
}();
#else
extern "C" void report_and_die(int sig) {
  write_case_line();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}
const bool g_crash_report_installed = [] {
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(sig, report_and_die);
  }
  return true;
}();
#endif

/// Reads every byte of a decoded message, so a view past the end of its
/// allocation trips the address sanitizer.
std::uint64_t g_sink = 0;
void touch(std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) g_sink += b;
}

// --- Mutations ----------------------------------------------------------------

/// Applies one to four seeded edits to a valid input: bit flip, byte
/// overwrite, truncation, insertion of 1..4 bytes, or deletion of one byte.
Bytes mutate(Bytes v, Rng& rng) {
  const std::uint64_t edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t n = v.size();
    switch (rng.next_below(5)) {
      case 0:
        if (n != 0) v[rng.next_below(n)] ^= 1u << rng.next_below(8);
        break;
      case 1:
        if (n != 0) v[rng.next_below(n)] = static_cast<std::uint8_t>(rng.next());
        break;
      case 2:
        v.resize(rng.next_below(n + 1));
        break;
      case 3: {
        const auto at = static_cast<std::ptrdiff_t>(rng.next_below(n + 1));
        const std::uint64_t k = 1 + rng.next_below(4);
        for (std::uint64_t j = 0; j < k; ++j) {
          v.insert(v.begin() + at, static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
      default:
        if (n != 0) {
          v.erase(v.begin() + static_cast<std::ptrdiff_t>(rng.next_below(n)));
        }
        break;
    }
  }
  return v;
}

Bytes bytes_of(const wire::BufSlice& s) { return {s.data(), s.data() + s.size()}; }

/// What a correct frame decoder delivers from a whole stream, worked out
/// the slow way: the messages in order, and whether the stream is poisoned
/// (oversized length, CRC mismatch or malformed sub-message length — the
/// messages of a coalesced frame before a malformed length still count).
struct Framed {
  std::vector<Bytes> msgs;
  bool poisoned = false;
};

Framed reference_decode(const Bytes& in) {
  Framed out;
  auto u32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(in[at]) << 24 |
           static_cast<std::uint32_t>(in[at + 1]) << 16 |
           static_cast<std::uint32_t>(in[at + 2]) << 8 |
           static_cast<std::uint32_t>(in[at + 3]);
  };
  for (std::size_t pos = 0; in.size() - pos >= wire::kFrameHeaderBytes;) {
    const bool coalesced = (u32(pos) >> 31) != 0;
    const std::size_t len = u32(pos) & 0x7FFFFFFFu;
    if (len > wire::kDefaultMaxFrameBytes) {
      out.poisoned = true;
      return out;
    }
    if (in.size() - pos - wire::kFrameHeaderBytes < len) return out;
    const std::span<const std::uint8_t> payload{
        in.data() + pos + wire::kFrameHeaderBytes, len};
    const std::uint32_t crc = wire::crc32(payload);
    if ((coalesced ? ~crc : crc) != u32(pos + 4)) {
      out.poisoned = true;
      return out;
    }
    pos += wire::kFrameHeaderBytes + len;
    if (!coalesced) {
      out.msgs.emplace_back(payload.begin(), payload.end());
      continue;
    }
    for (std::size_t at = 0; at < len;) {
      std::uint64_t n = 0;
      bool terminated = false;
      for (int shift = 0; at < len && shift < 64; shift += 7) {
        const std::uint8_t b = payload[at++];
        n |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          terminated = true;
          break;
        }
      }
      if (!terminated || n > len - at) {
        out.poisoned = true;
        return out;
      }
      out.msgs.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(at),
                            payload.begin() + static_cast<std::ptrdiff_t>(at + n));
      at += n;
    }
  }
  return out;
}

// --- Valid inputs -----------------------------------------------------------

const Address kSrc{1, 1000, 0};
const Address kDst{2, 2000, 3};

/// Type id of a schema at the 63-field maximum (64 delta regions).
constexpr std::uint32_t kWideTypeId = 0x7E;

std::shared_ptr<messaging::SerializerRegistry> make_registry() {
  auto reg = std::make_shared<messaging::SerializerRegistry>();
  apps::register_app_serializers(*reg);
  apps::register_app_delta_schemas(*reg);
  messaging::register_supervision_serializers(*reg);
  messaging::register_reliable_serializers(*reg);
  apps::register_chat(*reg);
  reg->register_delta_schema(
      kWideTypeId,
      messaging::DeltaSchema{std::vector<messaging::FieldKind>(
          messaging::kDeltaSchemaMaxFields, messaging::FieldKind::kU8)});
  return reg;
}

apps::TelemetryMsg telemetry(std::uint64_t seq) {
  std::array<std::uint64_t, apps::TelemetryMsg::kReadings> readings{};
  for (std::size_t j = 0; j < readings.size(); ++j) readings[j] = 1000 + j;
  readings[seq % readings.size()] = seq;
  return {BasicHeader{kSrc, kDst, Transport::kTcp}, "sensor-7", seq,
          static_cast<std::uint8_t>(seq), readings};
}

/// Serialised bytes of every app, supervision and reliable-channel message
/// type.
std::vector<wire::BufSlice> every_message(
    const messaging::SerializerRegistry& reg) {
  const BasicHeader h{kSrc, kDst, Transport::kTcp};
  const apps::DataChunkMsg chunk{messaging::DataHeader{kSrc, kDst, Transport::kUdt},
                                 7, 4096, apps::make_payload_slice(4096, 200),
                                 true};
  const apps::TransferCompleteMsg done{h, 7, 1 << 20};
  const apps::PingMsg ping{h, 11, 123456789};
  const apps::PongMsg pong{h, 11, 123456789};
  const messaging::HeartbeatMsg heartbeat{h, true, 42};
  const messaging::SessionHelloMsg hello{h, 3};
  const messaging::DeltaResetMsg reset{h, apps::kTelemetryTypeId};
  const messaging::ReliableEnvelope envelope{h, 9, *reg.serialize(ping)};
  const messaging::ReliableAck ack{h, 8};
  std::vector<wire::BufSlice> out;
  for (const messaging::Msg* m : std::initializer_list<const messaging::Msg*>{
           &chunk, &done, &ping, &pong, &heartbeat, &hello, &reset, &envelope,
           &ack}) {
    out.push_back(*reg.serialize(*m));
  }
  out.push_back(*reg.serialize(telemetry(5)));
  return out;
}

/// Envelope plus 63 one-byte fields; the first and last change with `seq`.
wire::BufSlice wide_message(std::uint8_t seq) {
  wire::ByteBuf buf{128, wire::kCodecHeadroomBytes + wire::kFrameHeaderBytes};
  buf.write_varint(kWideTypeId);
  kSrc.serialize(buf);
  kDst.serialize(buf);
  buf.write_u8(static_cast<std::uint8_t>(Transport::kTcp));
  for (std::size_t f = 0; f < messaging::kDeltaSchemaMaxFields; ++f) {
    const bool moving = f == 0 || f + 1 == messaging::kDeltaSchemaMaxFields;
    buf.write_u8(static_cast<std::uint8_t>(moving ? seq + f : f));
  }
  return std::move(buf).take_slice();
}

class DecoderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    level_ = Logger::level();
    Logger::set_level(LogLevel::kOff);  // malformed input is the point here
  }
  void TearDown() override { Logger::set_level(level_); }

  std::shared_ptr<messaging::SerializerRegistry> reg_ = make_registry();

 private:
  LogLevel level_ = LogLevel::kInfo;
};

// --- Targets ------------------------------------------------------------------

TEST_F(DecoderFuzzTest, FrameDecoderOverPlainAndCoalescedFrames) {
  // A stream of plain frames around two coalesced ones.
  struct Frame {
    Bytes payload;
    bool coalesced = false;
  };
  const auto msgs = every_message(*reg_);
  const std::vector<Frame> frames = {
      {bytes_of(msgs[2])},
      {bytes_of(wire::encode_wire_coalesced(std::span{msgs}.subspan(0, 4))), true},
      {bytes_of(msgs[7])},
      {bytes_of(wire::encode_wire_coalesced(std::span{msgs}.subspan(4))), true},
      {bytes_of(msgs[4])},
  };
  auto stream_of = [](const std::vector<Frame>& fs) {
    Bytes out;
    for (const Frame& f : fs) {
      const wire::BufSlice framed = wire::encode_frame_slice(
          wire::BufSlice::copy_of(f.payload), f.coalesced);
      out.insert(out.end(), framed.data(), framed.data() + framed.size());
    }
    return out;
  };
  const Bytes stream = stream_of(frames);

  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      set_case("frame", seed, i);
      // Half the cases damage the stream itself; the other half damage one
      // payload before it is framed, so its CRC holds and the coalesced
      // split sees the damage.
      Bytes input = stream;
      if (i != 0 && rng.next_below(2) == 0) {
        input = mutate(stream, rng);
      } else if (i != 0) {
        auto damaged = frames;
        Frame& f = damaged[rng.next_below(damaged.size())];
        f.payload = mutate(f.payload, rng);
        input = stream_of(damaged);
      }
      wire::FrameDecoder dec;
      std::vector<Bytes> delivered;
      dec.set_on_frame([&](wire::BufSlice m) {
        touch(m.span());
        delivered.push_back(bytes_of(m));
      });
      // Random chunk sizes, alternating at random between the copying
      // overload and the zero-copy one.
      bool ok = true;
      for (std::size_t pos = 0; ok && pos < input.size();) {
        const std::size_t n =
            std::min<std::size_t>(input.size() - pos, 1 + rng.next_below(96));
        const std::span<const std::uint8_t> chunk{input.data() + pos, n};
        ok = rng.next_below(2) == 0 ? dec.feed(chunk)
                                    : dec.feed(wire::BufSlice::copy_of(chunk));
        pos += n;
      }
      if (i == 0) {
        ASSERT_EQ(delivered.size(), msgs.size() + 3) << case_line();
        ASSERT_EQ(dec.coalesced_frames(), 2u) << case_line();
      }
      const Framed expected = reference_decode(input);
      ASSERT_EQ(delivered, expected.msgs) << case_line();
      ASSERT_EQ(dec.poisoned(), expected.poisoned) << case_line();
      ASSERT_EQ(ok, !dec.poisoned()) << case_line();
      if (!ok) {
        // A poisoned decoder stays dark.
        ASSERT_FALSE(dec.feed(std::span<const std::uint8_t>{stream}))
            << case_line();
        ASSERT_EQ(delivered.size(), expected.msgs.size()) << case_line();
      }
    }
  }
}

TEST_F(DecoderFuzzTest, Decompress) {
  std::vector<Bytes> blocks;
  Bytes phrase;
  while (phrase.size() < 600) {
    for (const char c : std::string_view{"kompics messaging snappy block "}) {
      phrase.push_back(static_cast<std::uint8_t>(c));
    }
  }
  blocks.push_back(bytes_of(wire::compress(wire::BufSlice::copy_of(phrase))));
  blocks.push_back(bytes_of(wire::compress(*reg_->serialize(telemetry(9)))));
  for (const Bytes& b : blocks) ASSERT_EQ(b.at(0), wire::kSnappyTag);

  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      set_case("decompress", seed, i);
      const Bytes& valid = blocks[rng.next_below(blocks.size())];
      const auto out = wire::decompress(wire::BufSlice::copy_of(mutate(valid, rng)));
      if (out) touch(out->span());
    }
  }
}

TEST_F(DecoderFuzzTest, DeltaDecoderAfterKeyframe) {
  // Keyframe and diff pairs for the telemetry schema and the 63-field one.
  struct Stream {
    Bytes keyframe;
    Bytes diff;
  };
  std::vector<Stream> streams;
  {
    messaging::DeltaEncoder enc(reg_.get(), /*keyframe_interval=*/64);
    Stream t;
    t.keyframe = bytes_of(enc.encode(apps::kTelemetryTypeId,
                                     *reg_->serialize(telemetry(1))));
    t.diff = bytes_of(enc.encode(apps::kTelemetryTypeId,
                                 *reg_->serialize(telemetry(2))));
    Stream w;
    w.keyframe = bytes_of(enc.encode(kWideTypeId, wide_message(1)));
    w.diff = bytes_of(enc.encode(kWideTypeId, wide_message(2)));
    ASSERT_EQ(enc.deltas_sent(), 2u);
    streams.push_back(std::move(t));
    streams.push_back(std::move(w));
  }

  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      set_case("delta", seed, i);
      const Stream& s = streams[rng.next_below(streams.size())];
      messaging::DeltaDecoder dec(reg_.get());
      ASSERT_EQ(dec.decode(wire::BufSlice::copy_of(s.keyframe)).status,
                messaging::DeltaDecoder::Status::kOk)
          << case_line();
      const Bytes& valid = rng.next_below(4) == 0 ? s.keyframe : s.diff;
      auto res = dec.decode(wire::BufSlice::copy_of(mutate(valid, rng)));
      if (res.status != messaging::DeltaDecoder::Status::kOk) continue;
      touch(res.msg.span());
      if (auto msg = reg_->deserialize(std::move(res.msg))) {
        g_sink += msg->type_id();
      }
    }
  }
}

TEST_F(DecoderFuzzTest, DeserializeEveryMessageType) {
  std::vector<Bytes> inputs;
  for (const wire::BufSlice& m : every_message(*reg_)) inputs.push_back(bytes_of(m));
  // The chat message reads a route of any length: one without hops, one
  // relayed across two.
  const BasicHeader chat_header{kSrc, kDst, Transport::kTcp};
  const apps::ChatMsg chat{chat_header, "hello lobby"};
  const apps::ChatMsg routed{
      chat_header, "routed hello",
      messaging::Route{{kDst.with_vnode(1), kDst.with_vnode(3)}, 1}};
  inputs.push_back(bytes_of(*reg_->serialize(chat)));
  inputs.push_back(bytes_of(*reg_->serialize(routed)));

  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      set_case("deserialize", seed, i);
      const Bytes input = mutate(inputs[rng.next_below(inputs.size())], rng);
      const auto msg = reg_->deserialize(wire::BufSlice::copy_of(input));
      if (!msg) continue;
      ASSERT_TRUE(reg_->knows(msg->type_id())) << case_line();
      // Payloads are views of the input: never larger, and readable.
      if (const auto* c = dynamic_cast<const apps::DataChunkMsg*>(msg.get())) {
        ASSERT_LE(c->bytes().size(), input.size()) << case_line();
        touch(c->bytes());
      }
      if (const auto* e =
              dynamic_cast<const messaging::ReliableEnvelope*>(msg.get())) {
        ASSERT_LE(e->payload().size(), input.size()) << case_line();
        touch(e->payload().span());
      }
      if (const auto* c = dynamic_cast<const apps::ChatMsg*>(msg.get())) {
        // Every hop is read off the input, at least one byte each.
        ASSERT_LE(c->text().size() + c->route().hops().size(), input.size())
            << case_line();
        touch({reinterpret_cast<const std::uint8_t*>(c->text().data()),
               c->text().size()});
        if (c->route().has_next()) g_sink += c->route().next_hop().vnode;
      }
    }
  }
}

}  // namespace
}  // namespace kmsg
