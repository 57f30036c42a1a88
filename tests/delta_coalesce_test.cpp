// Wire-efficiency tests: schema-aware delta encoding and frame coalescing.
//
// Four layers are covered. (1) The delta codec in isolation: diffs round-
// trip field-for-field (up to the 63-field schema maximum), keyframes follow
// the configured cadence, a decoder that lost its base asks for a reset and
// recovers, and malformed input is reported instead of trusted. (2) Coalesced
// frames: they split into zero-copy sub-slices, and a single bit flip
// poisons the whole frame exactly once — one CRC failure, no partial
// delivery. (3) The NetworkComponent end to end: delta + coalescing deliver
// every message in order with the expected stats, a DeltaReset forces a
// keyframe, and a crash/recover cycle never reconstructs a message against a
// pre-restart delta base (fencing by construction: fresh connection, fresh
// codec state). (4) Mixed configurations: the encoding switches are the
// sender's alone, so any two nodes interoperate whatever each one enables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "apps/experiment.hpp"
#include "apps/messages.hpp"
#include "kompics/system.hpp"
#include "messaging/network_component.hpp"
#include "messaging/serialization.hpp"
#include "messaging/supervision.hpp"
#include "netsim/topology.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"
#include "chaos_repro.hpp"

namespace kmsg {
namespace {

using messaging::DeltaDecoder;
using messaging::DeltaEncoder;
using messaging::SerializerRegistry;

// ---------------------------------------------------------------------------
// Shared fixtures: a registry with the telemetry schema, and self-validating
// telemetry messages — every field is a pure function of (seq), so a receiver
// can prove a message was NOT stitched together from a stale delta base.
// ---------------------------------------------------------------------------

std::shared_ptr<SerializerRegistry> make_registry() {
  auto r = std::make_shared<SerializerRegistry>();
  apps::register_app_serializers(*r);
  apps::register_app_delta_schemas(*r);
  return r;
}

constexpr const char* kDeviceId = "sensor-7";

std::array<std::uint64_t, apps::TelemetryMsg::kReadings> readings_for(
    std::uint64_t seq) {
  std::array<std::uint64_t, apps::TelemetryMsg::kReadings> r{};
  for (std::size_t j = 0; j < r.size(); ++j) r[j] = 1000 + j;
  r[seq % r.size()] = seq;
  return r;
}

messaging::MsgPtr make_telemetry(
    const messaging::Address& src, const messaging::Address& dst,
    std::uint64_t seq,
    messaging::Transport transport = messaging::Transport::kTcp) {
  messaging::BasicHeader h{src, dst, transport};
  return kompics::make_event<apps::TelemetryMsg>(
      h, kDeviceId, seq, static_cast<std::uint8_t>(seq & 0xff),
      readings_for(seq));
}

/// True iff every field of `t` is consistent with its own seq — a message
/// decoded against the wrong base fails this (some reading, the flags, or
/// the device id would belong to a different seq).
bool telemetry_self_consistent(const apps::TelemetryMsg& t) {
  if (t.device_id() != kDeviceId) return false;
  if (t.flags() != static_cast<std::uint8_t>(t.seq() & 0xff)) return false;
  return t.readings() == readings_for(t.seq());
}

// =====================================================================
// Delta codec unit tests
// =====================================================================

struct DeltaCodecTest : ::testing::Test {
  std::shared_ptr<SerializerRegistry> reg = make_registry();
  messaging::Address src{1, 1000, 0};
  messaging::Address dst{2, 2000, 0};

  wire::BufSlice serialize_seq(std::uint64_t seq) {
    auto s = reg->serialize(*make_telemetry(src, dst, seq));
    EXPECT_TRUE(s.has_value());
    return std::move(*s);
  }
};

TEST_F(DeltaCodecTest, DiffRoundTripRestoresEveryField) {
  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/64);
  DeltaDecoder dec(reg.get());

  std::size_t full_size = 0;
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    wire::BufSlice serialized = serialize_seq(seq);
    full_size = serialized.size();
    wire::BufSlice coded = enc.encode(apps::kTelemetryTypeId, serialized);
    if (seq > 0) {
      // Consecutive reports share the device id and most readings: the diff
      // must actually be smaller than the full message it replaces.
      EXPECT_LT(coded.size(), full_size) << "seq " << seq;
    }
    auto res = dec.decode(std::move(coded));
    ASSERT_EQ(res.status, DeltaDecoder::Status::kOk) << "seq " << seq;
    auto msg = reg->deserialize(std::move(res.msg));
    ASSERT_NE(msg, nullptr) << "seq " << seq;
    const auto* t = dynamic_cast<const apps::TelemetryMsg*>(msg.get());
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->seq(), seq);
    EXPECT_TRUE(telemetry_self_consistent(*t)) << "seq " << seq;
  }
  EXPECT_EQ(enc.keyframes_sent(), 1u);  // only the base-less first message
  EXPECT_EQ(enc.deltas_sent(), 19u);
  EXPECT_EQ(dec.keyframes_received(), 1u);
  EXPECT_EQ(dec.deltas_received(), 19u);
  EXPECT_GT(enc.bytes_saved(), 19u * full_size / 2)
      << "deltas saved less than half the stream";
}

TEST_F(DeltaCodecTest, KeyframeCadenceFollowsInterval) {
  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/4);
  DeltaDecoder dec(reg.get());
  for (std::uint64_t seq = 0; seq < 12; ++seq) {
    auto res = dec.decode(enc.encode(apps::kTelemetryTypeId, serialize_seq(seq)));
    ASSERT_EQ(res.status, DeltaDecoder::Status::kOk);
  }
  // seq 0, 4 and 8 refresh the base; everything between travels as a diff.
  EXPECT_EQ(enc.keyframes_sent(), 3u);
  EXPECT_EQ(enc.deltas_sent(), 9u);
  EXPECT_EQ(dec.keyframes_received(), 3u);
  EXPECT_EQ(dec.deltas_received(), 9u);
}

TEST_F(DeltaCodecTest, WholesaleChangeFallsBackToKeyframe) {
  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/64);
  enc.encode(apps::kTelemetryTypeId, serialize_seq(0));
  ASSERT_EQ(enc.keyframes_sent(), 1u);

  // A message where *every* region differs — envelope (other destination
  // vnode) and all body fields — would diff to more than the full message,
  // so the encoder must emit a keyframe instead.
  messaging::BasicHeader h{src, dst.with_vnode(9), messaging::Transport::kTcp};
  std::array<std::uint64_t, apps::TelemetryMsg::kReadings> r{};
  for (std::size_t j = 0; j < r.size(); ++j) r[j] = 0xdeadbeef00 + j;
  auto other = kompics::make_event<apps::TelemetryMsg>(
      h, "a-very-different-device", std::uint64_t{1} << 40, 0x5a, r);
  auto s = reg->serialize(*other);
  ASSERT_TRUE(s.has_value());
  enc.encode(apps::kTelemetryTypeId, std::move(*s));
  EXPECT_EQ(enc.keyframes_sent(), 2u) << "oversized diff was not demoted";
  EXPECT_EQ(enc.deltas_sent(), 0u);
}

TEST_F(DeltaCodecTest, FreshDecoderRequestsResetThenRecovers) {
  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/64);
  enc.encode(apps::kTelemetryTypeId, serialize_seq(0));  // keyframe, cached
  wire::BufSlice diff = enc.encode(apps::kTelemetryTypeId, serialize_seq(1));

  // A decoder that never saw the keyframe (restarted receiver) must not
  // guess: it reports kNeedReset with the type to refresh, delivers nothing.
  DeltaDecoder fresh(reg.get());
  auto res = fresh.decode(std::move(diff));
  EXPECT_EQ(res.status, DeltaDecoder::Status::kNeedReset);
  EXPECT_EQ(res.type_id, apps::kTelemetryTypeId);
  EXPECT_EQ(fresh.deltas_received(), 0u);

  // The sender honours the reset; the next message keyframes and the stream
  // recovers: diffs decode again.
  enc.reset(0);
  auto kf = fresh.decode(enc.encode(apps::kTelemetryTypeId, serialize_seq(2)));
  ASSERT_EQ(kf.status, DeltaDecoder::Status::kOk);
  EXPECT_EQ(fresh.keyframes_received(), 1u);
  auto d = fresh.decode(enc.encode(apps::kTelemetryTypeId, serialize_seq(3)));
  ASSERT_EQ(d.status, DeltaDecoder::Status::kOk);
  EXPECT_EQ(fresh.deltas_received(), 1u);
  auto msg = reg->deserialize(std::move(d.msg));
  ASSERT_NE(msg, nullptr);
  EXPECT_TRUE(telemetry_self_consistent(
      dynamic_cast<const apps::TelemetryMsg&>(*msg)));
}

TEST_F(DeltaCodecTest, MalformedInputIsReportedNotTrusted) {
  DeltaDecoder dec(reg.get());
  // Truncated varint after the diff tag.
  const std::uint8_t bad1[] = {wire::kDeltaDiffTag, 0xFF};
  EXPECT_EQ(dec.decode(wire::BufSlice::copy_of(bad1)).status,
            DeltaDecoder::Status::kMalformed);
  // Unknown tag byte.
  const std::uint8_t bad2[] = {0x7E, 0x01, 0x02};
  EXPECT_EQ(dec.decode(wire::BufSlice::copy_of(bad2)).status,
            DeltaDecoder::Status::kMalformed);
  // A diff for a type that never registered a schema (ping): diffs are only
  // ever produced for schema'd types, so this is corruption by definition.
  wire::ByteBuf buf{8};
  buf.write_u8(wire::kDeltaDiffTag);
  buf.write_varint(apps::kPingTypeId);
  buf.write_varint(0);
  EXPECT_EQ(dec.decode(std::move(buf).take_slice()).status,
            DeltaDecoder::Status::kMalformed);
  EXPECT_EQ(dec.deltas_received(), 0u);
}

TEST_F(DeltaCodecTest, SchemalessTypesAlwaysTravelAsKeyframes) {
  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/64);
  DeltaDecoder dec(reg.get());
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    messaging::BasicHeader h{src, dst, messaging::Transport::kTcp};
    auto ping = kompics::make_event<apps::PingMsg>(h, seq, 0);
    auto s = reg->serialize(*ping);
    ASSERT_TRUE(s.has_value());
    auto res = dec.decode(enc.encode(apps::kPingTypeId, std::move(*s)));
    ASSERT_EQ(res.status, DeltaDecoder::Status::kOk);
    auto msg = reg->deserialize(std::move(res.msg));
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(dynamic_cast<const apps::PingMsg&>(*msg).seq(), seq);
  }
  EXPECT_EQ(enc.keyframes_sent(), 5u);
  EXPECT_EQ(enc.deltas_sent(), 0u);
  EXPECT_EQ(enc.bytes_saved(), 0u);
}

TEST_F(DeltaCodecTest, MaximumSchemaOfSixtyThreeFieldsRoundTrips) {
  // 63 one-byte fields plus the envelope make 64 regions: the field mask
  // uses every bit of its 64-bit word, the last field included.
  constexpr std::uint32_t kWideTypeId = 0x7E;
  reg->register_delta_schema(
      kWideTypeId,
      messaging::DeltaSchema{std::vector<messaging::FieldKind>(
          messaging::kDeltaSchemaMaxFields, messaging::FieldKind::kU8)});
  auto wide = [&](std::uint8_t seq) {
    wire::ByteBuf buf{128, wire::kCodecHeadroomBytes + wire::kFrameHeaderBytes};
    buf.write_varint(kWideTypeId);
    src.serialize(buf);
    dst.serialize(buf);
    buf.write_u8(static_cast<std::uint8_t>(messaging::Transport::kTcp));
    for (std::size_t f = 0; f < messaging::kDeltaSchemaMaxFields; ++f) {
      // The first and the last field change with every message.
      const bool moving = f == 0 || f + 1 == messaging::kDeltaSchemaMaxFields;
      buf.write_u8(static_cast<std::uint8_t>(moving ? seq + f : f));
    }
    return std::move(buf).take_slice();
  };

  DeltaEncoder enc(reg.get(), /*keyframe_interval=*/64);
  DeltaDecoder dec(reg.get());
  for (std::uint8_t seq = 0; seq < 8; ++seq) {
    const wire::BufSlice serialized = wide(seq);
    auto res = dec.decode(enc.encode(kWideTypeId, serialized));
    ASSERT_EQ(res.status, DeltaDecoder::Status::kOk) << "seq " << int{seq};
    ASSERT_EQ(res.msg.size(), serialized.size());
    EXPECT_EQ(std::memcmp(res.msg.data(), serialized.data(), serialized.size()),
              0)
        << "seq " << int{seq};
  }
  EXPECT_EQ(enc.keyframes_sent(), 1u);
  EXPECT_EQ(enc.deltas_sent(), 7u);
  EXPECT_EQ(dec.deltas_received(), 7u);
}

// =====================================================================
// Coalesced frames and poison-on-corruption
// =====================================================================

wire::BufSlice sub_payload(std::uint8_t fill, std::size_t len) {
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::uint8_t>(fill + i);
  }
  return wire::BufSlice::copy_of({bytes.data(), bytes.size()});
}

TEST(CoalescedFrameTest, SplitsIntoZeroCopySubSlices) {
  std::vector<wire::BufSlice> subs;
  subs.push_back(sub_payload(0x10, 40));
  subs.push_back(sub_payload(0x80, 7));
  subs.push_back(sub_payload(0xC0, 200));
  wire::BufSlice framed = wire::encode_frame_slice(
      wire::encode_wire_coalesced(subs), /*coalesced=*/true);

  wire::FrameDecoder dec;
  std::vector<wire::BufSlice> out;
  dec.set_on_frame([&](wire::BufSlice s) { out.push_back(std::move(s)); });
  ASSERT_TRUE(dec.feed(framed));

  ASSERT_EQ(out.size(), subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ASSERT_EQ(out[i].size(), subs[i].size()) << "sub " << i;
    EXPECT_EQ(std::memcmp(out[i].data(), subs[i].data(), subs[i].size()), 0)
        << "sub " << i;
    // Zero-copy: each emitted message is a view into the fed frame's slab,
    // not a fresh allocation.
    EXPECT_GE(out[i].data(), framed.data()) << "sub " << i;
    EXPECT_LE(out[i].data() + out[i].size(), framed.data() + framed.size())
        << "sub " << i;
  }
  EXPECT_EQ(dec.frames_decoded(), 1u);
  EXPECT_EQ(dec.coalesced_frames(), 1u);
  EXPECT_EQ(dec.frames_corrupt(), 0u);
}

TEST(CoalescedFrameTest, BitFlipPoisonsWholeCoalescedFrameExactlyOnce) {
  std::vector<wire::BufSlice> subs;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(sub_payload(static_cast<std::uint8_t>(i * 16), 64));
  }
  wire::BufSlice framed = wire::encode_frame_slice(
      wire::encode_wire_coalesced(subs), /*coalesced=*/true);
  std::vector<std::uint8_t> bytes(framed.data(), framed.data() + framed.size());
  bytes[wire::kFrameHeaderBytes + 100] ^= 0x04;  // one bit, mid-payload

  wire::FrameDecoder dec;
  std::size_t delivered = 0;
  dec.set_on_frame([&](wire::BufSlice) { ++delivered; });
  // The CRC covers the whole coalesced payload: one flipped bit kills the
  // frame as a unit — no sub-message before or after the flip leaks out.
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>{bytes}));
  EXPECT_EQ(delivered, 0u) << "partial delivery from a corrupt frame";
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.frames_corrupt(), 1u);
  // A poisoned decoder stays dark: nothing more is delivered or counted.
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>{bytes}));
  EXPECT_EQ(dec.frames_corrupt(), 1u) << "one corrupt frame counted twice";
  EXPECT_EQ(delivered, 0u);
}

TEST(CoalescedFrameTest, FlippedFlagBitFailsTheCrc) {
  // The flag lives in the length word, outside the payload; the inverted
  // CRC of coalesced frames still catches a flip of it, either way.
  std::vector<wire::BufSlice> subs;
  subs.push_back(sub_payload(0x05, 12));
  for (const bool coalesced : {false, true}) {
    wire::BufSlice framed = wire::encode_frame_slice(
        coalesced ? wire::encode_wire_coalesced(subs) : sub_payload(0x05, 12),
        coalesced);
    std::vector<std::uint8_t> bytes(framed.data(),
                                    framed.data() + framed.size());
    bytes[0] ^= 0x80;
    wire::FrameDecoder dec;
    std::size_t delivered = 0;
    dec.set_on_frame([&](wire::BufSlice) { ++delivered; });
    EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>{bytes}));
    EXPECT_EQ(dec.frames_corrupt(), 1u) << "coalesced=" << coalesced;
    EXPECT_EQ(delivered, 0u) << "coalesced=" << coalesced;
  }
}

TEST(CoalescedFrameTest, MalformedSubMessageLengthPoisons) {
  // Coalesced payload whose varint length claims more bytes than remain.
  const std::uint8_t raw[] = {0x20, 1, 2, 3};
  const wire::BufSlice framed =
      wire::encode_frame_slice(wire::BufSlice::copy_of(raw), /*coalesced=*/true);
  wire::FrameDecoder dec;
  std::size_t delivered = 0;
  dec.set_on_frame([&](wire::BufSlice) { ++delivered; });
  EXPECT_FALSE(dec.feed(framed));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.frames_corrupt(), 1u);
  EXPECT_EQ(delivered, 0u);
}

// =====================================================================
// NetworkComponent end to end
// =====================================================================

/// Network-port probe collecting telemetry indications.
class WireProbe final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe_ptr<messaging::Msg>(*net_, [this](messaging::MsgPtr m) {
      messages.push_back(std::move(m));
    });
  }
  kompics::PortInstance& network() { return *net_; }
  void send(messaging::MsgPtr m) { trigger(std::move(m), *net_); }

  std::vector<std::uint64_t> telemetry_seqs() const {
    std::vector<std::uint64_t> seqs;
    for (const auto& m : messages) {
      const auto* t = dynamic_cast<const apps::TelemetryMsg*>(m.get());
      if (t != nullptr) seqs.push_back(t->seq());
    }
    return seqs;
  }
  std::size_t inconsistent_telemetry() const {
    std::size_t n = 0;
    for (const auto& m : messages) {
      const auto* t = dynamic_cast<const apps::TelemetryMsg*>(m.get());
      if (t != nullptr && !telemetry_self_consistent(*t)) ++n;
    }
    return n;
  }

  std::vector<messaging::MsgPtr> messages;

 private:
  kompics::PortInstance* net_ = nullptr;
};

TEST(WireEfficiencyConfigTest, EncodingSwitchesDefaultOff) {
  // The golden-frame tests pin the untagged wire format byte-for-byte;
  // every encoding feature must therefore be strictly opt-in.
  messaging::NetworkConfig nc;
  EXPECT_FALSE(nc.enable_delta);
  EXPECT_FALSE(nc.enable_coalescing);
  EXPECT_FALSE(nc.enable_compression);
}

TEST(WireEfficiencyComponentTest, DeltaPlusCoalescingDeliversInOrderWithSavings) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.net.enable_delta = true;
  cfg.net.enable_coalescing = true;
  apps::TwoNodeExperiment exp(cfg);
  apps::register_app_delta_schemas(*exp.registry());
  auto& probe_a = exp.system().create<WireProbe>("wire_probe_a");
  auto& probe_b = exp.system().create<WireProbe>("wire_probe_b");
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b.network());
  exp.start();

  constexpr std::uint64_t kMsgs = 96;
  std::uint64_t seq = 0;
  while (seq < kMsgs) {
    // Bursts: 16 reports hit the queue together so the coalescer has
    // frame-mates to pack, then the world runs past the latency budget.
    for (int i = 0; i < 16; ++i) {
      probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), seq++));
    }
    exp.run_for(Duration::millis(50));
  }
  exp.run_for(Duration::seconds(1.0));

  // Every message arrived, FIFO, and self-validates field-for-field.
  const auto seqs = probe_b.telemetry_seqs();
  ASSERT_EQ(seqs.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(seqs[i], i) << "telemetry reordered or lost";
  }
  EXPECT_EQ(probe_b.inconsistent_telemetry(), 0u);

  const auto& sa = exp.network_a().net_stats();
  const auto& sb = exp.network_b().net_stats();
  EXPECT_GE(sa.delta_keyframes_sent, 1u);
  EXPECT_GT(sa.deltas_sent, kMsgs / 2) << "most reports should diff";
  EXPECT_GT(sa.delta_bytes_saved, 0u);
  EXPECT_GE(sa.coalesced_frames_sent, 1u);
  EXPECT_GT(sa.coalesced_msgs_sent, sa.coalesced_frames_sent)
      << "coalesced frames must carry more than one message";
  EXPECT_EQ(sb.deltas_received, sa.deltas_sent);
  EXPECT_EQ(sb.deserialize_failures, 0u);
  EXPECT_EQ(sb.frames_corrupt, 0u);
  EXPECT_EQ(sb.delta_resets_sent, 0u) << "receiver lost its base mid-run";
  // The point of the exercise: framed wire bytes undercut the serialised
  // stream they carry (header amortisation + elided unchanged fields).
  EXPECT_LT(sa.wire_bytes_sent, sa.bytes_sent + kMsgs * wire::kFrameHeaderBytes);
}

TEST(WireEfficiencyComponentTest, DeltaOnlyNeverCoalesces) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.net.enable_delta = true;  // coalescing stays off
  apps::TwoNodeExperiment exp(cfg);
  apps::register_app_delta_schemas(*exp.registry());
  auto& probe_a = exp.system().create<WireProbe>("wire_probe_a");
  auto& probe_b = exp.system().create<WireProbe>("wire_probe_b");
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b.network());
  exp.start();

  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), seq));
  }
  exp.run_for(Duration::seconds(1.0));

  EXPECT_EQ(probe_b.telemetry_seqs().size(), 32u);
  EXPECT_EQ(probe_b.inconsistent_telemetry(), 0u);
  const auto& sa = exp.network_a().net_stats();
  EXPECT_GT(sa.deltas_sent, 0u);
  EXPECT_EQ(sa.coalesced_frames_sent, 0u);
  EXPECT_EQ(sa.coalesced_msgs_sent, 0u);
}

TEST(WireEfficiencyComponentTest, DeltaResetForcesKeyframe) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.net.enable_delta = true;
  apps::TwoNodeExperiment exp(cfg);
  apps::register_app_delta_schemas(*exp.registry());
  auto& probe_a = exp.system().create<WireProbe>("wire_probe_a");
  auto& probe_b = exp.system().create<WireProbe>("wire_probe_b");
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b.network());
  exp.start();

  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), seq));
  }
  exp.run_for(Duration::seconds(0.5));
  const auto before = exp.network_a().net_stats();
  ASSERT_GT(before.deltas_sent, 0u);
  ASSERT_EQ(before.delta_resets_received, 0u);

  // B asks A to refresh every type (a receiver that lost its bases). The
  // request is a normal message on B's network port; A's component
  // intercepts it before app delivery and drops its encoder bases.
  messaging::BasicHeader h{exp.addr_b(), exp.addr_a(),
                           messaging::Transport::kTcp};
  probe_b.send(kompics::make_event<messaging::DeltaResetMsg>(h, 0));
  exp.run_for(Duration::seconds(0.5));

  const auto mid = exp.network_a().net_stats();
  EXPECT_GE(mid.delta_resets_received, 1u);
  // The reset message is control traffic: it must never reach the app.
  EXPECT_TRUE(probe_a.telemetry_seqs().empty());
  for (const auto& m : probe_a.messages) {
    EXPECT_EQ(dynamic_cast<const messaging::DeltaResetMsg*>(m.get()), nullptr)
        << "DeltaResetMsg leaked to the application";
  }

  // The next report keyframes instead of diffing against the dropped base.
  probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), 100));
  exp.run_for(Duration::seconds(0.5));
  const auto after = exp.network_a().net_stats();
  EXPECT_GT(after.delta_keyframes_sent, mid.delta_keyframes_sent);
  EXPECT_EQ(after.deltas_sent, mid.deltas_sent);
  EXPECT_EQ(probe_b.inconsistent_telemetry(), 0u);
}

// Crash/recovery acceptance: no message is ever reconstructed from a
// pre-restart delta base. The telemetry stream is self-validating, so a
// single stale-base reconstruction would surface as an inconsistent message
// at the reborn receiver.
TEST(WireEfficiencyComponentTest, CrashRecoveryNeverDecodesAgainstStaleBase) {
  test::set_repro_seed(42);
  apps::ExperimentConfig cfg;
  cfg.net.enable_delta = true;
  cfg.net.enable_coalescing = true;
  cfg.net.delta_keyframe_interval = 1000;  // recovery must not lean on cadence
  cfg.net.tcp.initial_rto = Duration::millis(200);
  cfg.net.tcp.max_syn_retries = 2;
  cfg.net.tcp.max_data_retries = 3;
  cfg.net.session_reconnect_attempts = 2;
  cfg.net.session_reconnect_backoff = Duration::millis(100);
  cfg.net.dead_peer_probe_interval = Duration::millis(500);
  apps::TwoNodeExperiment exp(cfg);
  apps::register_app_delta_schemas(*exp.registry());
  auto& probe_a = exp.system().create<WireProbe>("wire_probe_a");
  auto& probe_b1 = exp.system().create<WireProbe>("wire_probe_b1");
  exp.connect_a(probe_a.network());
  exp.connect_b(probe_b1.network());
  exp.start();

  // Warm the delta stream: B caches bases for seq 0..31.
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 8; ++i) {
      probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), seq++));
    }
    exp.run_for(Duration::millis(100));
  }
  ASSERT_GT(probe_b1.telemetry_seqs().size(), 0u) << "stream never started";
  ASSERT_GT(exp.network_a().net_stats().deltas_sent, 0u);

  exp.crash_b();
  exp.system().kill(probe_b1);
  exp.run_for(Duration::seconds(3.0));  // A walks B to Dead

  exp.recover_b();
  auto& probe_b2 = exp.system().create<WireProbe>("wire_probe_b2");
  exp.connect_b(probe_b2.network());
  exp.system().start(probe_b2);
  const std::uint64_t kf_before_resume =
      exp.network_a().net_stats().delta_keyframes_sent;

  // The stream resumes toward the reborn incarnation: the fresh connection
  // starts a fresh codec pair, so seq 100+ must keyframe first, never diff
  // against the pre-crash bases.
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 8; ++i) {
      probe_a.send(make_telemetry(exp.addr_a(), exp.addr_b(), 100 + seq++));
    }
    exp.run_for(Duration::millis(200));
  }
  exp.run_for(Duration::seconds(2.0));

  const auto post = probe_b2.telemetry_seqs();
  ASSERT_GT(post.size(), 0u) << "stream never resumed after recovery";
  EXPECT_EQ(probe_b2.inconsistent_telemetry(), 0u)
      << "a message was reconstructed from a pre-restart delta base";
  const auto& sb2 = exp.network_b().net_stats();
  EXPECT_EQ(sb2.deserialize_failures, 0u);
  EXPECT_EQ(sb2.delta_resets_sent, 0u)
      << "fencing-by-construction should make resets unnecessary on restart";
  // The resumed stream re-keyframed (encoder state was dropped with the old
  // connection) — with the cadence pushed out to 1000, any new keyframe here
  // proves the reset-on-reconnect path ran.
  EXPECT_GT(exp.network_a().net_stats().delta_keyframes_sent, kf_before_resume);
  EXPECT_EQ(probe_b2.inconsistent_telemetry(), 0u);
}

// =====================================================================
// Mixed configurations: the encoding switches are sender-side only
// =====================================================================

/// Bit 0 enables delta encoding, bit 1 coalescing, bit 2 compression.
messaging::NetworkConfig encoding(unsigned switches) {
  messaging::NetworkConfig nc;
  nc.enable_delta = (switches & 1u) != 0;
  nc.enable_coalescing = (switches & 2u) != 0;
  nc.enable_compression = (switches & 4u) != 0;
  return nc;
}

/// Two EU-VPC hosts whose NetworkComponents each run their own config and
/// registry (TwoNodeExperiment gives both nodes one config).
struct MixedPair {
  MixedPair(messaging::NetworkConfig cfg_a, messaging::NetworkConfig cfg_b)
      : net_a(&make_net(cfg_a, a, world.sender, "A")),
        net_b(&make_net(cfg_b, b, world.receiver, "B")) {
    sys.connect(net_a->network_port(), probe_a->network());
    sys.connect(net_b->network_port(), probe_b->network());
    sys.start_all();
  }
  void run_for(Duration d) { sim.run_until(sim.now() + d); }

  messaging::NetworkComponent& make_net(messaging::NetworkConfig cfg,
                                        const messaging::Address& self,
                                        netsim::HostId host,
                                        const std::string& name) {
    cfg.self = self;
    return sys.create<messaging::NetworkComponent>(
        "network@" + name, world.net.host(host), cfg, make_registry());
  }

  sim::Simulator sim;
  netsim::TwoHostWorld world{sim, netsim::Setup::kEuVpc, 42};
  kompics::KompicsSystem sys{sim};
  messaging::Address a{world.sender, 1000};
  messaging::Address b{world.receiver, 2000};
  messaging::NetworkComponent* net_a;
  messaging::NetworkComponent* net_b;
  WireProbe* probe_a = &sys.create<WireProbe>("probe@A");
  WireProbe* probe_b = &sys.create<WireProbe>("probe@B");
};

TEST(WireInteropTest, EveryMixOfEncodingSwitchesInteroperates) {
  using messaging::Transport;
  constexpr std::uint64_t kPerTransport = 40;
  constexpr std::uint64_t kUdpSeqBase = 1000;
  for (unsigned a_switches = 0; a_switches < 8; ++a_switches) {
    for (const unsigned b_switches : {0u, 7u}) {
      SCOPED_TRACE("A switches " + std::to_string(a_switches) +
                   ", B switches " + std::to_string(b_switches));
      test::set_repro_seed(42);
      MixedPair w(encoding(a_switches), encoding(b_switches));
      // Both directions, both transports, in bursts of 8 per transport so
      // a coalescing sender has frame-mates to pack.
      for (std::uint64_t seq = 0; seq < kPerTransport; ++seq) {
        w.probe_a->send(make_telemetry(w.a, w.b, seq));
        w.probe_b->send(make_telemetry(w.b, w.a, seq));
        w.probe_a->send(
            make_telemetry(w.a, w.b, kUdpSeqBase + seq, Transport::kUdp));
        w.probe_b->send(
            make_telemetry(w.b, w.a, kUdpSeqBase + seq, Transport::kUdp));
        if (seq % 8 == 7) w.run_for(Duration::millis(20));
      }
      w.run_for(Duration::seconds(1.0));

      std::vector<std::uint64_t> tcp_seqs;
      std::vector<std::uint64_t> udp_seqs;
      for (std::uint64_t seq = 0; seq < kPerTransport; ++seq) {
        tcp_seqs.push_back(seq);
        udp_seqs.push_back(kUdpSeqBase + seq);
      }
      for (const WireProbe* probe : {w.probe_a, w.probe_b}) {
        std::vector<std::uint64_t> got_tcp;
        std::vector<std::uint64_t> got_udp;
        for (const auto& m : probe->messages) {
          const auto* t = dynamic_cast<const apps::TelemetryMsg*>(m.get());
          ASSERT_NE(t, nullptr);
          EXPECT_TRUE(telemetry_self_consistent(*t)) << "seq " << t->seq();
          (t->header().protocol() == Transport::kUdp ? got_udp : got_tcp)
              .push_back(t->seq());
        }
        std::sort(got_udp.begin(), got_udp.end());  // datagrams are unordered
        EXPECT_EQ(got_tcp, tcp_seqs) << (probe == w.probe_a ? "A" : "B");
        EXPECT_EQ(got_udp, udp_seqs) << (probe == w.probe_a ? "A" : "B");
      }
      for (const auto* net : {w.net_a, w.net_b}) {
        const auto& st = net->net_stats();
        EXPECT_EQ(st.deserialize_failures, 0u);
        EXPECT_EQ(st.frames_corrupt, 0u);
        EXPECT_EQ(st.sessions_closed, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace kmsg
