#include "apps/messages.hpp"

#include <bit>
#include <cstring>

#include "common/rng.hpp"

namespace kmsg::apps {

namespace {

// The payload is a run of little-endian 64-bit words: word w, covering
// bytes 8w .. 8w+7 of the transfer, is the splitmix64 output for w. One hash
// per 8 bytes keeps the bytes incompressible to LZ-class codecs and
// verifiable from the position alone; whole words are written and checked
// at once, and only an unaligned head or tail goes byte by byte.
static_assert(std::endian::native == std::endian::little);

std::uint64_t payload_word(std::uint64_t w) { return splitmix64(w); }

std::uint8_t payload_byte(std::uint64_t pos) {
  return static_cast<std::uint8_t>(payload_word(pos >> 3) >> (8 * (pos & 7)));
}

}  // namespace

wire::BufSlice make_payload_slice(std::uint64_t offset, std::size_t len) {
  wire::ByteBuf buf{len};
  std::uint8_t* out = buf.write_span(len).data();
  std::size_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    out[i] = payload_byte(offset + i);
  }
  for (; len - i >= 8; i += 8) {
    const std::uint64_t word = payload_word((offset + i) >> 3);
    std::memcpy(out + i, &word, 8);
  }
  for (; i < len; ++i) out[i] = payload_byte(offset + i);
  return std::move(buf).take_slice();
}

bool verify_payload(std::uint64_t offset, std::span<const std::uint8_t> data) {
  const std::uint8_t* in = data.data();
  const std::size_t len = data.size();
  std::size_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    if (in[i] != payload_byte(offset + i)) return false;
  }
  for (; len - i >= 8; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, in + i, 8);
    if (word != payload_word((offset + i) >> 3)) return false;
  }
  for (; i < len; ++i) {
    if (in[i] != payload_byte(offset + i)) return false;
  }
  return true;
}

void register_app_serializers(messaging::SerializerRegistry& registry) {
  using messaging::BasicHeader;
  using messaging::DataHeader;
  using messaging::MsgPtr;

  registry.register_type(
      kDataChunkTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& c = dynamic_cast<const DataChunkMsg&>(m);
        buf.write_varint(c.transfer_id());
        buf.write_varint(c.offset());
        buf.write_bool(c.last());
        buf.write_blob(c.bytes());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const std::uint64_t id = buf.read_varint();
        const std::uint64_t offset = buf.read_varint();
        const bool last = buf.read_bool();
        // Zero-copy: the chunk's payload stays a view of the frame's slab.
        auto bytes = buf.read_blob_slice();
        DataHeader dh{h.source(), h.destination(), h.protocol()};
        return kompics::make_event<DataChunkMsg>(dh, id, offset,
                                                    std::move(bytes), last);
      });

  registry.register_type(
      kTransferCompleteTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& c = dynamic_cast<const TransferCompleteMsg&>(m);
        buf.write_varint(c.transfer_id());
        buf.write_varint(c.total_bytes());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const std::uint64_t id = buf.read_varint();
        const std::uint64_t total = buf.read_varint();
        return kompics::make_event<TransferCompleteMsg>(h, id, total);
      });

  registry.register_type(
      kPingTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& p = dynamic_cast<const PingMsg&>(m);
        buf.write_varint(p.seq());
        buf.write_i64(p.sent_at_nanos());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const std::uint64_t seq = buf.read_varint();
        const std::int64_t at = buf.read_i64();
        return kompics::make_event<PingMsg>(h, seq, at);
      });

  registry.register_type(
      kTelemetryTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& t = dynamic_cast<const TelemetryMsg&>(m);
        buf.write_string(t.device_id());
        buf.write_varint(t.seq());
        buf.write_u8(t.flags());
        for (const std::uint64_t r : t.readings()) buf.write_u64(r);
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        std::string device_id = buf.read_string();
        const std::uint64_t seq = buf.read_varint();
        const std::uint8_t flags = buf.read_u8();
        std::array<std::uint64_t, TelemetryMsg::kReadings> readings{};
        for (auto& r : readings) r = buf.read_u64();
        return kompics::make_event<TelemetryMsg>(h, std::move(device_id), seq,
                                                 flags, readings);
      });

  registry.register_type(
      kPongTypeId,
      [](const messaging::Msg& m, wire::ByteBuf& buf) {
        const auto& p = dynamic_cast<const PongMsg&>(m);
        buf.write_varint(p.seq());
        buf.write_i64(p.echo_sent_at_nanos());
      },
      [](const BasicHeader& h, wire::ByteBuf& buf) -> MsgPtr {
        const std::uint64_t seq = buf.read_varint();
        const std::int64_t at = buf.read_i64();
        return kompics::make_event<PongMsg>(h, seq, at);
      });
}

void register_app_delta_schemas(messaging::SerializerRegistry& registry) {
  using messaging::DeltaSchema;
  using messaging::FieldKind;
  // Idempotent: registries are commonly shared between co-simulated nodes.
  if (registry.delta_schema(kTelemetryTypeId) != nullptr) return;
  // Mirrors the TelemetryMsg serializer field-for-field: device id (string =
  // length-prefixed blob), seq varint, flags byte, then the fixed readings.
  DeltaSchema telemetry;
  telemetry.fields.push_back(FieldKind::kBlob);
  telemetry.fields.push_back(FieldKind::kVarint);
  telemetry.fields.push_back(FieldKind::kU8);
  for (std::size_t i = 0; i < TelemetryMsg::kReadings; ++i) {
    telemetry.fields.push_back(FieldKind::kU64);
  }
  registry.register_delta_schema(kTelemetryTypeId, std::move(telemetry));
}

}  // namespace kmsg::apps
