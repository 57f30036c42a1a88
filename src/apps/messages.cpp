#include "apps/messages.hpp"

namespace kmsg::apps {

namespace {

std::uint8_t payload_byte(std::uint64_t pos) {
  // splitmix64-style position hash: incompressible to LZ-class codecs,
  // verifiable from the position alone.
  std::uint64_t z = pos + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint8_t>(z >> 56);
}

}  // namespace

wire::BufSlice make_payload_slice(std::uint64_t offset, std::size_t len) {
  wire::ByteBuf buf{len};
  auto span = buf.write_span(len);
  for (std::size_t i = 0; i < len; ++i) span[i] = payload_byte(offset + i);
  return std::move(buf).take_slice();
}

bool verify_payload(std::uint64_t offset, std::span<const std::uint8_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != payload_byte(offset + i)) return false;
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
