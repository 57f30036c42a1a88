// Concrete message types used by the experiment applications (and the
// examples): bulk data chunks (DATA-capable), transfer completion receipts,
// and ping/pong latency probes — the two workload families of the paper's
// evaluation (§V-A).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "messaging/msg.hpp"
#include "messaging/serialization.hpp"

namespace kmsg::apps {

// Serializer type ids.
inline constexpr std::uint32_t kDataChunkTypeId = 0x10;
inline constexpr std::uint32_t kTransferCompleteTypeId = 0x11;
inline constexpr std::uint32_t kPingTypeId = 0x20;
inline constexpr std::uint32_t kPongTypeId = 0x21;
inline constexpr std::uint32_t kTelemetryTypeId = 0x22;

/// One 65 kB-class slice of a bulk transfer. Implements DataMsg so the
/// adaptive interceptor can resolve Transport::DATA per message. The payload
/// is a ref-counted slice: cloning the message for a protocol rewrite or
/// deserialising it from a frame shares the backing slab instead of copying.
class DataChunkMsg final : public messaging::Msg, public messaging::DataMsg {
 public:
  DataChunkMsg(messaging::DataHeader header, std::uint64_t transfer_id,
               std::uint64_t offset, wire::BufSlice bytes, bool last)
      : header_(header),
        transfer_id_(transfer_id),
        offset_(offset),
        bytes_(std::move(bytes)),
        last_(last) {}

  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kDataChunkTypeId; }
  std::size_t serialized_size_hint() const override {
    return bytes_.size() + 64;
  }

  messaging::MsgPtr with_protocol(messaging::Transport t) const override {
    return kompics::make_event<DataChunkMsg>(header_.with_protocol(t),
                                                transfer_id_, offset_, bytes_,
                                                last_);
  }
  std::size_t payload_size() const override { return bytes_.size(); }

  const messaging::DataHeader& data_header() const { return header_; }
  std::uint64_t transfer_id() const { return transfer_id_; }
  std::uint64_t offset() const { return offset_; }
  std::span<const std::uint8_t> bytes() const { return bytes_.span(); }
  const wire::BufSlice& payload_slice() const { return bytes_; }
  bool last() const { return last_; }

 private:
  messaging::DataHeader header_;
  std::uint64_t transfer_id_;
  std::uint64_t offset_;
  wire::BufSlice bytes_;
  bool last_;
};

/// Receiver -> sender receipt closing one transfer (sent over TCP).
class TransferCompleteMsg final : public messaging::Msg {
 public:
  TransferCompleteMsg(messaging::BasicHeader header, std::uint64_t transfer_id,
                      std::uint64_t total_bytes)
      : header_(header), transfer_id_(transfer_id), total_bytes_(total_bytes) {}

  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kTransferCompleteTypeId; }

  std::uint64_t transfer_id() const { return transfer_id_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  messaging::BasicHeader header_;
  std::uint64_t transfer_id_;
  std::uint64_t total_bytes_;
};

/// Timing-sensitive control probe ("Ping"), answered by PongMsg.
class PingMsg final : public messaging::Msg {
 public:
  PingMsg(messaging::BasicHeader header, std::uint64_t seq,
          std::int64_t sent_at_nanos)
      : header_(header), seq_(seq), sent_at_nanos_(sent_at_nanos) {}

  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kPingTypeId; }

  std::uint64_t seq() const { return seq_; }
  std::int64_t sent_at_nanos() const { return sent_at_nanos_; }

 private:
  messaging::BasicHeader header_;
  std::uint64_t seq_;
  std::int64_t sent_at_nanos_;
};

class PongMsg final : public messaging::Msg {
 public:
  PongMsg(messaging::BasicHeader header, std::uint64_t seq,
          std::int64_t echo_sent_at_nanos)
      : header_(header), seq_(seq), echo_sent_at_nanos_(echo_sent_at_nanos) {}

  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kPongTypeId; }

  std::uint64_t seq() const { return seq_; }
  std::int64_t echo_sent_at_nanos() const { return echo_sent_at_nanos_; }

 private:
  messaging::BasicHeader header_;
  std::uint64_t seq_;
  std::int64_t echo_sent_at_nanos_;
};

/// The many-small-messages workload of the wire-efficiency evaluation: a
/// periodic sensor report whose body is dominated by fields that rarely
/// change (device id, flags, most readings). Under delta encoding only the
/// mutated readings travel; under coalescing dozens of reports share one
/// frame header.
class TelemetryMsg final : public messaging::Msg {
 public:
  static constexpr std::size_t kReadings = 8;

  TelemetryMsg(messaging::BasicHeader header, std::string device_id,
               std::uint64_t seq, std::uint8_t flags,
               std::array<std::uint64_t, kReadings> readings)
      : header_(header),
        device_id_(std::move(device_id)),
        seq_(seq),
        flags_(flags),
        readings_(readings) {}

  const messaging::Header& header() const override { return header_; }
  std::uint32_t type_id() const override { return kTelemetryTypeId; }
  std::size_t serialized_size_hint() const override {
    return device_id_.size() + 32 + kReadings * 8;
  }

  const std::string& device_id() const { return device_id_; }
  std::uint64_t seq() const { return seq_; }
  std::uint8_t flags() const { return flags_; }
  const std::array<std::uint64_t, kReadings>& readings() const {
    return readings_;
  }

 private:
  messaging::BasicHeader header_;
  std::string device_id_;
  std::uint64_t seq_;
  std::uint8_t flags_;
  std::array<std::uint64_t, kReadings> readings_;
};

/// Registers serializers for all app message types.
void register_app_serializers(messaging::SerializerRegistry& registry);

/// Registers the delta-codec field layouts for the app types that benefit
/// (currently TelemetryMsg). Call alongside register_app_serializers on
/// systems that enable NetworkConfig::enable_delta.
void register_app_delta_schemas(messaging::SerializerRegistry& registry);

/// Deterministic, effectively incompressible payload generated straight
/// into a pooled slab (the "initial write" of the zero-copy pipeline). Byte
/// p of the transfer is byte p & 7 (little-endian) of the splitmix64 output
/// for word p >> 3, so it depends only on the global position and any
/// receiver can verify content without sharing state with the sender. One
/// hash covers 8 bytes; both functions handle whole words at once, 8 words
/// per vector where payload_kernel_width() is 512.
wire::BufSlice make_payload_slice(std::uint64_t offset, std::size_t len);
/// Checks every byte of `data` against the payload at absolute `offset`.
bool verify_payload(std::uint64_t offset, std::span<const std::uint8_t> data);
/// Bits the payload generator and verifier handle per step on this CPU,
/// checked once: 512 (AVX512F and AVX512DQ) or 64 (one word).
unsigned payload_kernel_width();

}  // namespace kmsg::apps
