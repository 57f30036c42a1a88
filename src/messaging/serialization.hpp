// Message serialisation.
//
// The registry maps a message type id to (serialise, deserialise) functions
// for the message *body*; the framework owns the envelope: type id, header
// kind, addresses, and protocol. This mirrors the paper's setup where the
// NettyNetwork component drives Netty's serialisation handlers and
// applications only register per-type codecs.
//
// The type-id table is a sorted flat vector searched by binary search —
// registration happens at startup, lookup on every message — and serialize()
// reserves the envelope buffer up front (Msg::serialized_size_hint) with
// headroom so the codec and framing layers can prepend in place. The
// serialised message travels as a ref-counted wire::BufSlice and is read in
// place by every later layer. A bulk payload is written once, by its
// producer: a producer that leaves kPayloadHeadroomBytes free in front of
// its payload slice lets the serialiser write the envelope there
// (wire::ByteBuf::write_blob) instead of copying the payload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "messaging/msg.hpp"
#include "wire/bytebuf.hpp"

namespace kmsg::messaging {

// --- Delta encoding (schema-aware field diffs) -------------------------------
//
// A registered DeltaSchema describes the serialised *body* of a message type
// as a flat field list, so the codec can split the byte stream into regions
// and transmit only the regions that changed since the last message of that
// type on the same channel. Wire format of one delta-coded message (the
// codec tags are defined with the other message encodings in wire/codec.hpp):
//   kDeltaKeyframeTag | full serialised message   (keyframe: no base, periodic
//                                                  refresh, or diff too big)
//   kDeltaDiffTag | varint type_id | varint field mask | changed regions
// Mask bit 0 covers the envelope region (type id + addresses + protocol);
// bits 1..N cover the schema's body fields. The codec state is strictly
// per-connection: a reconnect or peer restart discards both sides' bases, so
// no message is ever reconstructed against a pre-restart base (fencing falls
// out of PR 8's one-hello-per-connection discipline by construction).

/// How one serialised body field is parsed when splitting into regions.
enum class FieldKind : std::uint8_t {
  kU8,      ///< 1 byte
  kU16,     ///< 2 bytes
  kU32,     ///< 4 bytes
  kU64,     ///< 8 bytes (also i64/f64)
  kVarint,  ///< LEB128
  kBlob,    ///< varint length prefix + bytes (also strings)
};

/// Field layout of a message body. At most 63 fields so the envelope bit and
/// every field bit fit a single 64-bit mask.
struct DeltaSchema {
  std::vector<FieldKind> fields;
};

inline constexpr std::size_t kDeltaSchemaMaxFields = 63;

/// Spare bytes a producer leaves in front of a payload slice that a
/// serialiser hands to wire::ByteBuf::write_blob as its message's last
/// field: room for the envelope, the body fields before the payload, the
/// codec tags and the frame header, so the whole frame is written in front
/// of the payload, in the producer's slab.
inline constexpr std::size_t kPayloadHeadroomBytes = 128;

class SerializerRegistry {
 public:
  /// Serialises the message body (not the header) into the buffer.
  using SerializeFn = std::function<void(const Msg&, wire::ByteBuf&)>;
  /// Rebuilds the message from header + body bytes.
  using DeserializeFn = std::function<MsgPtr(const BasicHeader&, wire::ByteBuf&)>;

  /// Throws std::logic_error for a duplicate id or one below
  /// wire::kReservedTypeIds (those first bytes are codec tags).
  void register_type(std::uint32_t type_id, SerializeFn ser, DeserializeFn deser);
  bool knows(std::uint32_t type_id) const { return find(type_id) != nullptr; }

  /// Registers the field layout used by the delta codec for `type_id`.
  /// Types without a schema always travel as keyframes (full messages).
  void register_delta_schema(std::uint32_t type_id, DeltaSchema schema);
  const DeltaSchema* delta_schema(std::uint32_t type_id) const;

  /// Serialises envelope + body. Returns std::nullopt if the type id is
  /// unregistered. `protocol_override` replaces the header's protocol in the
  /// envelope (used when the network resolves DATA fallbacks). The returned
  /// slice carries headroom for in-place codec/frame-header prepends.
  std::optional<wire::BufSlice> serialize(
      const Msg& msg, std::optional<Transport> protocol_override = {}) const;

  /// Parses envelope + body from an owning slice: the rebuilt message's
  /// payload is a sub-slice of `bytes` (zero-copy). Returns nullptr on
  /// malformed input or unknown type id. The reconstructed message sees a
  /// BasicHeader (routing headers are flattened to their wire form: current
  /// source/destination/protocol).
  MsgPtr deserialize(wire::BufSlice bytes) const;

  std::uint64_t messages_serialized() const { return serialized_; }
  std::uint64_t messages_deserialized() const { return deserialized_; }
  std::uint64_t unknown_type_errors() const { return unknown_; }

 private:
  struct Entry {
    std::uint32_t type_id;
    SerializeFn ser;
    DeserializeFn deser;
  };
  const Entry* find(std::uint32_t type_id) const;

  /// Sorted by type_id; binary-searched on the per-message hot path.
  std::vector<Entry> entries_;
  std::map<std::uint32_t, DeltaSchema> delta_schemas_;
  mutable std::uint64_t serialized_ = 0;
  mutable std::uint64_t deserialized_ = 0;
  mutable std::uint64_t unknown_ = 0;
};

/// Sender half of the delta codec: one instance per outbound connection.
/// encode() turns a fully serialised message into its delta wire form,
/// caching the message as the new base for its type. Keyframes are emitted
/// when no base exists, every `keyframe_interval` messages (bounding how
/// long a receiver that lost state stays dark), when the diff would not be
/// smaller than the full message, or when the type has no schema.
class DeltaEncoder {
 public:
  DeltaEncoder(const SerializerRegistry* registry,
               std::uint32_t keyframe_interval)
      : registry_(registry), keyframe_interval_(keyframe_interval) {}

  /// `serialized` is the registry's envelope+body output for `type_id`.
  /// Returns the delta-coded bytes (keyframe tag prepended in place, or a
  /// freshly built diff) with headroom for the downstream prepends.
  wire::BufSlice encode(std::uint32_t type_id, wire::BufSlice serialized);

  /// Drops the cached base for `type_id` (0 = every type) so the next
  /// message of that type is a keyframe — the receiver's answer to a diff
  /// it has no base for.
  void reset(std::uint32_t type_id);

  std::uint64_t deltas_sent() const { return deltas_; }
  std::uint64_t keyframes_sent() const { return keyframes_; }
  /// Serialised bytes elided by diffs (full size - diff size, summed).
  std::uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  struct Base {
    std::vector<std::uint8_t> bytes;
    /// (offset, length) per region: [0] envelope, [1..] schema fields.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> regions;
    std::uint32_t since_keyframe = 0;
  };

  /// Counts a keyframe and tags `serialized` as one (in place when its
  /// headroom allows).
  wire::BufSlice keyframe(wire::BufSlice serialized);

  const SerializerRegistry* registry_;
  std::uint32_t keyframe_interval_;
  std::map<std::uint32_t, Base> bases_;
  std::uint64_t deltas_ = 0;
  std::uint64_t keyframes_ = 0;
  std::uint64_t bytes_saved_ = 0;
};

/// Receiver half: one instance per inbound connection. decode() rebuilds the
/// full serialised message from a keyframe or a diff against the cached
/// base. A diff with no base (receiver restarted state, sender bug) is not
/// an error in the stream — the caller answers with a DeltaResetMsg so the
/// sender keyframes that type, and drops this message (at-most-once).
class DeltaDecoder {
 public:
  explicit DeltaDecoder(const SerializerRegistry* registry)
      : registry_(registry) {}

  enum class Status {
    kOk,         ///< msg holds the full serialised message
    kNeedReset,  ///< diff without a base: request a keyframe for type_id
    kMalformed,  ///< undecodable bytes: request a keyframe, count an error
  };
  struct Result {
    Status status = Status::kMalformed;
    wire::BufSlice msg;
    std::uint32_t type_id = 0;  ///< set for kNeedReset/kMalformed diffs
  };

  Result decode(wire::BufSlice encoded);

  std::uint64_t deltas_received() const { return deltas_; }
  std::uint64_t keyframes_received() const { return keyframes_; }

 private:
  struct Base {
    std::vector<std::uint8_t> bytes;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> regions;
  };

  const SerializerRegistry* registry_;
  std::map<std::uint32_t, Base> bases_;
  std::uint64_t deltas_ = 0;
  std::uint64_t keyframes_ = 0;
};

}  // namespace kmsg::messaging
