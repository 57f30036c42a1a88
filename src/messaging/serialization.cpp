#include "messaging/serialization.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"

namespace kmsg::messaging {

namespace {
/// Headroom reserved ahead of the envelope so every prepend a serialised
/// message can see on its way to the wire — codec tags, frame header — lands
/// in place; otherwise the hot path silently degrades to a counted copy
/// (caught by the debug assert in NetworkComponent's frame()).
constexpr std::size_t kEnvelopeHeadroom =
    wire::kCodecHeadroomBytes + wire::kFrameHeaderBytes;
/// The longest envelope: the type id's varint, two addresses (host, port,
/// vnode varint) and the protocol byte. The rest of kPayloadHeadroomBytes
/// (74 bytes) is for the body fields before the payload.
constexpr std::size_t kMaxEnvelopeBytes = 5 + 2 * (4 + 2 + 10) + 1;
static_assert(kEnvelopeHeadroom + kMaxEnvelopeBytes < kPayloadHeadroomBytes,
              "payload headroom cannot hold the envelope");
}  // namespace

const SerializerRegistry::Entry* SerializerRegistry::find(
    std::uint32_t type_id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type_id,
      [](const Entry& e, std::uint32_t id) { return e.type_id < id; });
  if (it == entries_.end() || it->type_id != type_id) return nullptr;
  return &*it;
}

void SerializerRegistry::register_type(std::uint32_t type_id, SerializeFn ser,
                                       DeserializeFn deser) {
  if (type_id < wire::kReservedTypeIds) {
    throw std::logic_error("SerializerRegistry: type id " +
                           std::to_string(type_id) + " is a codec tag");
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type_id,
      [](const Entry& e, std::uint32_t id) { return e.type_id < id; });
  if (it != entries_.end() && it->type_id == type_id) {
    throw std::logic_error("SerializerRegistry: duplicate type id " +
                           std::to_string(type_id));
  }
  entries_.insert(it, Entry{type_id, std::move(ser), std::move(deser)});
}

std::optional<wire::BufSlice> SerializerRegistry::serialize(
    const Msg& msg, std::optional<Transport> protocol_override) const {
  const Entry* entry = find(msg.type_id());
  if (!entry) {
    ++unknown_;
    KMSG_WARN("serialization") << "no serializer for type id " << msg.type_id();
    return std::nullopt;
  }
  wire::ByteBuf buf{msg.serialized_size_hint(), kEnvelopeHeadroom};
  buf.write_varint(msg.type_id());
  const Header& h = msg.header();
  h.source().serialize(buf);
  h.destination().serialize(buf);
  buf.write_u8(static_cast<std::uint8_t>(protocol_override.value_or(h.protocol())));
  entry->ser(msg, buf);
  ++serialized_;
  return std::move(buf).take_slice();
}

MsgPtr SerializerRegistry::deserialize(wire::BufSlice bytes) const {
  try {
    wire::ByteBuf buf = wire::ByteBuf::wrap(std::move(bytes));
    const auto type_id = static_cast<std::uint32_t>(buf.read_varint());
    const Address src = Address::deserialize(buf);
    const Address dst = Address::deserialize(buf);
    const std::uint8_t proto_byte = buf.read_u8();
    if (proto_byte > static_cast<std::uint8_t>(Transport::kLedbat)) {
      // Names no transport: as malformed as a truncated envelope.
      KMSG_WARN("serialization") << "malformed message frame";
      return nullptr;
    }
    const auto proto = static_cast<Transport>(proto_byte);
    const Entry* entry = find(type_id);
    if (!entry) {
      ++unknown_;
      KMSG_WARN("serialization") << "no deserializer for type id " << type_id;
      return nullptr;
    }
    BasicHeader header{src, dst, proto};
    auto msg = entry->deser(header, buf);
    if (msg) ++deserialized_;
    return msg;
  } catch (const std::out_of_range&) {
    KMSG_WARN("serialization") << "malformed message frame";
    return nullptr;
  }
}

void SerializerRegistry::register_delta_schema(std::uint32_t type_id,
                                               DeltaSchema schema) {
  if (schema.fields.size() > kDeltaSchemaMaxFields) {
    throw std::logic_error("DeltaSchema: too many fields for type id " +
                           std::to_string(type_id));
  }
  if (!delta_schemas_.emplace(type_id, std::move(schema)).second) {
    throw std::logic_error("DeltaSchema: duplicate type id " +
                           std::to_string(type_id));
  }
}

const DeltaSchema* SerializerRegistry::delta_schema(
    std::uint32_t type_id) const {
  const auto it = delta_schemas_.find(type_id);
  return it == delta_schemas_.end() ? nullptr : &it->second;
}

// --- Delta codec --------------------------------------------------------------

namespace {

/// Bounds-checked forward-only reader used to split serialised bytes into
/// regions; sets `fail` instead of throwing (malformed input is an expected
/// case on the decode side).
struct Cursor {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;
  bool fail = false;

  void skip(std::size_t k) {
    if (n - pos < k) {
      fail = true;
      pos = n;
      return;
    }
    pos += k;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (pos < n && shift < 64) {
      const std::uint8_t b = p[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
    fail = true;
    return 0;
  }
  void skip_address() {
    skip(4 + 2);  // host + port
    varint();     // vnode
  }
  void skip_envelope() {
    varint();  // type id
    skip_address();
    skip_address();
    skip(1);  // protocol
  }
  void skip_field(FieldKind kind) {
    switch (kind) {
      case FieldKind::kU8: skip(1); break;
      case FieldKind::kU16: skip(2); break;
      case FieldKind::kU32: skip(4); break;
      case FieldKind::kU64: skip(8); break;
      case FieldKind::kVarint: varint(); break;
      case FieldKind::kBlob: {
        const std::uint64_t len = varint();
        if (!fail) skip(static_cast<std::size_t>(len));
        break;
      }
    }
  }
};

using Regions = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Splits a full serialised message into regions: [0] the envelope, then one
/// per schema field. Fails (returns false) when the bytes do not parse
/// cleanly to exactly the schema — the codec then falls back to keyframes.
bool split_regions(const DeltaSchema& schema,
                   std::span<const std::uint8_t> bytes, Regions& out) {
  out.clear();
  out.reserve(schema.fields.size() + 1);
  Cursor c{bytes.data(), bytes.size()};
  c.skip_envelope();
  if (c.fail) return false;
  out.emplace_back(0, static_cast<std::uint32_t>(c.pos));
  for (const FieldKind kind : schema.fields) {
    const std::size_t begin = c.pos;
    c.skip_field(kind);
    if (c.fail) return false;
    out.emplace_back(static_cast<std::uint32_t>(begin),
                     static_cast<std::uint32_t>(c.pos - begin));
  }
  return c.pos == bytes.size();
}

/// Consumes one region's bytes from a diff stream (same grammar as
/// split_regions, region 0 being the envelope).
std::span<const std::uint8_t> take_region(Cursor& c, const DeltaSchema& schema,
                                          std::size_t region) {
  const std::size_t begin = c.pos;
  if (region == 0) {
    c.skip_envelope();
  } else {
    c.skip_field(schema.fields[region - 1]);
  }
  if (c.fail) return {};
  return {c.p + begin, c.pos - begin};
}

}  // namespace

wire::BufSlice DeltaEncoder::keyframe(wire::BufSlice serialized) {
  ++keyframes_;
  std::uint8_t* p = serialized.try_prepend(wire::kCodecTagBytes);
  if (!p) {
    serialized = wire::BufSlice::copy_of(serialized.span(), kEnvelopeHeadroom);
    p = serialized.try_prepend(wire::kCodecTagBytes);
  }
  *p = wire::kDeltaKeyframeTag;
  return serialized;
}

wire::BufSlice DeltaEncoder::encode(std::uint32_t type_id,
                                    wire::BufSlice serialized) {
  const DeltaSchema* schema = registry_->delta_schema(type_id);
  if (!schema) return keyframe(std::move(serialized));

  Regions regions;
  if (!split_regions(*schema, serialized.span(), regions)) {
    // Serialiser/schema mismatch: never diff against undecipherable bytes.
    bases_.erase(type_id);
    return keyframe(std::move(serialized));
  }

  Base& base = bases_[type_id];
  const bool keyframe_due =
      base.bytes.empty() || ++base.since_keyframe >= keyframe_interval_;
  if (!keyframe_due) {
    // Build the diff; emitted only if it actually beats the full message.
    std::uint64_t mask = 0;
    std::size_t changed_bytes = 0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const auto [off, len] = regions[i];
      const auto [boff, blen] = base.regions[i];
      if (len != blen ||
          std::memcmp(serialized.data() + off, base.bytes.data() + boff,
                      len) != 0) {
        mask |= 1ull << i;
        changed_bytes += len;
      }
    }
    std::size_t mask_bytes = 1;
    for (std::uint64_t m = mask >> 7; m != 0; m >>= 7) ++mask_bytes;
    std::size_t id_bytes = 1;
    for (std::uint64_t v = type_id >> 7; v != 0; v >>= 7) ++id_bytes;
    const std::size_t diff_size = 1 + id_bytes + mask_bytes + changed_bytes;
    if (diff_size < serialized.size() + 1) {
      wire::ByteBuf out{diff_size, kEnvelopeHeadroom};
      out.write_u8(wire::kDeltaDiffTag);
      out.write_varint(type_id);
      out.write_varint(mask);
      for (std::size_t i = 0; i < regions.size(); ++i) {
        if (!(mask & (1ull << i))) continue;
        const auto [off, len] = regions[i];
        out.write_bytes({serialized.data() + off, len});
      }
      ++deltas_;
      bytes_saved_ += serialized.size() + 1 - diff_size;
      base.bytes.assign(serialized.data(), serialized.data() + serialized.size());
      base.regions = std::move(regions);
      return std::move(out).take_slice();
    }
  }

  base.bytes.assign(serialized.data(), serialized.data() + serialized.size());
  base.regions = std::move(regions);
  base.since_keyframe = 0;
  return keyframe(std::move(serialized));
}

void DeltaEncoder::reset(std::uint32_t type_id) {
  if (type_id == 0) {
    bases_.clear();
  } else {
    bases_.erase(type_id);
  }
}

DeltaDecoder::Result DeltaDecoder::decode(wire::BufSlice encoded) {
  Result r;
  if (encoded.empty()) return r;  // kMalformed
  const std::uint8_t tag = encoded[0];
  if (tag == wire::kDeltaKeyframeTag) {
    ++keyframes_;
    wire::BufSlice msg = encoded.slice(1, encoded.size() - 1);
    // Cache the keyframe as the new base when the type has a schema (peek
    // the type id from the envelope). Unparseable keyframes still deliver —
    // the deserialiser is the authority on their validity — but leave no
    // base behind for diffs to build on.
    Cursor c{msg.data(), msg.size()};
    const auto type_id = static_cast<std::uint32_t>(c.varint());
    if (!c.fail) {
      if (const DeltaSchema* schema = registry_->delta_schema(type_id)) {
        Base& base = bases_[type_id];
        if (split_regions(*schema, msg.span(), base.regions)) {
          base.bytes.assign(msg.data(), msg.data() + msg.size());
        } else {
          bases_.erase(type_id);
        }
      }
    }
    r.status = Status::kOk;
    r.msg = std::move(msg);
    return r;
  }
  if (tag != wire::kDeltaDiffTag) return r;  // kMalformed

  Cursor c{encoded.data(), encoded.size(), /*pos=*/1};
  const auto type_id = static_cast<std::uint32_t>(c.varint());
  const std::uint64_t mask = c.varint();
  if (c.fail) return r;  // kMalformed (no usable type id to reset)
  r.type_id = type_id;
  const DeltaSchema* schema = registry_->delta_schema(type_id);
  if (!schema) return r;  // kMalformed: diff for a schema-less type
  const auto it = bases_.find(type_id);
  if (it == bases_.end()) {
    r.status = Status::kNeedReset;
    return r;
  }
  Base& base = it->second;
  const std::size_t region_count = schema->fields.size() + 1;
  // A bit set past the last region. With the maximum of 64 regions every
  // bit names one (and a shift by 64 would be undefined).
  if (region_count < 64 && (mask >> region_count) != 0) return r;

  std::size_t total = 0;
  std::vector<std::span<const std::uint8_t>> pieces(region_count);
  for (std::size_t i = 0; i < region_count; ++i) {
    if (mask & (1ull << i)) {
      pieces[i] = take_region(c, *schema, i);
      if (c.fail) return r;  // kMalformed
    } else {
      const auto [off, len] = base.regions[i];
      pieces[i] = {base.bytes.data() + off, len};
    }
    total += pieces[i].size();
  }
  if (c.pos != c.n) return r;  // trailing garbage

  wire::ByteBuf out{total};
  Regions new_regions;
  new_regions.reserve(region_count);
  std::size_t at = 0;
  for (const auto& piece : pieces) {
    out.write_bytes(piece);
    new_regions.emplace_back(static_cast<std::uint32_t>(at),
                             static_cast<std::uint32_t>(piece.size()));
    at += piece.size();
  }
  wire::BufSlice msg = std::move(out).take_slice();
  base.bytes.assign(msg.data(), msg.data() + msg.size());
  base.regions = std::move(new_regions);
  ++deltas_;
  r.status = Status::kOk;
  r.msg = std::move(msg);
  return r;
}

}  // namespace kmsg::messaging
