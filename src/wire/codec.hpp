// Self-describing message encodings.
//
// Every message on the wire says how it is encoded, so a receiver decodes
// any mix of senders without configuration: how a message travels is the
// sender's choice alone. A message's first byte is either the first byte of
// its envelope's type-id varint or one of the codec tags below. The tags sit
// under kReservedTypeIds, which SerializerRegistry::register_type refuses,
// and the varint of any larger id starts with a byte >= kReservedTypeIds
// (ids up to 127 are their own byte, larger ones set the continuation bit),
// so a tag can never be mistaken for a message:
//   kDeltaKeyframeTag | full serialised message
//   kDeltaDiffTag     | varint type id | varint field mask | changed regions
//   kSnappyTag        | snappy block of the (possibly delta-coded) message
// The sender applies delta coding, then compression; the receiver undoes
// them in reverse order, each only when its tag is present. An untagged
// message is plain envelope bytes, exactly as the serialiser wrote them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "wire/buffer.hpp"

namespace kmsg::wire {

/// Delta codec keyframe: the full message follows (messaging/serialization).
inline constexpr std::uint8_t kDeltaKeyframeTag = 0x00;
/// Delta codec diff against the connection's last message of that type.
inline constexpr std::uint8_t kDeltaDiffTag = 0x01;
/// Snappy block (wire/snappy.hpp) produced by compress().
inline constexpr std::uint8_t kSnappyTag = 0x02;
/// Type ids below this are the codec tags and are never registered.
inline constexpr std::uint32_t kReservedTypeIds = 3;

/// Per-layer prepend budgets. Every layer that writes ahead of a message
/// declares its worst-case prefix here; the serialiser's headroom covers
/// their sum, so the outbound stack prepends in place without copying
/// payload bytes (the frame header is budgeted separately, see
/// kFrameHeaderBytes).
/// One codec tag each for the delta codec and compression.
inline constexpr std::size_t kCodecTagBytes = 1;
/// Coalescer sub-message header: varint length of one sub-message. Never
/// prepended in place (the coalescer gathers into a fresh buffer), but
/// budgeted so the headroom stays a safe upper bound if that changes.
/// 5 varint bytes cover lengths up to 2^35 — far past kDefaultMaxFrameBytes.
inline constexpr std::size_t kCoalesceSubHeaderMaxBytes = 5;
/// Headroom bytes a serialiser reserves ahead of each message for the codec
/// layers.
inline constexpr std::size_t kCodecHeadroomBytes = 8;
static_assert(2 * kCodecTagBytes + kCoalesceSubHeaderMaxBytes <=
                  kCodecHeadroomBytes,
              "codec layers outgrew the serialiser headroom");

/// Compresses one message into a kSnappyTag block. A message under 64 bytes,
/// or one compression cannot shrink, is returned as it is, untagged and
/// uncopied, so enabling compression never inflates traffic.
BufSlice compress(BufSlice msg);

/// Inverse of compress() for a kSnappyTag block: std::nullopt when the tag
/// is missing or the block is malformed.
std::optional<BufSlice> decompress(const BufSlice& block);

}  // namespace kmsg::wire
