// Length-prefixed, checksummed framing for stream transports.
//
// The messaging layer writes serialised messages as frames into a TCP/UDT
// byte stream; the decoder re-slices the stream into frames on the receiving
// side regardless of how the transport segmented it. Frame layout:
//   u32 big-endian length word | u32 big-endian CRC-32 of payload | payload
// The length word's low 31 bits are the payload length. Its top bit marks a
// *coalesced* frame, whose payload packs many messages as
//   (varint length | message)...
// under the one header; a frame without it carries exactly one message, so
// the framer never reads inside a payload to tell the two apart. Frames are
// capped far below 2^31 bytes, so the bit never belongs to a length. A
// coalesced frame's CRC is inverted, which puts the flag under the check.
// A maximum frame size guards against corrupted-length runaway allocation,
// and the CRC catches bit errors that escaped the transport's checksum (the
// netsim chaos layer injects exactly those). The CRC folds 512 bits per
// carry-less multiply with VPCLMULQDQ, or 128 with PCLMULQDQ, chosen once
// from what the CPU has, and falls back to slicing-by-8 tables; every path
// gives the same value, so the choice never shows on the wire. A CRC mismatch poisons
// the decoder: once any byte of the stream is untrusted, frame boundaries
// are untrusted too, so the only safe recovery is tearing the connection
// down and re-establishing the session (which the messaging layer does).
//
// Zero-copy model: encode_frame_slice writes the 8-byte header into the
// payload slice's headroom in place when it can claim those bytes, i.e.
// the slice starts at its slab's front mark (the serialiser reserves that
// headroom), so encoding a frame moves no payload bytes. The decoder keeps
// its unparsed bytes as one BufSlice: a view of the slab they were fed in,
// widened while the next chunk continues it there, or a view of a slab the
// decoder wrote itself. Frames are emitted as sub-slices of that slab and
// pin it via refcount. A stream transport hands the decoder views of the
// sender's written frames (DESIGN.md §4b), so a frame spread over many
// segments is decoded where it was written. Only a borrowed span
// (feed(span)), a join that is not contiguous, or a chunk fed while the
// decoder holds copied bytes is copied, past the view into the decoder's
// own slab. When it does not fit there, only the unparsed bytes move, to a
// fresh slab sized for the frame in progress plus the chunk, so the slab is
// sized by the largest frame, not by the stream; with nothing unparsed and
// no emitted frame aliasing it, the next copy starts at its front again.
// SlabPoolStats::decoder_bytes_copied counts the bytes it copies and
// grow_bytes_copied those it moves.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "wire/buffer.hpp"

namespace kmsg::wire {

/// Default ceiling mirrors the paper's 65 kB serialisation buffers with
/// headroom for headers.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16 * 1024 * 1024;

/// Bytes of framing overhead per frame (length + CRC).
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Gathers encoded messages into one coalesced frame payload
/// ((varint len | bytes)...) with `headroom` spare bytes for the frame
/// header; frame it with encode_frame_slice(payload, /*coalesced=*/true).
/// One copy per message — the price of amortising the header.
BufSlice encode_wire_coalesced(std::span<const BufSlice> subs,
                               std::size_t headroom = kFrameHeaderBytes);

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte span. It folds the
/// 16-byte-aligned bulk of the span with carry-less multiplication: 512
/// bits at a time once that bulk reaches 256 bytes on a CPU with VPCLMULQDQ
/// and AVX512F, 128 bits at a time once it reaches 64 bytes on a CPU with
/// PCLMULQDQ and SSE4.1. Shorter spans, the unaligned ends and CPUs without
/// the instructions take crc32_sliced. Every path gives the same value for
/// every input.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The table-driven (slicing-by-8) CRC-32: crc32's portable path, and the
/// reference the tests hold the folding path to.
std::uint32_t crc32_sliced(std::span<const std::uint8_t> data);

/// The widest fold crc32 uses on this CPU, checked once: 512 (VPCLMULQDQ
/// and AVX512F), 128 (PCLMULQDQ and SSE4.1) or 0 (tables only).
unsigned crc32_fold_width();

/// Prepends the length + CRC header to a payload (returns a new vector).
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload);

/// Zero-copy framing: prepends the header in place via the slice's headroom
/// when possible (BufSlice::try_prepend claims the kFrameHeaderBytes in
/// front of it); otherwise falls back to one counted copy into a fresh
/// slab. The returned slice covers
/// header + payload. `coalesced` marks a payload built by
/// encode_wire_coalesced.
BufSlice encode_frame_slice(BufSlice payload, bool coalesced = false);

/// Incremental frame decoder: feed arbitrary stream chunks; complete frames
/// are emitted through the callback in order as slices of the slab their
/// bytes are in: the fed one, or on the copying path the decoder's own. The
/// callback may retain the slice — it pins the backing slab. Neither
/// copyable nor movable: it writes a slab of its own.
class FrameDecoder {
 public:
  using FrameFn = std::function<void(BufSlice)>;

  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}
  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;

  /// The callback receives one message per call: a plain frame's payload,
  /// or each message of a coalesced frame as a sub-slice of its slab.
  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }

  /// Consumes a stream chunk the caller keeps: its bytes are copied into the
  /// decoder's own slab. Returns false (and poisons the decoder) if a frame
  /// header exceeds the size limit, a frame fails its CRC or a coalesced
  /// frame holds a malformed message length — the stream is unrecoverable
  /// then.
  bool feed(std::span<const std::uint8_t> chunk) {
    return feed(BufSlice::borrowed(chunk));
  }

  /// Zero-copy variant: frames are emitted as sub-slices of `chunk`'s own
  /// slab, and an incomplete tail is kept as a view of it, widened in place
  /// by a next chunk that continues it in the same slab. Copies (as
  /// feed(span) does) only a borrowed chunk, a chunk that joins pending
  /// bytes it does not continue in memory, and chunks fed while the
  /// decoder's own slab holds unparsed bytes.
  bool feed(const BufSlice& chunk);

  bool poisoned() const { return poisoned_; }
  /// Unparsed bytes held, as a view of a fed slab or in the decoder's own.
  std::size_t buffered_bytes() const { return pending_.size(); }
  /// Capacity of the decoder's own slab (0 while it holds none). Bounded by
  /// the largest frame plus one fed chunk, rounded up to an arena class,
  /// not by the length of the stream. Views of fed slabs take no slab of
  /// the decoder's own.
  std::size_t buffer_capacity() const {
    return own_ ? pending_.slab_->capacity : 0;
  }
  std::uint64_t frames_decoded() const { return frames_; }
  /// Frames rejected for a failed CRC check or a malformed coalesced
  /// payload.
  std::uint64_t frames_corrupt() const { return corrupt_; }
  /// Frames that carried the coalesced flag.
  std::uint64_t coalesced_frames() const { return coalesced_; }

 private:
  /// Parses complete frames out of `s` from `pos` on, emitting sub-slices
  /// of it, and advances `pos` past them. Returns false on poison.
  bool parse(const BufSlice& s, std::size_t& pos);
  /// Copies `chunk` after the unparsed bytes, into the decoder's own slab.
  void append(std::span<const std::uint8_t> chunk);
  /// Hands one CRC-validated frame payload to the callback, splitting a
  /// coalesced payload into per-message sub-slices first.
  void emit_payload(BufSlice payload, bool coalesced);

  std::size_t max_frame_ = kDefaultMaxFrameBytes;
  /// The unparsed bytes: a view of the slab they were fed in, or with
  /// `own_` of the decoder's own slab, which it writes only past this view
  /// and keeps (the view empty) once they are parsed.
  BufSlice pending_;
  bool own_ = false;
  bool poisoned_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t coalesced_ = 0;
  FrameFn on_frame_;
};

}  // namespace kmsg::wire
