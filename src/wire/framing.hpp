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
// headroom), so encoding a frame moves no payload bytes. feed(BufSlice) parses frames straight out of the slab it is fed and
// emits each as a BufSlice *view* of it; the unparsed bytes stay a view of
// that slab too, which widens while the next chunk continues it in the same
// slab. A stream transport hands the decoder views of the sender's written
// frames (DESIGN.md §4b), so a frame spread over many segments is decoded
// where it was written. Only a borrowed span (feed(span)) or a join that is
// not contiguous is copied, into the decoder's accumulation slab, whose
// frames are emitted as views of it and pin it via refcount. That slab is
// sized by the largest frame, not by the stream: when a chunk does not fit,
// the decoder slides the not-yet-parsed tail to the front of a slab it
// solely owns, swaps a slab pinned by emitted frames for a pooled one of the
// same capacity, and grows only when one frame outgrows the slab.
// SlabPoolStats::decoder_bytes_copied counts what it copies.
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
/// are emitted through the callback in order as slices of the fed slab (or
/// of the decoder's accumulation slab on the copying path). The callback may
/// retain the slice — it pins the backing slab.
class FrameDecoder {
 public:
  using FrameFn = std::function<void(BufSlice)>;

  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}
  FrameDecoder(FrameDecoder&& other) noexcept { move_from(other); }
  FrameDecoder& operator=(FrameDecoder&& other) noexcept {
    if (this != &other) {
      release_slab();
      move_from(other);
    }
    return *this;
  }
  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;
  ~FrameDecoder() { release_slab(); }

  /// The callback receives one message per call: a plain frame's payload,
  /// or each message of a coalesced frame as a sub-slice of its slab.
  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }

  /// Consumes a stream chunk the caller keeps: its bytes are copied into the
  /// accumulation slab. Returns false (and poisons the decoder) if a frame
  /// header exceeds the size limit, a frame fails its CRC or a coalesced
  /// frame holds a malformed message length — the stream is unrecoverable
  /// then.
  bool feed(std::span<const std::uint8_t> chunk);

  /// Zero-copy variant: frames are emitted as sub-slices of `chunk`'s own
  /// slab, and an incomplete tail is kept as a view of it, widened in place
  /// by a next chunk that continues it in the same slab. Copies (as
  /// feed(span) does) only a borrowed chunk, a chunk that joins pending
  /// bytes it does not continue in memory, and chunks fed while the
  /// accumulation slab holds a partial frame.
  bool feed(const BufSlice& chunk);

  bool poisoned() const { return poisoned_; }
  /// Unparsed bytes held, as a view or in the accumulation slab.
  std::size_t buffered_bytes() const { return view_.size() + end_ - start_; }
  /// Capacity of the accumulation slab (0 when none is held). Bounded by
  /// the largest frame plus one fed chunk, rounded up to a pool size
  /// class, not by the length of the stream. Views of fed slabs take no
  /// slab of the decoder's own.
  std::size_t buffer_capacity() const { return slab_ ? slab_->capacity : 0; }
  std::uint64_t frames_decoded() const { return frames_; }
  /// Frames rejected for a failed CRC check or a malformed coalesced
  /// payload.
  std::uint64_t frames_corrupt() const { return corrupt_; }
  /// Frames that carried the coalesced flag.
  std::uint64_t coalesced_frames() const { return coalesced_; }

 private:
  /// Parses complete frames out of [data + start, data + end); emits via
  /// `emit` (which receives payload offset + length relative to `data`, and
  /// the coalesced flag). Advances `start`. Returns false on poison.
  template <typename EmitFn>
  bool parse(const std::uint8_t* data, std::size_t& start, std::size_t end,
             EmitFn&& emit);
  /// parse() over an owning slice, emitting sub-slices of it.
  bool parse_slice(const BufSlice& s, std::size_t& pos);
  /// Copies `chunk` after the unparsed bytes of the accumulation slab.
  void append(std::span<const std::uint8_t> chunk);
  /// Hands one CRC-validated frame payload to the callback, splitting a
  /// coalesced payload into per-message sub-slices first.
  void emit_payload(BufSlice payload, bool coalesced);
  void release_slab() noexcept;
  void move_from(FrameDecoder& other) noexcept {
    max_frame_ = other.max_frame_;
    view_ = std::move(other.view_);
    slab_ = other.slab_;
    start_ = other.start_;
    end_ = other.end_;
    poisoned_ = other.poisoned_;
    frames_ = other.frames_;
    corrupt_ = other.corrupt_;
    coalesced_ = other.coalesced_;
    on_frame_ = std::move(other.on_frame_);
    other.slab_ = nullptr;
    other.start_ = other.end_ = 0;
  }

  std::size_t max_frame_ = kDefaultMaxFrameBytes;
  /// Unparsed bytes as a view of a fed slab; empty while the accumulation
  /// slab holds unparsed bytes.
  BufSlice view_;
  Slab* slab_ = nullptr;   ///< accumulation slab (decoder holds one ref)
  std::size_t start_ = 0;  ///< offset of the first unparsed byte
  std::size_t end_ = 0;    ///< offset past the last buffered byte
  bool poisoned_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t coalesced_ = 0;
  FrameFn on_frame_;
};

}  // namespace kmsg::wire
