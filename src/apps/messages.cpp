#include "apps/messages.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define KMSG_PAYLOAD_AVX512 1
#else
#define KMSG_PAYLOAD_AVX512 0
#endif

namespace kmsg::apps {

namespace {

// The payload is a run of little-endian 64-bit words: word w, covering
// bytes 8w .. 8w+7 of the transfer, is the splitmix64 output for w. One hash
// per 8 bytes keeps the bytes incompressible to LZ-class codecs and
// verifiable from the position alone; whole words are written and checked
// at once, and only an unaligned head or tail goes byte by byte. On a CPU
// with AVX512F and AVX512DQ the whole words go 8 per vector, chosen once
// (payload_kernel_width); the scalar word loops stay as the portable path,
// the path for the last < 8 words, and the tests' reference.
static_assert(std::endian::native == std::endian::little);

std::uint64_t payload_word(std::uint64_t w) { return splitmix64(w); }

std::uint8_t payload_byte(std::uint64_t pos) {
  return static_cast<std::uint8_t>(payload_word(pos >> 3) >> (8 * (pos & 7)));
}

#if KMSG_PAYLOAD_AVX512
// Intrinsics, not the auto-vectoriser: GCC 12 vectorises the scalar word
// loop at -O3 (Release) but not at -O2 (RelWithDebInfo).

/// splitmix64's constants (common/rng.hpp): splitmix64(w) mixes
/// z = w + kGamma with two xor-shift-multiply rounds.
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMix2 = 0x94d049bb133111ebULL;

/// splitmix64 of eight words at once, given z = w + kGamma in each lane.
__attribute__((target("avx512f,avx512dq"))) inline __m512i mix_x8(__m512i z) {
  // The masked shift with every lane selected is the plain vpsrlq; GCC 12's
  // _mm512_srli_epi64 trips a false -Wmaybe-uninitialized.
  constexpr __mmask8 kAll = 0xFF;
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_mask_srli_epi64(z, kAll, z, 30)),
      _mm512_set1_epi64(static_cast<long long>(kMix1)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_mask_srli_epi64(z, kAll, z, 27)),
      _mm512_set1_epi64(static_cast<long long>(kMix2)));
  return _mm512_xor_si512(z, _mm512_mask_srli_epi64(z, kAll, z, 31));
}

/// z for words w .. w+7; adding 8 moves it to the next eight.
__attribute__((target("avx512f,avx512dq"))) inline __m512i first_lanes(
    std::uint64_t w) {
  return _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(w + kGamma)),
      _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
}

/// Writes words w .. w + 8 * vectors - 1 to `out`.
__attribute__((target("avx512f,avx512dq"))) void write_words_x8(
    std::uint64_t w, std::uint8_t* out, std::size_t vectors) {
  const __m512i eight = _mm512_set1_epi64(8);
  __m512i z = first_lanes(w);
  // Four independent vectors per step hide the multiplies' latency.
  for (; vectors >= 4; vectors -= 4, out += 256) {
    const __m512i z1 = _mm512_add_epi64(z, eight);
    const __m512i z2 = _mm512_add_epi64(z1, eight);
    const __m512i z3 = _mm512_add_epi64(z2, eight);
    _mm512_storeu_si512(out, mix_x8(z));
    _mm512_storeu_si512(out + 64, mix_x8(z1));
    _mm512_storeu_si512(out + 128, mix_x8(z2));
    _mm512_storeu_si512(out + 192, mix_x8(z3));
    z = _mm512_add_epi64(z3, eight);
  }
  for (; vectors != 0; --vectors, out += 64) {
    _mm512_storeu_si512(out, mix_x8(z));
    z = _mm512_add_epi64(z, eight);
  }
}

/// Vectors compared between two tests of the accumulated difference: a
/// block of 256 words (2 KiB).
constexpr std::size_t kVerifyBlockVectors = 32;

/// Whether `in` holds words w .. w + 8 * vectors - 1. Across each block it
/// ORs together every word XORed with its expected value and tests the
/// result once, so every byte is compared and a bad block ends the check.
__attribute__((target("avx512f,avx512dq"))) bool words_match_x8(
    std::uint64_t w, const std::uint8_t* in, std::size_t vectors) {
  const __m512i eight = _mm512_set1_epi64(8);
  __m512i z = first_lanes(w);
  while (vectors != 0) {
    const std::size_t block = std::min(vectors, kVerifyBlockVectors);
    __m512i diff = _mm512_setzero_si512();
    for (std::size_t v = 0; v < block; ++v, in += 64) {
      diff = _mm512_or_si512(
          diff, _mm512_xor_si512(_mm512_loadu_si512(in), mix_x8(z)));
      z = _mm512_add_epi64(z, eight);
    }
    if (_mm512_test_epi64_mask(diff, diff) != 0) return false;
    vectors -= block;
  }
  return true;
}
#endif

}  // namespace

unsigned payload_kernel_width() {
#if KMSG_PAYLOAD_AVX512
  static const unsigned width = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512dq")
               ? 512u
               : 64u;
  }();
  return width;
#else
  return 64;
#endif
}

wire::BufSlice make_payload_slice(std::uint64_t offset, std::size_t len) {
  wire::ByteBuf buf{len};
  std::uint8_t* out = buf.write_span(len).data();
  std::size_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    out[i] = payload_byte(offset + i);
  }
#if KMSG_PAYLOAD_AVX512
  if (payload_kernel_width() == 512) {
    const std::size_t vectors = (len - i) / 64;
    write_words_x8((offset + i) >> 3, out + i, vectors);
    i += vectors * 64;
  }
#endif
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
#if KMSG_PAYLOAD_AVX512
  if (payload_kernel_width() == 512) {
    const std::size_t vectors = (len - i) / 64;
    if (!words_match_x8((offset + i) >> 3, in + i, vectors)) return false;
    i += vectors * 64;
  }
#endif
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
