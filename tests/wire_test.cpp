#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "common/rng.hpp"
#include "wire/bytebuf.hpp"
#include "wire/codec.hpp"
#include "wire/framing.hpp"
#include "wire/snappy.hpp"

namespace kmsg::wire {
namespace {

std::vector<std::uint8_t> to_vec(const BufSlice& s) {
  return {s.data(), s.data() + s.size()};
}

BufSlice owned(const std::vector<std::uint8_t>& v,
               std::size_t headroom = kCodecHeadroomBytes) {
  return BufSlice::copy_of({v.data(), v.size()}, headroom);
}

// --- ByteBuf ---

TEST(ByteBufTest, PrimitiveRoundTrip) {
  ByteBuf buf;
  buf.write_u8(0xAB);
  buf.write_u16(0x1234);
  buf.write_u32(0xDEADBEEF);
  buf.write_u64(0x0123456789ABCDEFULL);
  buf.write_i64(-42);
  buf.write_f64(3.14159);
  buf.write_bool(true);
  EXPECT_EQ(buf.read_u8(), 0xAB);
  EXPECT_EQ(buf.read_u16(), 0x1234);
  EXPECT_EQ(buf.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(buf.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf.read_i64(), -42);
  EXPECT_DOUBLE_EQ(buf.read_f64(), 3.14159);
  EXPECT_TRUE(buf.read_bool());
  EXPECT_TRUE(buf.exhausted());
}

TEST(ByteBufTest, BigEndianLayout) {
  ByteBuf buf;
  buf.write_u32(0x01020304);
  auto span = buf.full_span();
  EXPECT_EQ(span[0], 0x01);
  EXPECT_EQ(span[3], 0x04);
}

TEST(ByteBufTest, VarintRoundTrip) {
  ByteBuf buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  0xFFFFFFFFull, ~0ull};
  for (auto v : values) buf.write_varint(v);
  for (auto v : values) EXPECT_EQ(buf.read_varint(), v);
}

TEST(ByteBufTest, VarintCompactness) {
  ByteBuf buf;
  buf.write_varint(127);
  EXPECT_EQ(buf.size(), 1u);
  buf.write_varint(128);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(ByteBufTest, StringAndBlob) {
  ByteBuf buf;
  buf.write_string("hello kompics");
  std::vector<std::uint8_t> blob{1, 2, 3, 4};
  buf.write_blob(blob);
  EXPECT_EQ(buf.read_string(), "hello kompics");
  EXPECT_EQ(to_vec(buf.read_blob_slice()), blob);
  EXPECT_TRUE(buf.exhausted());
}

TEST(ByteBufTest, ReadPastEndThrows) {
  ByteBuf buf;
  buf.write_u16(7);
  buf.read_u8();
  EXPECT_THROW(buf.read_u32(), std::out_of_range);
  EXPECT_THROW(buf.read_u16(), std::out_of_range);
  EXPECT_NO_THROW(buf.read_u8());
}

TEST(ByteBufTest, TruncatedBlobThrows) {
  ByteBuf buf;
  buf.write_varint(100);  // claims 100 bytes, none present
  EXPECT_THROW(buf.read_blob_slice(), std::out_of_range);
}

TEST(ByteBufTest, SkipAndIndices) {
  ByteBuf buf;
  buf.write_u32(1);
  buf.write_u32(2);
  buf.skip(4);
  EXPECT_EQ(buf.read_u32(), 2u);
  buf.reset_read_index();
  EXPECT_EQ(buf.read_u32(), 1u);
}

TEST(ByteBufTest, WrapAndTake) {
  std::vector<std::uint8_t> raw{0, 0, 0, 5};
  auto buf = ByteBuf::wrap(raw);
  EXPECT_EQ(buf.read_u32(), 5u);
  ByteBuf out;
  out.write_u8(9);
  auto taken = std::move(out).take_slice();
  EXPECT_EQ(to_vec(taken), std::vector<std::uint8_t>{9});
}

TEST(ByteBufTest, WrapIsAView) {
  // wrap must not copy: reads observe mutations of the wrapped storage.
  std::vector<std::uint8_t> raw{0, 0, 0, 5};
  auto buf = ByteBuf::wrap(raw);
  raw[3] = 7;
  EXPECT_EQ(buf.read_u32(), 7u);
  EXPECT_EQ(buf.full_span().data(), raw.data());
}

// --- The front mark: who may write in front of a slice ---

std::uint64_t payload_copied() {
  return SlabPool::instance().stats().payload_bytes_copied;
}

TEST(FrontMarkTest, FreshCopiedAndTakenSlabsSetTheMark) {
  // A fresh slab's mark is 0: nothing below any slice is claimable yet.
  Slab* fresh = SlabPool::instance().acquire(100);
  EXPECT_EQ(fresh->front.load(), 0u);
  fresh->unref();
  // copy_of and take_slice set the mark at the slice's first byte.
  const std::vector<std::uint8_t> bytes(40, 7);
  EXPECT_EQ(owned(bytes, 24).headroom(), 24u);
  ByteBuf buf{bytes.size(), 12};
  buf.write_bytes(bytes);
  EXPECT_EQ(std::move(buf).take_slice().headroom(), 12u);
  // No headroom: the slice is at the front with nothing below it.
  BufSlice bare = owned(bytes, 0);
  EXPECT_EQ(bare.headroom(), 0u);
  EXPECT_EQ(bare.try_prepend(1), nullptr);
}

TEST(FrontMarkTest, SharedSliceAtTheFrontPrependsInPlaceOnce) {
  const std::vector<std::uint8_t> bytes(40, 7);
  BufSlice first = owned(bytes, 16);
  BufSlice second = first;  // shared: both start at the front
  const std::uint8_t* const data = first.data();
  std::uint8_t* p = first.try_prepend(4);
  ASSERT_EQ(p, data - 4);
  std::memset(p, 0xAB, 4);
  EXPECT_EQ(first.size(), 44u);
  EXPECT_EQ(first.headroom(), 12u);
  // The same bytes claimed again: refused, and the slice is unchanged.
  EXPECT_EQ(second.headroom(), 0u);
  EXPECT_EQ(second.try_prepend(4), nullptr);
  EXPECT_EQ(second.data(), data);
  EXPECT_EQ(second.size(), 40u);
  // Framing it falls back to one counted copy into a slab of its own.
  const std::uint64_t copied0 = payload_copied();
  const BufSlice framed = encode_frame_slice(second);
  EXPECT_EQ(payload_copied() - copied0, bytes.size());
  EXPECT_NE(framed.data() + kFrameHeaderBytes, data);
  EXPECT_EQ(to_vec(framed.slice(kFrameHeaderBytes, bytes.size())), bytes);
  // The winner's prefix is intact, and it may claim further down.
  EXPECT_EQ(to_vec(first.slice(0, 4)),
            (std::vector<std::uint8_t>{0xAB, 0xAB, 0xAB, 0xAB}));
  EXPECT_NE(first.try_prepend(12), nullptr);
  EXPECT_EQ(first.try_prepend(1), nullptr);  // the slab's first byte
}

TEST(FrontMarkTest, SliceNotAtTheFrontNeverPrepends) {
  const std::vector<std::uint8_t> bytes(40, 7);
  BufSlice whole = owned(bytes, 16);
  BufSlice tail = whole.slice(8, 32);
  const std::uint8_t* const data = tail.data();
  EXPECT_EQ(tail.headroom(), 0u);
  EXPECT_EQ(tail.try_prepend(8), nullptr);  // bytes `whole` views
  EXPECT_EQ(tail.try_prepend(1), nullptr);
  // Not even once it is the slab's sole owner.
  whole = BufSlice{};
  ASSERT_TRUE(tail.unique());
  EXPECT_EQ(tail.try_prepend(8), nullptr);
  EXPECT_EQ(tail.data(), data);
  EXPECT_EQ(tail.size(), 32u);
}

TEST(FrontMarkTest, WriteBlobWritesInFrontOfAPayloadWithRoom) {
  const std::vector<std::uint8_t> bytes(1000, 0x5A);
  const BufSlice payload = owned(bytes, 64);
  const std::uint64_t copied0 = payload_copied();
  ByteBuf buf{16, kFrameHeaderBytes};
  buf.write_u32(0xCAFEBABE);
  buf.write_blob(payload);
  BufSlice msg = std::move(buf).take_slice();
  EXPECT_EQ(payload_copied(), copied0);
  // u32 + a 2-byte length, then the payload where it was written.
  ASSERT_EQ(msg.size(), 4u + 2u + bytes.size());
  EXPECT_EQ(msg.data() + 6, payload.data());
  EXPECT_EQ(msg.headroom(), 64u - 6u);
  auto rd = ByteBuf::wrap(msg);
  EXPECT_EQ(rd.read_u32(), 0xCAFEBABEu);
  const BufSlice blob = rd.read_blob_slice();
  EXPECT_EQ(blob.data(), payload.data());
  EXPECT_EQ(to_vec(blob), bytes);
  // The frame header goes in front of the message, in the same slab.
  const BufSlice framed = encode_frame_slice(msg);
  EXPECT_EQ(framed.data() + kFrameHeaderBytes, msg.data());
  EXPECT_EQ(payload_copied(), copied0);
}

TEST(FrontMarkTest, WriteBlobCopiesWhenItCannotClaim) {
  const std::vector<std::uint8_t> bytes(1000, 0x5A);
  const BufSlice payload = owned(bytes, 64);
  ByteBuf first;
  first.write_u8(1);
  first.write_blob(payload);  // claims the bytes in front of the payload
  const BufSlice kept = std::move(first).take_slice();
  // Claimed already, too little room, and not at the front: each is a copy,
  // and counted.
  const BufSlice cramped = owned(bytes, 2);
  const BufSlice inner = owned(bytes, 64).slice(10, 900);
  for (const BufSlice* blob : {&payload, &cramped, &inner}) {
    const std::uint64_t copied0 = payload_copied();
    ByteBuf buf;
    buf.write_u8(2);
    buf.write_blob(*blob);
    const BufSlice msg = std::move(buf).take_slice();
    EXPECT_EQ(payload_copied() - copied0, blob->size());
    EXPECT_NE(msg.data() + msg.size(), blob->data() + blob->size());
    auto rd = ByteBuf::wrap(msg);
    EXPECT_EQ(rd.read_u8(), 2u);
    EXPECT_EQ(to_vec(rd.read_blob_slice()), to_vec(*blob));
  }
  EXPECT_EQ(kept[0], 1u);
}

TEST(FrontMarkTest, WriteAfterAnAdoptedBlobMovesToASlabOfItsOwn) {
  // The payload is the front half of a slice that still views the rest.
  const std::vector<std::uint8_t> bytes(2000, 0x5A);
  const BufSlice whole = owned(bytes, 64);
  const BufSlice payload = whole.slice(0, 1000);
  ByteBuf buf;
  buf.write_u8(1);
  buf.write_blob(payload);
  buf.write_u16(0xFFFF);  // would land on bytes `whole` views
  const BufSlice msg = std::move(buf).take_slice();
  EXPECT_EQ(to_vec(whole), bytes);
  auto rd = ByteBuf::wrap(msg);
  EXPECT_EQ(rd.read_u8(), 1u);
  EXPECT_EQ(to_vec(rd.read_blob_slice()), to_vec(payload));
  EXPECT_EQ(rd.read_u16(), 0xFFFFu);
  EXPECT_TRUE(rd.exhausted());
}

// --- Snappy-like codec ---

TEST(SnappyTest, EmptyInput) {
  auto c = snappy_compress({});
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_TRUE(d->empty());
}

TEST(SnappyTest, HighlyCompressible) {
  std::vector<std::uint8_t> input(10000, 'a');
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() / 10);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, RepeatedPhrase) {
  std::string phrase = "kompics messaging over netty pipelines ";
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 200; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, IncompressibleBoundedExpansion) {
  Rng rng(31);
  std::vector<std::uint8_t> input(100000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next());
  auto c = snappy_compress(input);
  EXPECT_LT(c.size(), input.size() + input.size() / 100 + 16);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

TEST(SnappyTest, RandomizedRoundTripProperty) {
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng.next_below(5000);
    std::vector<std::uint8_t> input(n);
    // Mix of compressible runs and random bytes.
    std::size_t i = 0;
    while (i < n) {
      if (rng.next_bool(0.5)) {
        const auto run = std::min<std::size_t>(n - i, 1 + rng.next_below(64));
        const auto byte = static_cast<std::uint8_t>(rng.next());
        for (std::size_t k = 0; k < run; ++k) input[i++] = byte;
      } else {
        input[i++] = static_cast<std::uint8_t>(rng.next());
      }
    }
    auto c = snappy_compress(input);
    auto d = snappy_decompress(c);
    ASSERT_TRUE(d) << "trial " << trial;
    ASSERT_EQ(*d, input) << "trial " << trial;
  }
}

TEST(SnappyTest, MalformedInputRejected) {
  EXPECT_FALSE(snappy_decompress({}));
  // Claims 10 bytes but provides a copy from before the start.
  std::vector<std::uint8_t> bogus{10, 0x80 | 2, 0x00, 0x05};
  EXPECT_FALSE(snappy_decompress(bogus));
  // Length mismatch.
  std::vector<std::uint8_t> short_out{5, 0x01, 'a', 'b'};
  EXPECT_FALSE(snappy_decompress(short_out));
}

// --- Snappy adversarial inputs: the decompressor sees attacker-shaped bytes
// (a corrupted or hostile stream survives the frame CRC with probability
// 2^-32), so every tag must be bounds-checked and no length field trusted.

TEST(SnappyAdversarialTest, TruncatedTagsRejected) {
  // Literal tag promising a 64-byte run with no (or short) run bytes.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{64, 63}));
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{64, 63, 'x', 'y'}));
  // Copy tag cut off before its 2-byte offset (and mid-offset).
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{8, 0x80}));
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{8, 0x80, 0x00}));
  // A valid literal followed by a truncated second tag.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{9, 0x00, 'a', 0x85, 0x00}));
}

TEST(SnappyAdversarialTest, CopyOffsetsBeyondOutputRejected) {
  // Offset of 2 with only 1 byte produced so far.
  EXPECT_FALSE(snappy_decompress(
      std::vector<std::uint8_t>{5, 0x00, 'a', 0x80, 0x00, 0x02}));
  // Zero offset (self-copy) is never valid.
  EXPECT_FALSE(snappy_decompress(
      std::vector<std::uint8_t>{5, 0x00, 'a', 0x80, 0x00, 0x00}));
}

TEST(SnappyAdversarialTest, OverlappingCopyReplicatesExactly) {
  // Hand-built stream: literal "ab", then a copy of length 6 at offset 2 —
  // the overlap must replicate RLE-style: "ab" + "ababab".
  const std::vector<std::uint8_t> stream{8, 0x01, 'a', 'b',
                                         0x80 | (6 - 4), 0x00, 0x02};
  auto d = snappy_decompress(stream);
  ASSERT_TRUE(d);
  EXPECT_EQ(std::string(d->begin(), d->end()), "abababab");
}

TEST(SnappyAdversarialTest, VarintLengthOverflowRejected) {
  // 10 continuation bytes push the shift past 64 bits: overflow, not wrap.
  std::vector<std::uint8_t> overflow(11, 0xFF);
  overflow[10] = 0x7F;
  EXPECT_FALSE(snappy_decompress(overflow));
  // An unterminated varint (all continuation bits) must also fail.
  EXPECT_FALSE(snappy_decompress(std::vector<std::uint8_t>{0xFF, 0xFF}));
}

TEST(SnappyAdversarialTest, HugeClaimedLengthDoesNotPreallocate) {
  // Claims 1 MiB of output from a 3-byte body. The decompressor must not
  // reserve the claimed length (allocator bomb): the tiny input bounds what
  // the stream could possibly produce. It fails on length mismatch instead.
  std::vector<std::uint8_t> bomb{0x80, 0x80, 0x40};  // 2^20
  bomb.insert(bomb.end(), {0x00, 'a', 0x00});
  EXPECT_FALSE(snappy_decompress(bomb));
  // A claim of 2^42 - 1 bytes: rejected before any allocation.
  std::vector<std::uint8_t> over{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(snappy_decompress(over));
}

TEST(SnappyAdversarialTest, OutputCappedAtOneFrame) {
  // A well-formed block of run-length copies: each 3-byte copy tag emits 131
  // bytes, so ~400 KiB of input inflates past the 16 MiB frame cap.
  auto rle_block = [](std::size_t n) {
    std::vector<std::uint8_t> b;
    std::uint64_t v = n;  // varint of the claimed length
    for (; v >= 0x80; v >>= 7) b.push_back(static_cast<std::uint8_t>(v | 0x80));
    b.push_back(static_cast<std::uint8_t>(v));
    b.insert(b.end(), {0x00, 'a'});  // one literal byte
    std::size_t produced = 1;
    while (produced < n) {
      const std::size_t len = std::min<std::size_t>(n - produced, 131);
      if (len < 4) {  // a copy emits at least 4: finish with literals
        for (std::size_t k = 0; k < len; ++k) b.insert(b.end(), {0x00, 'a'});
        break;
      }
      b.insert(b.end(), {static_cast<std::uint8_t>(0x80 | (len - 4)), 0x00,
                         0x01});
      produced += len;
    }
    return b;
  };
  const auto at_cap = snappy_decompress(rle_block(kDefaultMaxFrameBytes));
  ASSERT_TRUE(at_cap);
  EXPECT_EQ(at_cap->size(), kDefaultMaxFrameBytes);
  EXPECT_FALSE(snappy_decompress(rle_block(kDefaultMaxFrameBytes + 1)));
}

TEST(SnappyAdversarialTest, SeededGarbageNeverCrashesOrOverproduces) {
  // Property: arbitrary bytes either decompress to exactly the claimed
  // length or are rejected — never a crash, never unbounded output.
  Rng rng(0xdec0de);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(256);
    std::vector<std::uint8_t> garbage(n);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    const auto d = snappy_decompress(garbage);
    if (d) {
      // kMaxMatch = 131: no 3-byte tag can emit more, so output is bounded
      // by input size * 131.
      EXPECT_LE(d->size(), n * 131) << "trial " << trial;
    }
  }
}

TEST(SnappyAdversarialTest, SeededCorruptionOfValidStreams) {
  // Property: flipping one byte of a valid stream must never crash or
  // over-produce; it may still round-trip (the flip hit a literal byte) or
  // be rejected, but any accepted output stays bounded.
  Rng rng(0xc0447);
  std::string phrase = "delta frames coalesce over snappy handlers ";
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 40; ++i) {
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  const auto valid = snappy_compress(input);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = valid;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto d = snappy_decompress(corrupted);
    if (d) {
      EXPECT_LE(d->size(), corrupted.size() * 131) << "trial " << trial;
    }
  }
}

TEST(SnappyTest, OverlappingCopyRleSemantics) {
  // "abcabcabc..." exercises overlapping copies (offset < length).
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::uint8_t>('a' + i % 3));
  auto c = snappy_compress(input);
  auto d = snappy_decompress(c);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, input);
}

// --- Framing ---

TEST(FramingTest, EncodeDecodeSingleFrame) {
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  auto framed = encode_frame(payload);
  EXPECT_EQ(framed.size(), payload.size() + kFrameHeaderBytes);
  FrameDecoder dec;
  std::vector<std::vector<std::uint8_t>> frames;
  dec.set_on_frame([&](BufSlice f) { frames.push_back(to_vec(f)); });
  EXPECT_TRUE(dec.feed(framed));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FramingTest, ArbitraryChunkBoundaries) {
  Rng rng(41);
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> p(rng.next_below(200));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    auto framed = encode_frame(p);
    stream.insert(stream.end(), framed.begin(), framed.end());
    sent.push_back(std::move(p));
  }
  FrameDecoder dec;
  std::vector<std::vector<std::uint8_t>> got;
  dec.set_on_frame([&](BufSlice f) { got.push_back(to_vec(f)); });
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next_below(37),
                                                stream.size() - pos);
    EXPECT_TRUE(dec.feed({stream.data() + pos, n}));
    pos += n;
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(dec.frames_decoded(), 50u);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FramingTest, EmptyFrameAllowed) {
  FrameDecoder dec;
  int count = 0;
  dec.set_on_frame([&](BufSlice f) {
    EXPECT_TRUE(f.empty());
    ++count;
  });
  EXPECT_TRUE(dec.feed(encode_frame({})));
  EXPECT_EQ(count, 1);
}

TEST(FramingTest, OversizeFramePoisons) {
  FrameDecoder dec(1024);
  // 1 MiB length plus a (bogus) CRC word to complete the header.
  std::vector<std::uint8_t> evil{0x00, 0x10, 0x00, 0x00, 0, 0, 0, 0};
  EXPECT_FALSE(dec.feed(evil));
  EXPECT_TRUE(dec.poisoned());
  const std::vector<std::uint8_t> one{1};
  EXPECT_FALSE(dec.feed(encode_frame(one)));  // stays poisoned
}

TEST(FramingTest, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string check = "123456789";
  std::vector<std::uint8_t> data(check.begin(), check.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32_sliced(data), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(FramingTest, Crc32FoldingMatchesSlicedReference) {
  // crc32 takes the 512-bit fold once the 16-byte-aligned bulk reaches 256
  // bytes, the 128-bit fold from 64 bytes, and the tables below that; a CPU
  // without the 512-bit instructions folds every bulk 128 bits at a time.
  const unsigned width = crc32_fold_width();
  std::printf("crc32 fold width on this CPU: %u bits\n", width);
  if (width == 0) GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1: nothing folds";
  constexpr std::size_t kMaxLen = 70'000;
  constexpr std::size_t kOffsets = 64;
  Rng rng(47);
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const auto check = [&](std::size_t at, std::size_t len) {
    const std::span<const std::uint8_t> s{buf.data() + at, len};
    ASSERT_EQ(crc32(s), crc32_sliced(s)) << "offset " << at << " len " << len;
  };
  // Every start alignment, including each of a 64-byte vector's, meets
  // every length through both thresholds and several 256-byte steps: the
  // aligned bulk appears, grows by one block, crosses into the 512-bit
  // fold, leaves every remainder of 64- and 16-byte blocks, and is cut by
  // every unaligned head and tail.
  for (std::size_t at = 0; at < kOffsets; ++at) {
    for (std::size_t len = 0; len <= 1'100; ++len) check(at, len);
  }
  // Seeded random lengths up to past a 64 KiB frame, at random alignments.
  for (int i = 0; i < 1500; ++i) {
    check(rng.next_below(kOffsets), rng.next_below(kMaxLen + 1));
  }
  check(0, kMaxLen);
  check(kOffsets - 1, kMaxLen);
}

TEST(FramingTest, CorruptPayloadDetectedAndPoisons) {
  std::vector<std::uint8_t> payload{10, 20, 30, 40, 50, 60};
  auto framed = encode_frame(payload);
  framed[kFrameHeaderBytes + 2] ^= 0x04;  // flip one payload bit in flight
  FrameDecoder dec;
  int delivered = 0;
  dec.set_on_frame([&](BufSlice) { ++delivered; });
  EXPECT_FALSE(dec.feed(framed));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.frames_corrupt(), 1u);
  EXPECT_EQ(delivered, 0);
}

TEST(FramingTest, CorruptHeaderDetected) {
  // A bit flip in the CRC word itself must also fail verification.
  std::vector<std::uint8_t> payload{7, 7, 7};
  auto framed = encode_frame(payload);
  framed[5] ^= 0x80;  // inside the CRC field
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(framed));
  EXPECT_EQ(dec.frames_corrupt(), 1u);
}

// --- Decoder memory bound ---

// bulk_tcp's shape: 65,000-byte frames arriving in borrowed spans (8,928
// bytes, the path MTU's payload, unless a run says otherwise), so every
// byte goes through the decoder's own slab. That slab must stay sized by
// one frame plus one span, not by the stream, however long emitted frames
// are held: dropped at once (the slab rewinds), held until the next one
// arrives, or all held to the end of a shorter stream. The decoder writes
// past its unparsed bytes in a slab its emitted frames alias, so every
// frame held must still read intact when it is checked.
enum class Hold { kNone, kPrevious, kAll };
constexpr std::size_t kFrameBytes = 65'000;

void feed_bulk_stream(Hold hold, std::size_t stream_bytes,
                      std::size_t span_bytes = 8'928) {
  constexpr std::size_t kDistinct = 8;
  Rng rng(53);
  std::vector<std::vector<std::uint8_t>> payloads(kDistinct);
  std::vector<std::uint8_t> cycle;  // the distinct frames, encoded in a row
  for (auto& p : payloads) {
    p.resize(kFrameBytes);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    const auto framed = encode_frame(p);
    cycle.insert(cycle.end(), framed.begin(), framed.end());
  }
  const std::size_t frame_wire = kFrameBytes + kFrameHeaderBytes;
  const std::size_t frames = (stream_bytes + frame_wire - 1) / frame_wire;
  const std::size_t total = frames * frame_wire;

  std::size_t got = 0;
  std::size_t damaged = 0;
  const auto check = [&](const BufSlice& f, std::size_t index) {
    const auto& want = payloads[index % kDistinct];
    if (f.size() != want.size() ||
        std::memcmp(f.data(), want.data(), want.size()) != 0) {
      ++damaged;
    }
  };
  std::vector<BufSlice> held;  // the previous frame, or every frame
  FrameDecoder dec;
  dec.set_on_frame([&](BufSlice f) {
    check(f, got);
    if (hold == Hold::kPrevious) {
      if (got > 0) check(held.back(), got - 1);
      held.assign(1, std::move(f));
    } else if (hold == Hold::kAll) {
      held.push_back(std::move(f));
    }
    ++got;
  });
  std::vector<std::uint8_t> span(span_bytes);
  std::size_t max_capacity = 0;
  for (std::size_t pos = 0; pos < total; pos += span_bytes) {
    const std::size_t n = std::min(span_bytes, total - pos);
    const std::size_t at = pos % cycle.size();
    const std::size_t first = std::min(n, cycle.size() - at);
    std::memcpy(span.data(), cycle.data() + at, first);
    std::memcpy(span.data() + first, cycle.data(), n - first);
    ASSERT_TRUE(dec.feed({span.data(), n}));
    max_capacity = std::max(max_capacity, dec.buffer_capacity());
  }
  const std::size_t first_held = got - held.size();
  for (std::size_t i = 0; i < held.size(); ++i) check(held[i], first_held + i);
  if (hold == Hold::kAll) EXPECT_EQ(held.size(), frames);
  EXPECT_EQ(got, frames);
  EXPECT_EQ(damaged, 0u);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  EXPECT_LE(max_capacity, 256u * 1024);
}

TEST(FrameDecoderBoundTest, SlabBoundedWhenFramesDroppedAtOnce) {
  feed_bulk_stream(Hold::kNone, 64u << 20);
}

TEST(FrameDecoderBoundTest, SlabBoundedWhenHeldFramesPinTheSlab) {
  feed_bulk_stream(Hold::kPrevious, 64u << 20);
}

TEST(FrameDecoderBoundTest, EveryHeldFrameStaysIntact) {
  feed_bulk_stream(Hold::kAll, 4u << 20);
  // Eight spans per frame: each frame ends with a span, leaving nothing
  // unparsed, where the decoder would rewind its slab if no frame held it.
  feed_bulk_stream(Hold::kAll, 4u << 20, (kFrameBytes + kFrameHeaderBytes) / 8);
}

// --- Decoder views: frames cut out of the slab they were fed in ---

/// What a decoder made of a stream fed in pieces.
struct DecodeRun {
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<bool> fed;  ///< each feed's result
  bool poisoned = false;
  std::uint64_t corrupt = 0;
  bool operator==(const DecodeRun&) const = default;
};

/// Feeds each piece as the slice it is (a view of its slab, or borrowed),
/// or with `as_spans` through the copying path, and records the outcome.
DecodeRun decode(const std::vector<BufSlice>& pieces, bool as_spans = false) {
  DecodeRun run;
  FrameDecoder dec;
  dec.set_on_frame([&](BufSlice m) { run.msgs.push_back(to_vec(m)); });
  for (const BufSlice& p : pieces) {
    run.fed.push_back(as_spans ? dec.feed(p.span()) : dec.feed(p));
  }
  run.poisoned = dec.poisoned();
  run.corrupt = dec.frames_corrupt();
  return run;
}

/// The frames of `payloads`, encoded back to back.
std::vector<std::uint8_t> frame_stream(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::uint8_t> out;
  for (const auto& p : payloads) {
    const auto f = encode_frame(p);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> random_payloads(
    std::initializer_list<std::size_t> sizes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> p(n);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    out.push_back(std::move(p));
  }
  return out;
}

/// `whole` cut into adjacent sub-slices at `points` (ascending offsets).
std::vector<BufSlice> cut(const BufSlice& whole,
                          std::initializer_list<std::size_t> points) {
  std::vector<BufSlice> out;
  std::size_t at = 0;
  for (const std::size_t p : points) {
    out.push_back(whole.slice(at, p - at));
    at = p;
  }
  out.push_back(whole.slice(at, whole.size() - at));
  return out;
}

std::uint64_t decoder_copied() {
  return SlabPool::instance().stats().decoder_bytes_copied;
}

TEST(FrameDecoderViewTest, AdjacentSubSlicesDecodeInPlace) {
  // bulk_tcp's shape at a small scale: frames spread over many segments
  // that are adjacent views of the frames' one slab.
  const auto payloads = random_payloads({1000, 5000, 0, 300, 7000}, 61);
  const BufSlice stream = BufSlice::copy_of(frame_stream(payloads));
  const std::uint64_t copied0 = decoder_copied();
  FrameDecoder dec;
  std::vector<BufSlice> frames;
  dec.set_on_frame([&](BufSlice f) { frames.push_back(std::move(f)); });
  for (std::size_t at = 0; at < stream.size(); at += 893) {
    const std::size_t n = std::min<std::size_t>(893, stream.size() - at);
    ASSERT_TRUE(dec.feed(stream.slice(at, n)));
    EXPECT_EQ(dec.buffer_capacity(), 0u) << "took a slab of its own";
  }
  EXPECT_EQ(decoder_copied(), copied0);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  ASSERT_EQ(frames.size(), payloads.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(to_vec(frames[i]), payloads[i]) << "frame " << i;
    // Each payload is a view of the fed slab.
    EXPECT_GE(frames[i].data(), stream.data());
    EXPECT_LE(frames[i].data() + frames[i].size(),
              stream.data() + stream.size());
  }
  // The frames pin the slab; the decoder keeps nothing of it.
  EXPECT_EQ(stream.ref_count(), 1u + frames.size());
  frames.clear();
  EXPECT_TRUE(stream.unique());
}

TEST(FrameDecoderViewTest, JoinThatIsNotContiguousDecodesAsCopying) {
  // The stream's bytes in two slabs, split inside the second frame: the
  // pending view cannot widen into the other slab, so the join is copied.
  const auto payloads = random_payloads({1000, 5000, 300}, 62);
  const auto bytes = frame_stream(payloads);
  const std::size_t split = 3000;
  const BufSlice first = BufSlice::copy_of({bytes.data(), split});
  const BufSlice second =
      BufSlice::copy_of({bytes.data() + split, bytes.size() - split});
  std::vector<BufSlice> pieces = cut(first, {500, 1500});
  for (BufSlice& p : cut(second, {100, 2500, 3100})) {
    pieces.push_back(std::move(p));
  }
  const std::uint64_t copied0 = decoder_copied();
  const DecodeRun got = decode(pieces);
  EXPECT_EQ(got, decode(pieces, /*as_spans=*/true));
  EXPECT_EQ(got.msgs, payloads);
  EXPECT_GT(decoder_copied(), copied0);
}

TEST(FrameDecoderViewTest, GapInTheSameSlabIsAJoinThatIsNotContiguous) {
  // The stream's bytes in one slab with 100 foreign bytes inside the second
  // frame: slices on either side of them share the slab but do not continue
  // each other, so the pending view must not widen over the gap.
  const auto payloads = random_payloads({1000, 5000, 300}, 67);
  auto bytes = frame_stream(payloads);
  const std::size_t gap_at = 2500;
  bytes.insert(bytes.begin() + gap_at, 100, 0xAB);
  const BufSlice slab = BufSlice::copy_of(bytes);
  std::vector<BufSlice> pieces = cut(slab.slice(0, gap_at), {400, 1700});
  for (BufSlice& p : cut(slab.slice(gap_at + 100, bytes.size() - gap_at - 100),
                         {50, 3000})) {
    pieces.push_back(std::move(p));
  }
  const DecodeRun got = decode(pieces);
  EXPECT_EQ(got, decode(pieces, /*as_spans=*/true));
  EXPECT_EQ(got.msgs, payloads);
}

TEST(FrameDecoderViewTest, BorrowedSpanBetweenTwoSlicesDecodesAsCopying) {
  const auto payloads = random_payloads({1000, 5000, 300}, 63);
  const BufSlice stream = BufSlice::copy_of(frame_stream(payloads));
  std::vector<BufSlice> pieces = cut(stream, {1500, 2600, 4000});
  pieces[1] = BufSlice::borrowed(pieces[1].span());
  const DecodeRun got = decode(pieces);
  EXPECT_EQ(got, decode(pieces, /*as_spans=*/true));
  EXPECT_EQ(got.msgs, payloads);
}

TEST(FrameDecoderViewTest, CoalescedFrameInsideAViewIsSplitInPlace) {
  const auto subs_bytes = random_payloads({40, 0, 700, 9}, 64);
  std::vector<BufSlice> subs;
  for (const auto& b : subs_bytes) subs.push_back(BufSlice::copy_of(b));
  const BufSlice coalesced =
      encode_frame_slice(encode_wire_coalesced(subs), /*coalesced=*/true);
  const auto plain = random_payloads({500, 60}, 65);
  std::vector<std::uint8_t> bytes = encode_frame(plain[0]);
  bytes.insert(bytes.end(), coalesced.data(),
               coalesced.data() + coalesced.size());
  const auto tail = encode_frame(plain[1]);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  const BufSlice stream = BufSlice::copy_of(bytes);
  const std::vector<BufSlice> pieces = cut(stream, {300, 530, 900, 1200});
  const std::uint64_t copied0 = decoder_copied();
  const DecodeRun got = decode(pieces);
  EXPECT_EQ(decoder_copied(), copied0);
  EXPECT_EQ(got, decode(pieces, /*as_spans=*/true));
  std::vector<std::vector<std::uint8_t>> want = {plain[0]};
  want.insert(want.end(), subs_bytes.begin(), subs_bytes.end());
  want.push_back(plain[1]);
  EXPECT_EQ(got.msgs, want);
  // Each message of the coalesced frame is a view of the fed slab.
  FrameDecoder dec;
  dec.set_on_frame([&](BufSlice m) {
    EXPECT_GE(m.data(), stream.data());
    EXPECT_LE(m.data() + m.size(), stream.data() + stream.size());
  });
  for (const BufSlice& p : pieces) ASSERT_TRUE(dec.feed(p));
}

TEST(FrameDecoderViewTest, CrcFailureInsideAViewPoisonsAsCopying) {
  const auto payloads = random_payloads({1000, 5000, 300}, 66);
  auto bytes = frame_stream(payloads);
  bytes[kFrameHeaderBytes + 1000 + kFrameHeaderBytes + 2500] ^= 0x10;
  const BufSlice stream = BufSlice::copy_of(bytes);
  const std::vector<BufSlice> pieces = cut(stream, {700, 1500, 4000, 6100});
  const DecodeRun got = decode(pieces);
  EXPECT_EQ(got, decode(pieces, /*as_spans=*/true));
  EXPECT_EQ(got.msgs.size(), 1u);  // the frame before the damage
  EXPECT_TRUE(got.poisoned);
  EXPECT_EQ(got.corrupt, 1u);
  // The piece completing the damaged frame fails, and so does the next.
  EXPECT_EQ(got.fed, (std::vector<bool>{true, true, true, false, false}));
}

// --- Message codec: compress / decompress ---

TEST(CodecTest, CompressionRoundTrip) {
  std::vector<std::uint8_t> payload(5000, 'x');
  auto wire_form = compress(owned(payload));
  EXPECT_LT(wire_form.size(), payload.size());
  EXPECT_EQ(wire_form[0], kSnappyTag);
  auto back = decompress(wire_form);
  ASSERT_TRUE(back);
  EXPECT_EQ(to_vec(*back), payload);
}

TEST(CodecTest, IncompressibleGoesOutUntagged) {
  Rng rng(43);
  std::vector<std::uint8_t> payload(1000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  const BufSlice in = owned(payload);
  const std::uint8_t* at = in.data();
  auto wire_form = compress(in);
  // No tag and no copy: the message leaves exactly as the serialiser wrote it.
  EXPECT_EQ(wire_form.data(), at);
  EXPECT_EQ(to_vec(wire_form), payload);
}

TEST(CodecTest, SmallMessageBypass) {
  std::vector<std::uint8_t> tiny(10, 'a');
  auto wire_form = compress(owned(tiny));
  EXPECT_EQ(to_vec(wire_form), tiny);
}

TEST(CodecTest, CorruptBlockRejected) {
  EXPECT_FALSE(decompress(BufSlice{}));
  EXPECT_FALSE(decompress(owned({0x42, 1, 2})));        // not a snappy block
  EXPECT_FALSE(decompress(owned({kSnappyTag, 0xFF})));  // truncated body
}

}  // namespace
}  // namespace kmsg::wire
