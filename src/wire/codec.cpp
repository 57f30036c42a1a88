#include "wire/codec.hpp"

#include "wire/bytebuf.hpp"
#include "wire/framing.hpp"
#include "wire/snappy.hpp"

namespace kmsg::wire {

namespace {
/// Below this a snappy block rarely beats the message it encodes.
constexpr std::size_t kMinCompressBytes = 64;
}  // namespace

BufSlice compress(BufSlice msg) {
  if (msg.size() < kMinCompressBytes) return msg;
  const auto block = snappy_compress(msg.span());
  if (kCodecTagBytes + block.size() >= msg.size()) return msg;
  ByteBuf out{kCodecTagBytes + block.size(),
              kCodecHeadroomBytes + kFrameHeaderBytes};
  out.write_u8(kSnappyTag);
  out.write_bytes(block);
  return std::move(out).take_slice();
}

std::optional<BufSlice> decompress(const BufSlice& block) {
  if (block.empty() || block[0] != kSnappyTag) return std::nullopt;
  auto bytes = snappy_decompress(block.span().subspan(kCodecTagBytes));
  if (!bytes) return std::nullopt;
  return BufSlice::copy_of(*bytes);
}

}  // namespace kmsg::wire
