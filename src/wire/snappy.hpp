// A Snappy-style LZ77 block codec.
//
// The paper's Netty pipeline carries a Snappy compression handler by default;
// this module plays the same role here, through wire::compress (codec.hpp),
// which a sender applies per message. The format is our own
// (NOT binary-compatible with Google Snappy) but follows the same design:
// greedy hash-table matching of 4-byte groups, literal runs and
// (offset, length) copies, byte-aligned tags, no entropy coding — favouring
// speed over ratio, which is what a network pipeline wants.
//
// Format: varint uncompressed_length, then a tag stream:
//   tag 0xxxxxxx -> literal run of (x+1) bytes (1..128), bytes follow
//   tag 1xxxxxxx -> copy: length (x+4) (4..131), then u16 big-endian offset
// Copies may overlap themselves (RLE-style), as in LZ77.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace kmsg::wire {

/// Compresses `input`. Worst case output is input.size() + input.size()/128
/// + ~10 bytes.
std::vector<std::uint8_t> snappy_compress(std::span<const std::uint8_t> input);

/// Decompresses a block produced by snappy_compress. Returns std::nullopt on
/// malformed input (never reads/writes out of bounds) and on a block that
/// claims more than kDefaultMaxFrameBytes of output.
std::optional<std::vector<std::uint8_t>> snappy_decompress(
    std::span<const std::uint8_t> input);

}  // namespace kmsg::wire
