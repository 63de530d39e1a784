// RFC 1071 Internet checksum (16-bit ones'-complement sum). TCP uses this
// over each segment so link-level corruption is caught and repaired by
// retransmission instead of being streamed into MPA. Kept separate from
// crc32.hpp: the transports checksum with this, the ULPs CRC with that.
#pragma once

#include <bit>
#include <cstring>

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace dgiwarp {

/// Ones'-complement sum of `data` as big-endian 16-bit words (odd trailing
/// byte padded with zero), final complement. All-zero input yields 0xFFFF;
/// a correct checksum field makes the recomputed sum-with-field == 0xFFFF.
///
/// Computed as RFC 1071 §2 allows: native-order 64-bit words summed with
/// end-around carry, folded to 16 bits, then byte-swapped on little-endian
/// hosts. Ones'-complement addition is associative and byte-order
/// independent, so the result equals the big-endian 16-bit word loop.
inline u16 internet_checksum(ConstByteSpan data) {
  const u8* p = data.data();
  std::size_t n = data.size();
  u64 sum = 0;
  auto add = [&sum](u64 w) {
    sum += w;
    sum += sum < w;  // end-around carry
  };
  for (; n >= 8; p += 8, n -= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
    add(w);
  }
  if (n >= 4) {
    u32 w;
    std::memcpy(&w, p, 4);
    add(w);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    u16 w;
    std::memcpy(&w, p, 2);
    add(w);
    p += 2;
    n -= 2;
  }
  // The odd last byte is the high half of a big-endian word.
  if (n) add(std::endian::native == std::endian::little ? u64{p[0]}
                                                        : u64{p[0]} << 8);
  sum = (sum & 0xFFFFFFFFu) + (sum >> 32);
  sum = (sum & 0xFFFFFFFFu) + (sum >> 32);
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  u16 folded = static_cast<u16>(sum);
  if constexpr (std::endian::native == std::endian::little)
    folded = static_cast<u16>((folded << 8) | (folded >> 8));
  return static_cast<u16>(~folded);
}

}  // namespace dgiwarp
