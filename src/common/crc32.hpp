// CRC32 (IEEE 802.3, as mandated by the MPA/DDP specs). On x86 CPUs with
// PCLMULQDQ it is computed by carry-less-multiply folding, chosen at run
// time; everywhere else, and for short tails, by a slice-by-8 table. Datagram-iWARP "always requires the use of CRC32 when
// sending messages" (paper §IV.B item 6); this is that CRC.
#pragma once

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace dgiwarp {

/// One-shot CRC32 over a span (initial value 0xFFFFFFFF, reflected, final
/// XOR — the standard Ethernet/MPA polynomial 0x04C11DB7).
u32 crc32_ieee(ConstByteSpan data);

/// Incremental form for gather lists / streamed FPDUs.
class Crc32 {
 public:
  void update(ConstByteSpan data);
  void update(const GatherList& gl);
  u32 final() const { return ~state_; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  u32 state_ = 0xFFFFFFFFu;
};

/// Both kernels over the running (pre-inverted) state, for tests. The table
/// kernel is the portable path and the oracle; update_clmul falls back to
/// it when the CPU lacks PCLMULQDQ (see clmul_supported).
namespace crc32_detail {
u32 update_table(u32 state, ConstByteSpan data);
u32 update_clmul(u32 state, ConstByteSpan data);
bool clmul_supported();
}  // namespace crc32_detail

}  // namespace dgiwarp
