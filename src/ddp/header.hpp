// DDP segment header (shared by the RC stream path and the UD datagram
// path) plus the RDMAP control bits it carries.
//
// Layout (32 bytes, big-endian), inspired by RFC 5041 with the extra fields
// datagram-iWARP needs for self-describing segments (message id/length and
// the source QP number, per paper §IV.B item 4):
//
//   [control u8][queue u8][reserved u16]
//   [stag u32][to u64]          -- tagged model only (else zero)
//   [msn u32]                   -- untagged message seq / tagged message id
//   [mo u32]                    -- segment offset within the message
//   [msg_len u32]               -- total RDMAP message length
//   [src_qpn u32]               -- sender's QP number
//
// control = TAGGED | LAST | rdmap opcode (low nibble).
#pragma once

#include <array>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace dgiwarp::ddp {

inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kCrcBytes = 4;

inline constexpr u8 kCtrlTagged = 0x80;
inline constexpr u8 kCtrlLast = 0x40;
inline constexpr u8 kCtrlOpcodeMask = 0x0F;

/// Untagged queue numbers (RFC 5043 §: QN0 send, QN1 read request,
/// QN2 terminate).
enum class Queue : u8 { kSend = 0, kReadRequest = 1, kTerminate = 2 };

struct SegmentHeader {
  u8 control = 0;
  u8 queue = 0;
  u32 stag = 0;
  u64 to = 0;
  u32 msn = 0;
  u32 mo = 0;
  u32 msg_len = 0;
  u32 src_qpn = 0;

  bool tagged() const { return (control & kCtrlTagged) != 0; }
  bool last() const { return (control & kCtrlLast) != 0; }
  u8 opcode() const { return control & kCtrlOpcodeMask; }

  void set_tagged(bool v) { control = v ? (control | kCtrlTagged)
                                        : (control & ~kCtrlTagged); }
  void set_last(bool v) { control = v ? (control | kCtrlLast)
                                      : (control & ~kCtrlLast); }
  void set_opcode(u8 op) {
    control = static_cast<u8>((control & ~kCtrlOpcodeMask) |
                              (op & kCtrlOpcodeMask));
  }

  /// The 32 header bytes, big-endian, as serialize() appends them.
  std::array<u8, kHeaderBytes> wire() const;
  void serialize(Bytes& out) const;
  static Result<SegmentHeader> parse(WireReader& r);
};

/// Build one wire segment: header + payload (+ CRC32 over both when
/// `with_crc`). This is the ULPDU handed to MPA (RC) or the datagram
/// payload handed to UDP (UD).
Bytes build_segment(const SegmentHeader& h, ConstByteSpan payload,
                    bool with_crc);

/// Parse + validate one wire segment produced by build_segment.
struct ParsedSegment {
  SegmentHeader header;
  ConstByteSpan payload;  // view into the input buffer
};
Result<ParsedSegment> parse_segment(ConstByteSpan wire, bool with_crc);

}  // namespace dgiwarp::ddp
