#include "ddp/header.hpp"

#include "common/crc32.hpp"

namespace dgiwarp::ddp {

std::array<u8, kHeaderBytes> SegmentHeader::wire() const {
  std::array<u8, kHeaderBytes> b{};
  auto put = [&b](std::size_t at, u64 v, int bytes) {
    for (int i = bytes - 1; i >= 0; --i, v >>= 8)
      b[at + static_cast<std::size_t>(i)] = static_cast<u8>(v);
  };
  b[0] = control;
  b[1] = queue;  // b[2..3]: reserved, zero
  put(4, stag, 4);
  put(8, to, 8);
  put(16, msn, 4);
  put(20, mo, 4);
  put(24, msg_len, 4);
  put(28, src_qpn, 4);
  return b;
}

void SegmentHeader::serialize(Bytes& out) const {
  const std::array<u8, kHeaderBytes> b = wire();
  out.insert(out.end(), b.begin(), b.end());
}

Result<SegmentHeader> SegmentHeader::parse(WireReader& r) {
  SegmentHeader h;
  h.control = r.u8be();
  h.queue = r.u8be();
  r.u16be();
  h.stag = r.u32be();
  h.to = r.u64be();
  h.msn = r.u32be();
  h.mo = r.u32be();
  h.msg_len = r.u32be();
  h.src_qpn = r.u32be();
  if (!r.ok()) return Status(Errc::kProtocolError, "short DDP header");
  return h;
}

Bytes build_segment(const SegmentHeader& h, ConstByteSpan payload,
                    bool with_crc) {
  Bytes out;
  out.reserve(kHeaderBytes + payload.size() + (with_crc ? kCrcBytes : 0));
  h.serialize(out);
  out.insert(out.end(), payload.begin(), payload.end());
  if (with_crc) {
    const u32 crc = crc32_ieee(ConstByteSpan{out});
    WireWriter w(out);
    w.u32be(crc);
  }
  return out;
}

Result<ParsedSegment> parse_segment(ConstByteSpan wire, bool with_crc) {
  const std::size_t trailer = with_crc ? kCrcBytes : 0;
  if (wire.size() < kHeaderBytes + trailer)
    return Status(Errc::kProtocolError, "DDP segment too short");

  if (with_crc) {
    const std::size_t body = wire.size() - kCrcBytes;
    const u32 want = crc32_ieee(wire.subspan(0, body));
    const ConstByteSpan cb = wire.subspan(body, 4);
    const u32 got =
        (u32{cb[0]} << 24) | (u32{cb[1]} << 16) | (u32{cb[2]} << 8) | cb[3];
    if (want != got)
      return Status(Errc::kCrcError, "DDP segment CRC mismatch");
  }

  WireReader r(wire);
  auto hr = SegmentHeader::parse(r);
  if (!hr.ok()) return hr.status();
  ParsedSegment p;
  p.header = *hr;
  p.payload = wire.subspan(kHeaderBytes, wire.size() - kHeaderBytes - trailer);

  // Header self-consistency: never trust peer-supplied lengths. All of
  // these are reachable with CRC off (or through a CRC collision), and each
  // would otherwise let a corrupted field index past a buffer downstream.
  const SegmentHeader& h = p.header;
  // Valid RDMAP opcodes in the control nibble: 0x0-0x6 (RFC 5040) plus 0x8
  // (Write-Record). Mirrors rdmap::Opcode, which ddp cannot include.
  constexpr u16 kValidOpcodes = 0b0000'0001'0111'1111;
  if (((kValidOpcodes >> h.opcode()) & 1) == 0)
    return Status(Errc::kProtocolError, "DDP segment: bad RDMAP opcode");
  if (!h.tagged() && h.queue > static_cast<u8>(Queue::kTerminate))
    return Status(Errc::kProtocolError, "DDP segment: bad untagged queue");
  if (u64{h.mo} + p.payload.size() > u64{h.msg_len})
    return Status(Errc::kProtocolError,
                  "DDP segment: offset + payload exceeds message length");
  return p;
}

}  // namespace dgiwarp::ddp
