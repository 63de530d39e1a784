// Deterministic structure-aware wire fuzzing (ISSUE 4 tentpole).
//
// Every parser that consumes peer-controlled bytes is hammered with >= 10k
// seeded mutations of valid frames: DDP segments, RDMAP read requests,
// Terminate messages, MPA FPDU streams, RD packets, the IP/UDP/TCP stack
// (fed whole frames through IpLayer::on_frame) and SIP messages. The
// invariants are uniform: never crash, never read out of bounds (enforced
// by the verify-asan ASan/UBSan build of this same binary), and either
// return a well-formed object or a clean Status. The corpus is a pure
// function of the seed — see FuzzCorpusIsDeterministic.
#include <gtest/gtest.h>

#include "apps/sip/message.hpp"
#include "common/checksum.hpp"
#include "common/crc32.hpp"
#include "ddp/header.hpp"
#include "fuzz_util.hpp"
#include "hoststack/host.hpp"
#include "mpa/mpa.hpp"
#include "rd/reliable.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

constexpr int kIterations = 10'000;
constexpr u64 kSeed = 0xF0225EED;

// ---------------------------------------------------------------------------
// Corpus determinism: same seed => byte-for-byte identical mutations.
// ---------------------------------------------------------------------------

TEST(WireFuzz, FuzzCorpusIsDeterministic) {
  const Bytes base = make_pattern(96, 7);
  const Bytes other = make_pattern(64, 9);
  fuzz::Mutator a(kSeed), b(kSeed);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(a.mutate(ConstByteSpan{base}, ConstByteSpan{other}),
              b.mutate(ConstByteSpan{base}, ConstByteSpan{other}))
        << "corpus diverged at iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// DDP segments
// ---------------------------------------------------------------------------

Bytes valid_ddp_segment(bool tagged, bool with_crc, std::size_t payload_len) {
  ddp::SegmentHeader h;
  h.set_opcode(static_cast<u8>(tagged ? rdmap::Opcode::kWrite
                                      : rdmap::Opcode::kSend));
  h.set_tagged(tagged);
  h.set_last(true);
  h.queue = tagged ? 0 : static_cast<u8>(ddp::Queue::kSend);
  h.stag = tagged ? 0x1234 : 0;
  h.to = tagged ? 0x100 : 0;
  h.msn = 7;
  h.mo = 0;
  h.msg_len = static_cast<u32>(payload_len);
  h.src_qpn = 42;
  const Bytes payload = make_pattern(payload_len, 3);
  return ddp::build_segment(h, ConstByteSpan{payload}, with_crc);
}

TEST(WireFuzz, DdpParserSurvivesMutations) {
  fuzz::Mutator m(kSeed);
  const Bytes base_untagged = valid_ddp_segment(false, true, 256);
  const Bytes base_tagged = valid_ddp_segment(true, false, 100);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const bool crc = (i & 1) == 0;
    const Bytes& base = crc ? base_untagged : base_tagged;
    const Bytes mut = m.mutate(ConstByteSpan{base},
                               ConstByteSpan{crc ? base_tagged : base_untagged});
    auto r = ddp::parse_segment(ConstByteSpan{mut}, crc);
    if (!r.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // A well-formed result: payload inside the buffer, lengths consistent.
    const ddp::ParsedSegment& p = *r;
    ASSERT_LE(u64{p.header.mo} + p.payload.size(), u64{p.header.msg_len});
    ASSERT_GE(mut.size(), ddp::kHeaderBytes + p.payload.size());
    if (!p.payload.empty()) {
      ASSERT_GE(p.payload.data(), mut.data());
      ASSERT_LE(p.payload.data() + p.payload.size(), mut.data() + mut.size());
    }
  }
  // With the CRC on, near-everything must be rejected; either way both
  // outcomes have to be exercised for the run to mean anything.
  EXPECT_GT(rejected, kIterations / 2);
  EXPECT_GT(accepted, 0);  // truncate-to-valid-prefix etc. still parse
}

// ---------------------------------------------------------------------------
// RDMAP read requests + Terminate
// ---------------------------------------------------------------------------

TEST(WireFuzz, ReadRequestParserSurvivesMutations) {
  rdmap::ReadRequestPayload req;
  req.sink_stag = 0xAABB;
  req.sink_to = 0x1000;
  req.src_stag = 0xCCDD;
  req.src_to = 0x2000;
  req.length = 4096;
  const Bytes base = req.serialize();
  fuzz::Mutator m(kSeed + 1);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes mut = m.mutate(ConstByteSpan{base});
    auto r = rdmap::ReadRequestPayload::parse(ConstByteSpan{mut});
    if (r.ok()) ++accepted;
  }
  EXPECT_GT(accepted, 0);
}

TEST(WireFuzz, TerminateParserSurvivesMutations) {
  rdmap::TerminateMessage t;
  t.layer = rdmap::TermLayer::kDdp;
  t.error_code = static_cast<u8>(rdmap::TermError::kInvalidStag);
  t.context = 0xDEAD;
  const Bytes base = t.serialize();
  fuzz::Mutator m(kSeed + 2);
  for (int i = 0; i < kIterations; ++i) {
    const Bytes mut = m.mutate(ConstByteSpan{base});
    auto r = rdmap::TerminateMessage::parse(ConstByteSpan{mut});
    if (r.ok()) {
      // Well-formed or rejected: the layer must be a valid enumerator.
      ASSERT_LE(static_cast<u8>(r->layer), 2);
    }
  }
}

// ---------------------------------------------------------------------------
// MPA FPDU stream
// ---------------------------------------------------------------------------

TEST(WireFuzz, MpaReceiverSurvivesMutatedStreams) {
  fuzz::Mutator m(kSeed + 3);
  for (int i = 0; i < kIterations; ++i) {
    mpa::MpaConfig cfg;
    cfg.use_markers = (i & 1) != 0;
    cfg.use_crc = (i & 2) != 0;
    mpa::MpaSender tx(cfg);
    Bytes stream;
    for (int f = 0; f < 3; ++f) {
      const Bytes ulpdu = make_pattern(40 + 64 * f, static_cast<u32>(f));
      const Bytes framed = tx.frame(ConstByteSpan{ulpdu});
      stream.insert(stream.end(), framed.begin(), framed.end());
    }
    const Bytes mut = m.mutate(ConstByteSpan{stream});

    mpa::MpaReceiver rx(cfg);
    std::size_t delivered_bytes = 0;
    rx.on_ulpdu([&](Bytes u, bool) { delivered_bytes += u.size(); });
    // Feed in random chunks: defragmentation and split markers get hit too.
    std::size_t off = 0;
    while (off < mut.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + m.rng().below(600), mut.size() - off);
      const Status st = rx.consume(ConstByteSpan{mut}.subspan(off, n));
      if (!st.ok()) break;  // poisoned stream stays poisoned
      off += n;
    }
    // ULPDUs the receiver yields can never exceed the stream it was fed.
    ASSERT_LE(delivered_bytes, mut.size());
  }
}

// ---------------------------------------------------------------------------
// RD packets
// ---------------------------------------------------------------------------

Bytes valid_rd_packet(u8 type, u64 seq, u32 cum, std::size_t payload_len) {
  Bytes out;
  WireWriter w(out);
  w.u8be(type);
  w.u64be(seq);
  w.u32be(cum);
  w.u32be(0);  // CRC placeholder (zeroed-field convention)
  const Bytes payload = make_pattern(payload_len, 5);
  w.bytes(ConstByteSpan{payload});
  const u32 crc = crc32_ieee(ConstByteSpan{out});
  constexpr std::size_t kCrcAt = 13;
  for (int i = 0; i < 4; ++i)
    out[kCrcAt + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * (3 - i)));
  return out;
}

TEST(WireFuzz, RdPacketParserSurvivesMutations) {
  fuzz::Mutator m(kSeed + 4);
  const Bytes data_pkt = valid_rd_packet(1, 9, 4, 200);
  const Bytes ack_pkt = valid_rd_packet(2, 9, 9, 0);
  int accepted_crc = 0, accepted_nocrc = 0;
  for (int i = 0; i < kIterations; ++i) {
    const bool check_crc = (i & 1) == 0;
    const Bytes mut = m.mutate(ConstByteSpan{data_pkt}, ConstByteSpan{ack_pkt});
    auto r = rd::ReliableDatagram::parse_packet(ConstByteSpan{mut}, check_crc);
    if (!r.ok()) continue;
    check_crc ? ++accepted_crc : ++accepted_nocrc;
    ASSERT_GE(r->type, 1);
    ASSERT_LE(r->type, 3);
    ASSERT_LE(r->body.size(),
              mut.size() - rd::ReliableDatagram::kHeaderBytes);
  }
  // CRC off accepts vastly more damage than CRC on — that asymmetry is the
  // whole reason the RD CRC exists.
  EXPECT_GT(accepted_nocrc, accepted_crc);
}

// ---------------------------------------------------------------------------
// Full host stack: IP / UDP / TCP via IpLayer::on_frame
// ---------------------------------------------------------------------------

// Simplified IP header used by the stack (see hoststack/ip.cpp):
// proto(1) flags(1) ident(2) offset(4) total(4) reserved(8).
Bytes ip_frame_payload(u8 proto, u8 flags, u16 ident, u32 offset, u32 total,
                       ConstByteSpan body) {
  Bytes out;
  WireWriter w(out);
  w.u8be(proto);
  w.u8be(flags);
  w.u16be(ident);
  w.u32be(offset);
  w.u32be(total);
  w.u64be(0);
  w.bytes(body);
  return out;
}

TEST(WireFuzz, HostStackSurvivesMutatedFrames) {
  sim::Topology::Params params;
  params.seed = kSeed;
  sim::Topology topo(params);
  host::Host h(topo, "fuzz-target");

  // A bound UDP socket and a TCP listener so mutated frames reach the full
  // demux + delivery paths, not just the parsers.
  auto usock = *h.udp().open(7000);
  std::size_t udp_rx = 0;
  usock->set_handler(
      [&](host::Endpoint, Bytes d, bool) { udp_rx += d.size(); });
  std::vector<host::TcpSocket::Ptr> accepted;
  (void)h.tcp().listen(8000,
                       [&](host::TcpSocket::Ptr s) { accepted.push_back(s); });

  // Base frames: a single-fragment UDP datagram, the first fragment of a
  // larger one, and a TCP SYN. (TCP checksum is computed by serialize(),
  // so the SYN base is genuinely valid.)
  Bytes udp_dgram;
  {
    WireWriter w(udp_dgram);
    w.u16be(5555);                  // src port
    w.u16be(7000);                  // dst port
    w.u16be(8 + 64);                // length
    w.u16be(0);                     // checksum (disabled for UDP)
    const Bytes p = make_pattern(64, 2);
    w.bytes(ConstByteSpan{p});
  }
  const Bytes base_udp = ip_frame_payload(host::kIpProtoUdp, 0, 1, 0,
                                          static_cast<u32>(udp_dgram.size()),
                                          ConstByteSpan{udp_dgram});
  const Bytes frag_body = make_pattern(400, 8);
  const Bytes base_frag =
      ip_frame_payload(host::kIpProtoUdp, 0x01 /*more fragments*/, 2, 0, 900,
                       ConstByteSpan{frag_body});
  Bytes syn_seg;
  {
    // sp dp seq ack flags rsv wnd csum len — layout from tcp.cpp; the
    // checksum must be valid or the (on-by-default) validation drops it
    // before the interesting code runs, so patch it like serialize() does.
    WireWriter w(syn_seg);
    w.u16be(4444);
    w.u16be(8000);
    w.u64be(100);
    w.u64be(0);
    w.u8be(0x01);  // SYN
    w.u8be(0);
    w.u32be(65'535);
    w.u16be(0);  // checksum placeholder
    w.u16be(0);  // payload length
    const u16 sum = internet_checksum(ConstByteSpan{syn_seg});
    syn_seg[26] = static_cast<u8>(sum >> 8);
    syn_seg[27] = static_cast<u8>(sum);
  }
  const Bytes base_tcp = ip_frame_payload(host::kIpProtoTcp, 0, 3, 0,
                                          static_cast<u32>(syn_seg.size()),
                                          ConstByteSpan{syn_seg});

  const Bytes* bases[] = {&base_udp, &base_frag, &base_tcp};
  fuzz::Mutator m(kSeed + 5);
  u64 frame_id = 1;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes& base = *bases[i % 3];
    const Bytes& other = *bases[(i + 1) % 3];
    sim::Frame f;
    f.src = 0x0A000099;  // some remote address
    f.dst = h.addr();
    f.proto = sim::kProtoIpv4;
    f.id = frame_id++;
    f.payload = m.mutate(ConstByteSpan{base}, ConstByteSpan{other});
    h.ip().on_frame(std::move(f));
    if ((i & 63) == 63) topo.sim().run();
  }
  topo.sim().run();

  // The stack had to both reject garbage and keep functioning: re-inject
  // the pristine UDP frame and see it delivered.
  const std::size_t before = udp_rx;
  sim::Frame ok;
  ok.src = 0x0A000099;
  ok.dst = h.addr();
  ok.proto = sim::kProtoIpv4;
  ok.id = frame_id++;
  ok.payload = base_udp;
  h.ip().on_frame(std::move(ok));
  topo.sim().run();
  EXPECT_EQ(udp_rx, before + 64);

  const auto& reg = topo.sim().telemetry();
  EXPECT_GT(reg.counter_value("hoststack.ip.parse_rejects") +
                reg.counter_value("hoststack.udp.parse_rejects") +
                reg.counter_value("hoststack.tcp.parse_rejects") +
                reg.counter_value("hoststack.tcp.checksum_drops"),
            0u);
}

// ---------------------------------------------------------------------------
// SIP messages
// ---------------------------------------------------------------------------

TEST(WireFuzz, SipParserSurvivesMutations) {
  const Bytes base_req = sip::make_request(sip::Method::kInvite, "alice",
                                           "bob", "call-fuzz-1", 1)
                             .serialize();
  const sip::SipMessage req = *sip::SipMessage::parse(ConstByteSpan{base_req});
  const Bytes base_rsp = sip::make_response(req, 200, "OK").serialize();

  fuzz::Mutator m(kSeed + 6);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes& base = (i & 1) != 0 ? base_req : base_rsp;
    const Bytes& other = (i & 1) != 0 ? base_rsp : base_req;
    const Bytes mut = m.mutate(ConstByteSpan{base}, ConstByteSpan{other});
    auto r = sip::SipMessage::parse(ConstByteSpan{mut});  // must never throw
    if (!r.ok()) continue;
    ++accepted;
    ASSERT_LE(r->body.size(), mut.size());
    ASSERT_LE(r->headers.size(), 128u);
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace dgiwarp
