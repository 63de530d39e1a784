// Reliable-datagram layer tests: delivery under loss, ordering, duplicate
// suppression, windowing, give-up propagation, adaptive RTO and the
// bounded-memory receiver paths.
#include <gtest/gtest.h>

#include <set>

#include "hoststack/host.hpp"
#include "rd/reliable.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

struct RdNet {
  sim::Topology topo;
  host::Host a{topo, "a"};
  host::Host b{topo, "b"};
  host::UdpSocket* sa = *a.udp().open(100);
  host::UdpSocket* sb = *b.udp().open(100);
  rd::RdConfig cfg;
  std::unique_ptr<rd::ReliableDatagram> rda, rdb;

  void init() {
    rda = std::make_unique<rd::ReliableDatagram>(a.ctx(), *sa, cfg);
    rdb = std::make_unique<rd::ReliableDatagram>(b.ctx(), *sb, cfg);
  }
};

TEST(Rd, BasicDelivery) {
  RdNet n;
  n.init();
  Bytes got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got = std::move(d); });
  const Bytes msg = make_pattern(500, 1);
  ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  n.topo.sim().run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(n.rda->stats().retransmits, 0u);
  EXPECT_EQ(n.rda->unacked(), 0u);
}

TEST(Rd, ReliableUnderHeavyLoss) {
  RdNet n;
  n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.3));
  n.topo.host_uplink(1).set_faults(sim::Faults::bernoulli(0.3));  // acks too
  n.cfg.max_retries = 30;
  n.init();
  std::vector<Bytes> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(std::move(d)); });
  const int kN = 50;
  for (int i = 0; i < kN; ++i) {
    Bytes msg = make_pattern(200, static_cast<u32>(i));
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  // Ordered delivery despite retransmission chaos.
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              make_pattern(200, static_cast<u32>(i)));
  EXPECT_GT(n.rda->stats().retransmits, 0u);
  EXPECT_EQ(n.rdb->stats().give_ups, 0u);
}

TEST(Rd, DuplicatesSuppressed) {
  RdNet n;
  // Drop all ACKs from b so a retransmits into a healthy data path.
  n.topo.host_uplink(1).set_faults(sim::Faults::bernoulli(1.0));
  n.cfg.max_retries = 3;
  n.init();
  int deliveries = 0;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes, bool) { ++deliveries; });
  Bytes msg(100, 1);
  (void)n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg});
  n.topo.sim().run();
  EXPECT_EQ(deliveries, 1);  // retransmits arrive but deliver once
  EXPECT_GT(n.rdb->stats().duplicates, 0u);
  EXPECT_EQ(n.rda->stats().give_ups, 1u);  // never saw an ACK
}

TEST(Rd, GiveUpNotifiesFailureHandler) {
  RdNet n;
  n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0));  // black hole
  n.cfg.max_retries = 2;
  n.init();
  int failures = 0;
  n.rda->on_failure([&](rd::Endpoint, u64) { ++failures; });
  Bytes msg(100, 1);
  (void)n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg});
  n.topo.sim().run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(n.rda->stats().give_ups, 1u);
  EXPECT_EQ(n.rda->unacked(), 0u);
}

TEST(Rd, WildSequencesRejectedWithoutWedgingTheWindow) {
  // With the RD CRC off, nothing vetoes a forged (or corrupted) header, so
  // the sequencing layer itself must refuse sequence numbers implausibly
  // far beyond the receive frontier. Before the horizon guard, one wild
  // data seq or GAP-SKIP base would wedge cum_seen billions ahead — every
  // legitimate datagram thereafter classified as an old duplicate — and
  // the skip path would walk the entire bogus gap one sequence at a time.
  RdNet n;
  n.cfg.crc = false;
  n.init();
  std::vector<Bytes> got;
  n.rdb->on_datagram(
      [&](rd::Endpoint, Bytes d, bool) { got.push_back(std::move(d)); });

  auto forge = [](u8 type, u64 seq, std::size_t payload_len) {
    Bytes out;
    WireWriter w(out);
    w.u8be(type);
    w.u64be(seq);
    w.u32be(0);  // cum
    w.u32be(0);  // crc (unchecked: cfg.crc = false)
    const Bytes body(payload_len, 0xAB);
    w.bytes(ConstByteSpan{body});
    return out;
  };
  // Inject from a's RD port so b attributes the forgeries to the same peer
  // the legitimate traffic will come from.
  ASSERT_TRUE(n.sa->send_to({n.b.addr(), 100},
                            ConstByteSpan{forge(1, u64{1} << 40, 32)})
                  .ok());
  ASSERT_TRUE(
      n.sa->send_to({n.b.addr(), 100}, ConstByteSpan{forge(3, u64{1} << 41, 0)})
          .ok());
  n.topo.sim().run();
  EXPECT_EQ(n.rdb->stats().wild_rejects, 2u);
  EXPECT_TRUE(got.empty());

  // The frontier is untouched: genuine traffic still flows.
  const Bytes msg = make_pattern(300, 7);
  ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  n.topo.sim().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], msg);
  EXPECT_EQ(n.rda->stats().give_ups, 0u);
}

TEST(Rd, WindowQueuesExcessAndDrains) {
  RdNet n;
  n.cfg.window = 4;
  n.init();
  int deliveries = 0;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes, bool) { ++deliveries; });
  Bytes msg(50, 1);
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  EXPECT_LE(n.rda->unacked(), 4u);  // window cap honoured
  n.topo.sim().run();
  EXPECT_EQ(deliveries, 20);
}

TEST(Rd, UnorderedModeDeliversImmediately) {
  RdNet n;
  n.cfg.ordered = false;
  // Drop the first data frame: seq 1 is retransmitted later, but seq 2+
  // must not wait for it in unordered mode.
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1});
    return f;
  }());
  n.init();
  std::vector<u8> first_bytes;
  n.rdb->on_datagram(
      [&](rd::Endpoint, Bytes d, bool) { first_bytes.push_back(d[0]); });
  for (u8 i = 1; i <= 3; ++i) {
    Bytes msg(10, i);
    (void)n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg});
  }
  n.topo.sim().run();
  ASSERT_EQ(first_bytes.size(), 3u);
  EXPECT_EQ(first_bytes[0], 2);  // 2 and 3 did not wait for 1
  EXPECT_EQ(first_bytes[1], 3);
  EXPECT_EQ(first_bytes[2], 1);  // the retransmitted one lands last
}

TEST(Rd, OversizePayloadRejected) {
  RdNet n;
  n.init();
  Bytes big(host::kMaxUdpPayload, 0);  // leaves no room for the RD header
  EXPECT_EQ(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{big}).code(),
            Errc::kInvalidArgument);
}

// Regression: the unordered dedupe set used to grow one entry per datagram
// forever. Now it is a cumulative watermark + fixed bitmap: nothing stays
// buffered and duplicates are still suppressed.
TEST(Rd, UnorderedDedupeIsBoundedUnderDuplication) {
  RdNet n;
  n.cfg.ordered = false;
  n.topo.host_uplink(0).set_faults(sim::Faults::duplicating(1.0));
  n.init();
  std::multiset<u32> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) {
    got.insert(static_cast<u32>(d[0]) | (static_cast<u32>(d[1]) << 8));
  });
  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    Bytes msg(16, 0);
    msg[0] = static_cast<u8>(i & 0xFF);
    msg[1] = static_cast<u8>(i >> 8);
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(got.count(static_cast<u32>(i)), 1u) << "index " << i;
  EXPECT_GT(n.rdb->stats().duplicates, 0u);  // every datagram arrived twice
  EXPECT_EQ(n.rdb->rx_buffered(), 0u);       // nothing parked in ooo state
  EXPECT_EQ(n.b.ledger().category("rd.rx_ooo"), 0);
}

// Regression: after a sender give-up, ordered delivery used to stall
// forever (the receiver kept waiting on next_expected and buffered every
// later datagram). The GAP-SKIP advertisement resumes it.
TEST(Rd, GiveUpGapSkipResumesOrderedDelivery) {
  RdNet n;
  // a->b frame ordinals: 1..3 = data seq 1..3; 4..6 = retransmits of seq 1
  // (max_retries=3); ordinal 7 is the GAP-SKIP, which passes.
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1, 4, 5, 6});
    return f;
  }());
  n.cfg.max_retries = 3;
  n.init();
  std::vector<u8> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(d[0]); });
  int failures = 0;
  n.rda->on_failure([&](rd::Endpoint, u64 seq) {
    ++failures;
    EXPECT_EQ(seq, 1u);
  });
  u64 gap_first = 0, gap_count = 0;
  n.rdb->on_gap([&](rd::Endpoint, u64 first, u64 count) {
    gap_first = first;
    gap_count = count;
  });
  for (u8 i = 1; i <= 3; ++i) {
    Bytes msg(10, i);
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  // Seq 1 is abandoned; 2 and 3 must still be delivered, in order.
  EXPECT_EQ(got, (std::vector<u8>{2, 3}));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(gap_first, 1u);
  EXPECT_EQ(gap_count, 1u);
  EXPECT_EQ(n.rda->stats().give_ups, 1u);
  EXPECT_EQ(n.rda->stats().gap_skips_tx, 1u);
  EXPECT_EQ(n.rdb->stats().rx_gaps, 1u);
  EXPECT_EQ(n.rdb->rx_buffered(), 0u);
  EXPECT_EQ(n.b.ledger().category("rd.rx_ooo"), 0);
}

// Same stall, but the GAP-SKIP itself is lost: the receiver-side gap
// timeout is the fallback that unblocks delivery.
TEST(Rd, ReceiverGapTimeoutRecoversWhenGapSkipIsLost) {
  RdNet n;
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(
        std::vector<u64>{1, 4, 5, 6, 7});  // 7 = the GAP-SKIP
    return f;
  }());
  n.cfg.max_retries = 3;
  n.cfg.gap_timeout = 5 * kMillisecond;
  n.init();
  std::vector<u8> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(d[0]); });
  int gaps = 0;
  n.rdb->on_gap([&](rd::Endpoint, u64, u64) { ++gaps; });
  for (u8 i = 1; i <= 3; ++i) {
    Bytes msg(10, i);
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  EXPECT_EQ(got, (std::vector<u8>{2, 3}));
  EXPECT_EQ(gaps, 1);
  EXPECT_EQ(n.rdb->stats().rx_gaps, 1u);
  EXPECT_EQ(n.rdb->rx_buffered(), 0u);
}

// Dup-ACKs of a stalled cumulative point trigger fast retransmit of the
// hole without waiting for the retransmission timer.
TEST(Rd, DupAcksTriggerFastRetransmit) {
  RdNet n;
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1});
    return f;
  }());
  n.init();
  std::vector<u8> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(d[0]); });
  for (u8 i = 1; i <= 6; ++i) {
    Bytes msg(10, i);
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  EXPECT_EQ(got, (std::vector<u8>{1, 2, 3, 4, 5, 6}));
  EXPECT_GE(n.rda->stats().fast_retransmits, 1u);
  EXPECT_EQ(n.rda->stats().give_ups, 0u);
}

// The ordered reorder buffer refuses datagrams beyond rx_ooo_limit (without
// acking them), so receiver memory stays bounded and the refused datagrams
// are recovered by retransmission once the hole closes.
TEST(Rd, OrderedReorderBufferIsBounded) {
  RdNet n;
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1});
    return f;
  }());
  n.cfg.rx_ooo_limit = 8;
  n.cfg.dup_ack_threshold = 1000;  // force timer-based recovery of seq 1
  n.init();
  std::vector<u8> got;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(d[0]); });
  const int kN = 30;
  for (int i = 1; i <= kN; ++i) {
    Bytes msg(10, static_cast<u8>(i));
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 1; i <= kN; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i - 1)], static_cast<u8>(i));
  EXPECT_GT(n.rdb->stats().rx_ooo_drops, 0u);
  EXPECT_EQ(n.rda->stats().give_ups, 0u);
  EXPECT_EQ(n.rdb->rx_buffered(), 0u);
  EXPECT_EQ(n.b.ledger().category("rd.rx_ooo"), 0);
  // The reorder buffer peak respected the cap (10-byte payloads).
  EXPECT_LE(n.topo.sim().telemetry().gauge("rd.rx_ooo_bytes").max(),
            8.0 * 10.0);
}

// Acceptance: at identical seed and load, adaptive RTO produces fewer
// (spurious) retransmits than the fixed-RTO baseline. Deep pipelining makes
// real RTT exceed the fixed 400 us timeout, so the baseline retransmits
// datagrams that were never lost; the estimator learns the real RTT.
TEST(Rd, AdaptiveRtoAvoidsSpuriousRetransmits) {
  struct Outcome {
    u64 retransmits;
    u64 give_ups;
    int deliveries;
  };
  auto run = [](bool adaptive) {
    RdNet n;
    n.cfg.adaptive_rto = adaptive;
    n.cfg.max_retries = 30;
    n.init();
    int deliveries = 0;
    n.rdb->on_datagram([&](rd::Endpoint, Bytes, bool) { ++deliveries; });
    const Bytes msg = make_pattern(32 * 1024, 7);
    const int kN = 100;
    for (int i = 0; i < kN; ++i)
      EXPECT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
    n.topo.sim().run();
    // The stats view and the telemetry registry agree.
    EXPECT_EQ(n.rda->stats().retransmits,
              n.topo.sim().telemetry().counter_value("rd.retries"));
    return Outcome{static_cast<u64>(n.rda->stats().retransmits),
                   static_cast<u64>(n.rda->stats().give_ups), deliveries};
  };
  // Fixed 400 us RTO, deep pipelining, zero loss: queueing pushes the real
  // RTT past the timeout, every retransmission is spurious and the extra
  // load snowballs (the legacy failure mode this PR fixes).
  const Outcome fixed = run(false);
  EXPECT_GT(fixed.retransmits, 0u);
  // Adaptive RTO at the identical seed/load: the estimator tracks the real
  // RTT, so the transfer completes with no give-ups and far fewer (ideally
  // zero) retransmissions of datagrams that were never lost.
  const Outcome adaptive = run(true);
  EXPECT_EQ(adaptive.deliveries, 100);
  EXPECT_EQ(adaptive.give_ups, 0u);
  EXPECT_LT(adaptive.retransmits, fixed.retransmits);
}

// Determinism: identical seed and fault pattern reproduce identical
// retransmit/duplicate counts and delivery order.
TEST(Rd, SameSeedSameRetransmitCounts) {
  auto run = [] {
    RdNet n;
    n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.05));
    n.topo.host_uplink(1).set_faults(sim::Faults::bernoulli(0.05));
    n.cfg.max_retries = 30;
    n.init();
    std::vector<u8> got;
    n.rdb->on_datagram([&](rd::Endpoint, Bytes d, bool) { got.push_back(d[0]); });
    for (int i = 1; i <= 80; ++i) {
      Bytes msg(40, static_cast<u8>(i));
      EXPECT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
    }
    n.topo.sim().run();
    return std::tuple{static_cast<u64>(n.rda->stats().retransmits),
                      static_cast<u64>(n.rda->stats().fast_retransmits),
                      static_cast<u64>(n.rdb->stats().duplicates), got};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(std::get<0>(first), 0u);
  EXPECT_EQ(first, second);
}

// The cumulative-ack piggyback lets one ACK retire earlier datagrams whose
// dedicated ACKs were lost, instead of forcing retransmission of each.
TEST(Rd, CumulativeAckRetiresEarlierDatagrams) {
  RdNet n;
  // Drop the ACKs for seq 1 and 2 (b->a ordinals 1 and 2); the ACK for
  // seq 3 then carries cum=3 and retires all three.
  n.topo.host_uplink(1).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1, 2});
    return f;
  }());
  n.init();
  int deliveries = 0;
  n.rdb->on_datagram([&](rd::Endpoint, Bytes, bool) { ++deliveries; });
  for (u8 i = 1; i <= 3; ++i) {
    Bytes msg(10, i);
    ASSERT_TRUE(n.rda->send_to({n.b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  n.topo.sim().run();
  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(n.rda->unacked(), 0u);
  EXPECT_EQ(n.rda->stats().retransmits, 0u);  // cum ack, not retransmission
}

TEST(Rd, PerPeerSequencing) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b"), c(topo, "c");
  auto* sa = *a.udp().open(100);
  auto* sb = *b.udp().open(100);
  auto* sc = *c.udp().open(100);
  rd::ReliableDatagram rda(a.ctx(), *sa);
  rd::ReliableDatagram rdb(b.ctx(), *sb);
  rd::ReliableDatagram rdc(c.ctx(), *sc);
  int b_got = 0, c_got = 0;
  rdb.on_datagram([&](rd::Endpoint, Bytes, bool) { ++b_got; });
  rdc.on_datagram([&](rd::Endpoint, Bytes, bool) { ++c_got; });
  Bytes m(20, 1);
  for (int i = 0; i < 5; ++i) {
    (void)rda.send_to({b.addr(), 100}, ConstByteSpan{m});
    (void)rda.send_to({c.addr(), 100}, ConstByteSpan{m});
  }
  topo.sim().run();
  EXPECT_EQ(b_got, 5);
  EXPECT_EQ(c_got, 5);
}

}  // namespace
}  // namespace dgiwarp
