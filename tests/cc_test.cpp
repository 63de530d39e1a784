// Congestion-control subsystem tests: RateController unit behaviour (DCQCN
// MD/recovery, Timely gradient), ECN marking and tail drop at sim links,
// the RD CNP-echo path end to end, verbs UD mark counting, and the
// determinism / no-new-registry-keys guarantees the default configuration
// depends on.
#include <gtest/gtest.h>

#include "cc/cc.hpp"
#include "hoststack/host.hpp"
#include "rd/reliable.hpp"
#include "simnet/topology.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp {
namespace {

TEST(CcMode, Names) {
  EXPECT_STREQ(cc::cc_mode_name(cc::CcMode::kOff), "off");
  EXPECT_STREQ(cc::cc_mode_name(cc::CcMode::kDcqcn), "dcqcn");
  EXPECT_STREQ(cc::cc_mode_name(cc::CcMode::kTimely), "timely");
}

TEST(RateController, ReserveSendSpacesPacketsAtTheFlowRate) {
  sim::Simulation sim;
  cc::CcParams p;
  cc::RateController rc(sim, cc::CcMode::kDcqcn, p);

  const TimeNs first = rc.reserve_send(1, 1024);
  EXPECT_EQ(first, 0);  // line-rate flow starts immediately
  const TimeNs second = rc.reserve_send(1, 1024);
  // (1024 + overhead) bytes at 10G is ~872 ns: the second packet must wait
  // its serialization slot, not burst at t=0.
  EXPECT_GT(second, first);
  EXPECT_LT(second, 2 * kMicrosecond);
  // Independent flows do not share the token clock.
  EXPECT_EQ(rc.reserve_send(2, 1024), 0);
}

TEST(RateController, DcqcnCnpCutsRateAndTimersRecoverToLine) {
  sim::Simulation sim;
  cc::CcParams p;
  cc::RateController rc(sim, cc::CcMode::kDcqcn, p);
  (void)rc.reserve_send(7, 1024);  // materialize the flow

  rc.on_cnp(7);
  EXPECT_EQ(rc.cnps(), 1u);
  EXPECT_GE(rc.rate_decreases(), 1u);
  const double cut = rc.rate_bps(7);
  EXPECT_LT(cut, p.line_rate_bps);

  // The alpha-decay and rate-recovery timers must be self-terminating:
  // run() returning at all proves they disarm, and full recovery must end
  // snapped to exactly line rate.
  sim.run();
  EXPECT_EQ(rc.rate_bps(7), p.line_rate_bps);
}

TEST(RateController, DcqcnRepeatedCnpsRespectTheMinRateFloor) {
  sim::Simulation sim;
  cc::CcParams p;
  cc::RateController rc(sim, cc::CcMode::kDcqcn, p);
  for (int i = 0; i < 500; ++i) rc.on_cnp(3);
  EXPECT_GE(rc.rate_bps(3), p.min_rate_bps);
  sim.run();
  EXPECT_EQ(rc.rate_bps(3), p.line_rate_bps);
}

TEST(RateController, TimelyGradientReactsToRttTrend) {
  sim::Simulation sim;
  cc::CcParams p;
  cc::RateController rc(sim, cc::CcMode::kTimely, p);

  // Calm RTTs below t_low keep the flow at line rate (additive increase is
  // clamped there).
  rc.on_rtt_sample(1, 12 * kMicrosecond);
  rc.on_rtt_sample(1, 12 * kMicrosecond);
  EXPECT_EQ(rc.rate_bps(1), p.line_rate_bps);

  // An RTT past t_high forces multiplicative decrease regardless of the
  // gradient sign.
  rc.on_rtt_sample(1, 300 * kMicrosecond);
  const double cut = rc.rate_bps(1);
  EXPECT_LT(cut, p.line_rate_bps);
  EXPECT_GE(rc.rate_decreases(), 1u);

  // Draining queues (negative gradient, RTT back under t_low) climb back
  // additively.
  rc.on_rtt_sample(1, 12 * kMicrosecond);
  EXPECT_GT(rc.rate_bps(1), cut);

  // Timely runs on samples only — no timers to drain.
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(RateController, ModesIgnoreTheOtherModesSignal) {
  sim::Simulation sim;
  cc::CcParams p;
  cc::RateController timely(sim, cc::CcMode::kTimely, p);
  timely.on_cnp(1);
  EXPECT_EQ(timely.cnps(), 0u);
  EXPECT_EQ(timely.rate_bps(1), p.line_rate_bps);

  cc::RateController dcqcn(sim, cc::CcMode::kDcqcn, p);
  dcqcn.on_rtt_sample(1, kSecond);  // would be a massive Timely cut
  EXPECT_EQ(dcqcn.rate_bps(1), p.line_rate_bps);
}

// Two hosts on one slow-linked leaf: back-to-back sends outrun the wire,
// so the sender's uplink queue actually builds (at 10G the host CPU model
// paces submissions below line rate and the queue never forms).
struct SlowNet {
  explicit SlowNet(double bps) {
    sim::Topology::Params p;
    p.host_link.bandwidth_bps = bps;
    topo = std::make_unique<sim::Topology>(p);
    a = std::make_unique<host::Host>(*topo, "a");
    b = std::make_unique<host::Host>(*topo, "b");
    sa = *a->udp().open(100);
    sb = *b->udp().open(100);
  }
  std::unique_ptr<sim::Topology> topo;
  std::unique_ptr<host::Host> a, b;
  host::UdpSocket* sa;
  host::UdpSocket* sb;
};

TEST(LinkCc, EcnMarksFramesAboveTheThreshold) {
  SlowNet n(100e6);
  n.topo->host_uplink(0).set_ecn_threshold(4);
  const Bytes msg = make_pattern(1024, 1);
  for (int i = 0; i < 30; ++i)
    (void)n.sa->send_to({n.b->addr(), 100}, ConstByteSpan{msg});
  n.topo->sim().run();

  EXPECT_EQ(n.sb->datagrams_received(), 30u);  // marking never drops
  EXPECT_GT(n.topo->host_uplink(0).stats().frames_marked.value(), 0u);
  EXPECT_EQ(n.topo->host_uplink(0).stats().queue_drops.value(), 0u);
  // The counters surfaced in the registry because the feature is on.
  const std::string json = n.topo->sim().telemetry().to_json();
  EXPECT_NE(json.find("\"cc.marks\""), std::string::npos);
}

TEST(LinkCc, BoundedQueueTailDropsWithoutConsumingWireTime) {
  SlowNet n(100e6);
  n.topo->host_uplink(0).set_queue_capacity(8);
  const Bytes msg = make_pattern(1024, 2);
  for (int i = 0; i < 40; ++i)
    (void)n.sa->send_to({n.b->addr(), 100}, ConstByteSpan{msg});
  n.topo->sim().run();

  const auto link = n.topo->host_uplink(0);
  EXPECT_GT(link.stats().queue_drops.value(), 0u);
  EXPECT_LT(n.sb->datagrams_received(), 40u);
  // Tail drop refuses at the bound; the backlog never exceeds it.
  EXPECT_LE(link.max_queue_depth(), 8u);
  EXPECT_EQ(link.stats().queue_drops.value(),
            link.stats().frames_dropped.value());
}

rd::RdConfig cc_rd_config(cc::CcMode mode) {
  rd::RdConfig cfg;
  cfg.cc_mode = mode;
  cfg.max_retries = 40;
  return cfg;
}

TEST(RdCc, DcqcnCnpEchoEndToEnd) {
  SlowNet n(100e6);
  n.topo->host_uplink(0).set_ecn_threshold(2);
  const rd::RdConfig cfg = cc_rd_config(cc::CcMode::kDcqcn);
  rd::ReliableDatagram tx(n.a->ctx(), *n.sa, cfg);
  rd::ReliableDatagram rx(n.b->ctx(), *n.sb, cfg);

  std::size_t delivered = 0;
  rx.on_datagram([&](rd::Endpoint, Bytes, bool) { ++delivered; });
  const Bytes msg = make_pattern(1024, 3);
  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(tx.send_to({n.b->addr(), 100}, ConstByteSpan{msg}).ok());
  n.topo->sim().run();

  EXPECT_EQ(delivered, 40u);  // congestion control never costs reliability
  // Signal path end to end: CE mark at the link -> rx counts it -> CNP
  // echo flag on an ACK -> tx's controller reacts.
  EXPECT_GT(rx.stats().ecn_rx.value(), 0u);
  EXPECT_GT(rx.stats().cnps_tx.value(), 0u);
  ASSERT_NE(tx.congestion(), nullptr);
  EXPECT_GT(tx.congestion()->cnps(), 0u);
  EXPECT_GT(tx.congestion()->rate_decreases(), 0u);
  EXPECT_EQ(tx.stats().acks_rx.value(), rx.stats().acks_tx.value());

  const std::string json = n.topo->sim().telemetry().to_json();
  EXPECT_NE(json.find("\"rd.ecn_rx\""), std::string::npos);
  EXPECT_NE(json.find("\"rd.cnps_tx\""), std::string::npos);
  EXPECT_NE(json.find("\"cc.cnps\""), std::string::npos);
}

TEST(RdCc, TimelyCutsRateFromRttInflationAlone) {
  // No ECN threshold anywhere: Timely must sense the standing queue purely
  // from ACK RTT samples.
  SlowNet n(50e6);
  const rd::RdConfig cfg = cc_rd_config(cc::CcMode::kTimely);
  rd::ReliableDatagram tx(n.a->ctx(), *n.sa, cfg);
  rd::ReliableDatagram rx(n.b->ctx(), *n.sb, cfg);

  std::size_t delivered = 0;
  rx.on_datagram([&](rd::Endpoint, Bytes, bool) { ++delivered; });
  const Bytes msg = make_pattern(1024, 4);
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(tx.send_to({n.b->addr(), 100}, ConstByteSpan{msg}).ok());
  n.topo->sim().run();

  EXPECT_EQ(delivered, 50u);
  ASSERT_NE(tx.congestion(), nullptr);
  EXPECT_GT(tx.congestion()->rate_decreases(), 0u);
  EXPECT_EQ(rx.stats().cnps_tx.value(), 0u);  // CNP echo is DCQCN-only
}

TEST(RdCc, CcOffAddsNoRegistryKeysAndNoController) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  rd::ReliableDatagram tx(a.ctx(), **a.udp().open(100), {});
  rd::ReliableDatagram rx(b.ctx(), **b.udp().open(100), {});
  std::size_t delivered = 0;
  rx.on_datagram([&](rd::Endpoint, Bytes, bool) { ++delivered; });
  const Bytes msg = make_pattern(512, 5);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(tx.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
  topo.sim().run();

  EXPECT_EQ(delivered, 10u);
  EXPECT_EQ(tx.congestion(), nullptr);
  // The determinism contract for every seeded fig5-fig11 reproduction:
  // the default configuration must not grow any cc-related registry keys.
  const std::string json = topo.sim().telemetry().to_json();
  EXPECT_EQ(json.find("\"cc."), std::string::npos);
  EXPECT_EQ(json.find("\"rd.ecn_rx\""), std::string::npos);
  EXPECT_EQ(json.find("\"rd.cnps_tx\""), std::string::npos);
  EXPECT_EQ(json.find("\"simnet.link.queue_drops\""), std::string::npos);
}

TEST(RdCc, DcqcnRunsAreDeterministic) {
  auto run = [] {
    SlowNet n(100e6);
    n.topo->host_uplink(0).set_ecn_threshold(2);
    n.topo->host_uplink(0).set_queue_capacity(16);
    const rd::RdConfig cfg = cc_rd_config(cc::CcMode::kDcqcn);
    rd::ReliableDatagram tx(n.a->ctx(), *n.sa, cfg);
    rd::ReliableDatagram rx(n.b->ctx(), *n.sb, cfg);
    rx.on_datagram([](rd::Endpoint, Bytes, bool) {});
    const Bytes msg = make_pattern(1024, 6);
    for (int i = 0; i < 30; ++i)
      (void)tx.send_to({n.b->addr(), 100}, ConstByteSpan{msg});
    n.topo->sim().run();
    return n.topo->sim().telemetry().to_json();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(VerbsCc, UdCountsEcnMarkedArrivals) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  verbs::DeviceConfig cfg;
  cfg.rd.cc_mode = cc::CcMode::kDcqcn;  // plumbing: DeviceConfig -> RD
  verbs::Device dev_a(a, cfg), dev_b(b, cfg);
  auto& pd_a = dev_a.create_pd();
  auto& pd_b = dev_b.create_pd();
  auto& cq_a = dev_a.create_cq();
  auto& cq_b = dev_b.create_cq();
  auto qa = *dev_a.create_ud_qp({&pd_a, &cq_a, &cq_a, 0, false});
  auto qb = *dev_b.create_ud_qp({&pd_b, &cq_b, &cq_b, 0, false});

  // Mark aggressively: a 128 KB message is several back-to-back datagrams,
  // so later frames see a non-empty uplink queue.
  topo.host_uplink(0).set_ecn_threshold(1);

  Bytes msg = make_pattern(128 * KiB, 7);
  Bytes sink(128 * KiB, 0);
  ASSERT_TRUE(qb->post_recv(verbs::RecvWr{1, ByteSpan{sink}}).ok());
  verbs::SendWr wr;
  wr.wr_id = 2;
  wr.local = ConstByteSpan{msg};
  wr.remote = {qb->local_ep(), qb->qpn()};
  ASSERT_TRUE(qa->post_send(wr).ok());
  topo.sim().run();

  auto wc = cq_b.poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_TRUE(wc->status.ok());
  EXPECT_GT(qb->stats().ecn_rx.value(), 0u);
  EXPECT_NE(topo.sim().telemetry().to_json().find("\"verbs.ud.ecn_rx\""),
            std::string::npos);
}

}  // namespace
}  // namespace dgiwarp
