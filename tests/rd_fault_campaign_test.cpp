// Deterministic fault campaign for the reliable-datagram layer and the
// iWARP modes that ride on it (ISSUE: "harden the reliable-datagram path
// under adversarial faults").
//
// Layer 1 sweeps the RD endpoint pair directly across every fault model the
// simnet supports — Bernoulli loss, Gilbert-Elliott bursts, reordering with
// jitter, duplication, link flaps and a combined mix — in both ordered and
// unordered modes, asserting the campaign invariants:
//   * eventual completion: every datagram delivered, zero give-ups;
//   * exactly-once: no duplicate deliveries;
//   * per-peer ordering (ordered mode);
//   * bounded receiver memory: reorder-buffer peak respects rx_ooo_limit
//     and the MemLedger "rd.rx_ooo" category drains to zero.
//
// Layer 2 runs the same 5% Bernoulli loss through the full verbs stack
// (perf::measure_bandwidth) for RD send/recv, RD write-record and the RC
// baseline, asserting full delivery and zero RD give-ups end to end.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "hoststack/host.hpp"
#include "perf/harness.hpp"
#include "rd/reliable.hpp"
#include "simnet/topology.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp {
namespace {

using FaultFactory = std::function<sim::Faults()>;

struct FaultCase {
  std::string name;
  FaultFactory data;  // sender egress (data direction)
  FaultFactory ack;   // receiver egress (acks); null = clean
};

std::vector<FaultCase> campaign_cases() {
  std::vector<FaultCase> cases;
  cases.push_back({"bernoulli_1pct",
                   [] { return sim::Faults::bernoulli(0.01); }, nullptr});
  cases.push_back({"bernoulli_5pct",
                   [] { return sim::Faults::bernoulli(0.05); }, nullptr});
  cases.push_back({"bernoulli_5pct_both_ways",
                   [] { return sim::Faults::bernoulli(0.05); },
                   [] { return sim::Faults::bernoulli(0.05); }});
  cases.push_back({"gilbert_elliott_bursts", [] {
                     sim::Faults f;
                     // Mean burst ~5 frames, everything dropped in-burst.
                     f.loss = std::make_unique<sim::GilbertElliottLoss>(
                         0.01, 0.2, 0.0, 1.0);
                     return f;
                   },
                   nullptr});
  cases.push_back({"reorder_20pct_with_jitter", [] {
                     sim::Faults f;
                     f.reorder_rate = 0.2;
                     f.reorder_delay = 150 * kMicrosecond;
                     f.jitter = 20 * kMicrosecond;
                     return f;
                   },
                   nullptr});
  cases.push_back({"duplication_30pct",
                   [] { return sim::Faults::duplicating(0.3); }, nullptr});
  cases.push_back({"link_flap_200us_every_2ms", [] {
                     return sim::Faults::flapping(2 * kMillisecond,
                                                  200 * kMicrosecond);
                   },
                   nullptr});
  cases.push_back({"combined_adversarial", [] {
                     sim::Faults f;
                     f.loss = std::make_unique<sim::BernoulliLoss>(0.02);
                     f.reorder_rate = 0.1;
                     f.reorder_delay = 100 * kMicrosecond;
                     f.jitter = 10 * kMicrosecond;
                     f.dup_rate = 0.1;
                     return f;
                   },
                   [] { return sim::Faults::bernoulli(0.02); }});
  return cases;
}

constexpr int kMessages = 200;
constexpr std::size_t kPayload = 32;  // bytes; index tag in the first two

void run_rd_campaign_case(const FaultCase& fc, bool ordered) {
  SCOPED_TRACE(fc.name + (ordered ? " / ordered" : " / unordered"));
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  host::UdpSocket* sa = *a.udp().open(100);
  host::UdpSocket* sb = *b.udp().open(100);
  topo.host_uplink(0).set_faults(fc.data());
  if (fc.ack) topo.host_uplink(1).set_faults(fc.ack());

  rd::RdConfig cfg;
  cfg.ordered = ordered;
  cfg.max_retries = 30;
  rd::ReliableDatagram rda(a.ctx(), *sa, cfg);
  rd::ReliableDatagram rdb(b.ctx(), *sb, cfg);

  std::vector<u32> got;
  rdb.on_datagram([&](rd::Endpoint, Bytes d, bool) {
    ASSERT_EQ(d.size(), kPayload);
    got.push_back(static_cast<u32>(d[0]) | (static_cast<u32>(d[1]) << 8));
  });
  for (int i = 0; i < kMessages; ++i) {
    Bytes msg(kPayload, 0);
    msg[0] = static_cast<u8>(i & 0xFF);
    msg[1] = static_cast<u8>(i >> 8);
    ASSERT_TRUE(rda.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
  }
  topo.sim().run();

  // Eventual completion, exactly once.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  if (ordered) {
    for (int i = 0; i < kMessages; ++i)
      ASSERT_EQ(got[static_cast<std::size_t>(i)], static_cast<u32>(i));
  } else {
    std::set<u32> unique(got.begin(), got.end());
    ASSERT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
    ASSERT_EQ(*unique.begin(), 0u);
    ASSERT_EQ(*unique.rbegin(), static_cast<u32>(kMessages - 1));
  }
  EXPECT_EQ(rda.stats().give_ups, 0u);
  EXPECT_EQ(rdb.stats().rx_gaps, 0u);
  EXPECT_EQ(rda.unacked(), 0u);

  // Bounded receiver memory, fully drained at the end.
  EXPECT_EQ(rdb.rx_buffered(), 0u);
  EXPECT_EQ(b.ledger().category("rd.rx_ooo"), 0);
  EXPECT_LE(topo.sim().telemetry().gauge("rd.rx_ooo_bytes").max(),
            static_cast<double>(cfg.rx_ooo_limit * kPayload));
}

TEST(RdFaultCampaign, OrderedSurvivesEveryFaultModel) {
  for (const auto& fc : campaign_cases()) run_rd_campaign_case(fc, true);
}

TEST(RdFaultCampaign, UnorderedSurvivesEveryFaultModel) {
  for (const auto& fc : campaign_cases()) run_rd_campaign_case(fc, false);
}

// The campaign is bit-deterministic: re-running a case yields the identical
// retransmit/duplicate telemetry (seeded virtual-time simulation).
TEST(RdFaultCampaign, CasesAreDeterministic) {
  auto run = [] {
    sim::Topology topo;
    host::Host a(topo, "a"), b(topo, "b");
    host::UdpSocket* sa = *a.udp().open(100);
    host::UdpSocket* sb = *b.udp().open(100);
    topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.05));
    rd::RdConfig cfg;
    cfg.max_retries = 30;
    rd::ReliableDatagram rda(a.ctx(), *sa, cfg);
    rd::ReliableDatagram rdb(b.ctx(), *sb, cfg);
    rdb.on_datagram([](rd::Endpoint, Bytes, bool) {});
    Bytes msg(64, 9);
    for (int i = 0; i < 100; ++i)
      EXPECT_TRUE(rda.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
    topo.sim().run();
    return topo.sim().telemetry().to_json();
  };
  EXPECT_EQ(run(), run());
}

// Layer 2: the full stack (UD QPs + segmentation + CRC + RD) under the
// paper's 5% loss point, across the modes that matter for the RD story.
TEST(RdFaultCampaign, StackSurvivesFivePercentLoss) {
  for (const perf::Mode mode :
       {perf::Mode::kRdSendRecv, perf::Mode::kRdWriteRecord,
        perf::Mode::kRcSendRecv}) {
    SCOPED_TRACE(perf::mode_name(mode));
    telemetry::Registry metrics;
    perf::Options opts;
    opts.loss_rate = 0.05;
    opts.rd.max_retries = 30;
    opts.metrics = &metrics;
    const auto bw = perf::measure_bandwidth(mode, 4096, 60, opts);
    EXPECT_EQ(bw.messages_completed, 60u);
    EXPECT_DOUBLE_EQ(bw.delivered_frac, 1.0);
    EXPECT_GT(bw.goodput_MBps, 0.0);
    EXPECT_EQ(metrics.counter_value("rd.give_ups"), 0u);
  }
}

// The richer Options fault hooks reach the stack-level rig too: a combined
// reorder+duplication+loss storm on the data direction plus lossy acks.
TEST(RdFaultCampaign, StackSurvivesCombinedFaultsViaOptionsHooks) {
  telemetry::Registry metrics;
  perf::Options opts;
  opts.rd.max_retries = 30;
  opts.metrics = &metrics;
  opts.data_faults = [] {
    sim::Faults f;
    f.loss = std::make_unique<sim::BernoulliLoss>(0.02);
    f.reorder_rate = 0.1;
    f.reorder_delay = 100 * kMicrosecond;
    f.dup_rate = 0.1;
    return f;
  };
  opts.ack_faults = [] { return sim::Faults::bernoulli(0.02); };
  const auto bw =
      perf::measure_bandwidth(perf::Mode::kRdSendRecv, 4096, 60, opts);
  EXPECT_EQ(bw.messages_completed, 60u);
  EXPECT_DOUBLE_EQ(bw.delivered_frac, 1.0);
  EXPECT_EQ(metrics.counter_value("rd.give_ups"), 0u);
  EXPECT_GT(metrics.counter_value("rd.retries"), 0u);
}

}  // namespace
}  // namespace dgiwarp
