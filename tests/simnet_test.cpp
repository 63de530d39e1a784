// Unit tests for the discrete-event core: simulation ordering, the
// two-lane CPU model, links, loss models and the learning switch.
#include <gtest/gtest.h>

#include <algorithm>

#include "hoststack/host.hpp"
#include "simnet/cpu.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

using sim::CpuModel;
using sim::Simulation;

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulation, EqualTimesAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(50, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  sim.at(100, [] {});
  sim.run();
  bool ran = false;
  sim.at(10, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100);  // clock never goes backwards
}

TEST(Simulation, RunUntilAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(500, [&] { ++fired; });
  sim.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulation, RunWhilePendingRespectsDeadline) {
  Simulation sim;
  bool flag = false;
  sim.at(1000, [&] { flag = true; });
  EXPECT_FALSE(sim.run_while_pending([&] { return flag; }, 500));
  EXPECT_EQ(sim.now(), 500);
  EXPECT_TRUE(sim.run_while_pending([&] { return flag; }, 2000));
}

TEST(Cpu, UserChargesQueueFifo) {
  Simulation sim;
  CpuModel cpu(sim);
  EXPECT_EQ(cpu.charge(100), 100);
  EXPECT_EQ(cpu.charge(50), 150);  // queued behind the first
  sim.run_until(1000);
  EXPECT_EQ(cpu.charge(10), 1010);  // idle gap not accumulated
  EXPECT_EQ(cpu.busy_total(), 160);
}

TEST(Cpu, KernelLanePreemptsUserWork) {
  Simulation sim;
  CpuModel cpu(sim);
  cpu.charge(1000);                        // user backlog to 1000
  EXPECT_EQ(cpu.charge_kernel(100), 100);  // kernel does NOT wait for it
  EXPECT_EQ(cpu.free_at(), 1100);          // user work displaced by 100
  EXPECT_EQ(cpu.charge_kernel(50), 150);   // kernel lane serializes itself
}

TEST(Cpu, KernelChargeWithIdleUserLane) {
  Simulation sim;
  CpuModel cpu(sim);
  EXPECT_EQ(cpu.charge_kernel(100), 100);
  // No queued user work: nothing to displace.
  EXPECT_EQ(cpu.free_at(), 0);
}

TEST(Cpu, ChargeThenSchedulesAtCompletion) {
  Simulation sim;
  CpuModel cpu(sim);
  TimeNs fired_at = -1;
  cpu.charge(200);
  cpu.charge_then(100, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 300);
}

TEST(Link, SerializationAndPropagationDelay) {
  sim::Simulation s;
  Rng rng(1);
  sim::LinkParams p;
  p.bandwidth_bps = 1e9;  // 1 Gb/s -> 8 ns per byte
  p.propagation = 1000;
  sim::Link link(s, rng, p, "l");
  TimeNs arrival = -1;
  link.set_receiver([&](sim::Frame) { arrival = s.now(); });
  sim::Frame f;
  f.payload.assign(962, 0);  // 962 + 38 overhead = 1000 wire bytes
  link.transmit(std::move(f));
  s.run();
  EXPECT_EQ(arrival, 8000 + 1000);
}

TEST(Link, BackToBackFramesQueue) {
  sim::Simulation s;
  Rng rng(1);
  sim::LinkParams p;
  p.bandwidth_bps = 1e9;
  p.propagation = 0;
  sim::Link link(s, rng, p, "l");
  std::vector<TimeNs> arrivals;
  link.set_receiver([&](sim::Frame) { arrivals.push_back(s.now()); });
  for (int i = 0; i < 3; ++i) {
    sim::Frame f;
    f.payload.assign(962, 0);
    link.transmit(std::move(f));
  }
  s.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 8000);
  EXPECT_EQ(arrivals[1], 16000);  // output queueing
  EXPECT_EQ(arrivals[2], 24000);
}

TEST(Faults, PeriodicLossDropsEveryNth) {
  sim::PeriodicLoss loss(3);
  Rng rng(1);
  int drops = 0;
  for (int i = 0; i < 9; ++i) drops += loss.should_drop(rng, 0) ? 1 : 0;
  EXPECT_EQ(drops, 3);
}

TEST(Faults, TargetedLossHitsExactOrdinals) {
  sim::TargetedLoss loss({2, 5});
  Rng rng(1);
  std::vector<bool> dropped;
  for (int i = 0; i < 6; ++i) dropped.push_back(loss.should_drop(rng, 0));
  EXPECT_EQ(dropped, (std::vector<bool>{false, true, false, false, true,
                                        false}));
}

TEST(Faults, BernoulliLossMatchesRate) {
  sim::BernoulliLoss loss(0.1);
  Rng rng(5);
  int drops = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) drops += loss.should_drop(rng, 0) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.1, 0.01);
}

TEST(Faults, GilbertElliottBurstsLoss) {
  // Bad state drops everything; expect drops to cluster.
  sim::GilbertElliottLoss loss(0.01, 0.2, 0.0, 1.0);
  Rng rng(11);
  int drops = 0, transitions = 0;
  bool prev = false;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const bool d = loss.should_drop(rng, 0);
    if (d != prev) ++transitions;
    prev = d;
    drops += d ? 1 : 0;
  }
  EXPECT_GT(drops, 1000);
  // Bursty: far fewer state changes than drops.
  EXPECT_LT(transitions, drops);
}

TEST(Faults, TargetedLossSortsUnsortedOrdinals) {
  sim::TargetedLoss loss({5, 2, 5});  // unsorted, with a duplicate
  Rng rng(1);
  std::vector<bool> dropped;
  for (int i = 0; i < 6; ++i) dropped.push_back(loss.should_drop(rng, 0));
  EXPECT_EQ(dropped, (std::vector<bool>{false, true, false, false, true,
                                        false}));
}

TEST(Faults, LinkFlapDropsOnlyInsideDownWindows) {
  sim::LinkFlapLoss flap(1000, 250);  // down for the first 250 ns of each ms
  Rng rng(1);
  EXPECT_TRUE(flap.should_drop(rng, 0));
  EXPECT_TRUE(flap.should_drop(rng, 249));
  EXPECT_FALSE(flap.should_drop(rng, 250));
  EXPECT_FALSE(flap.should_drop(rng, 999));
  EXPECT_TRUE(flap.should_drop(rng, 1000));   // next period
  EXPECT_TRUE(flap.should_drop(rng, 51249));  // arbitrary later period
  EXPECT_FALSE(flap.should_drop(rng, 51250));
}

TEST(Faults, LinkFlapPhaseShiftsTheWindow) {
  sim::LinkFlapLoss flap(1000, 250, 500);
  Rng rng(1);
  EXPECT_FALSE(flap.should_drop(rng, 0));
  EXPECT_TRUE(flap.should_drop(rng, 500));  // 500 + 500 = next window start
  EXPECT_TRUE(flap.should_drop(rng, 749));
  EXPECT_FALSE(flap.should_drop(rng, 750));
}

TEST(Faults, BernoulliCorruptionMatchesByteRate) {
  sim::BernoulliCorruption c(0.01);
  Rng rng(7);
  Bytes payload(100'000, 0);
  Bytes orig = payload;
  ASSERT_TRUE(c.corrupt(rng, 0, payload));
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < payload.size(); ++i)
    damaged += payload[i] != orig[i] ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(damaged) / payload.size(), 0.01, 0.005);
  // Same seed, same damage: the channel is deterministic.
  Rng rng2(7);
  Bytes payload2(100'000, 0);
  sim::BernoulliCorruption c2(0.01);
  ASSERT_TRUE(c2.corrupt(rng2, 0, payload2));
  EXPECT_EQ(payload, payload2);
}

TEST(Faults, GilbertElliottCorruptionBursts) {
  // Good state is clean; Bad state peppers bytes heavily -> damaged frames
  // should cluster instead of spreading uniformly.
  sim::GilbertElliottCorruption c(0.02, 0.3, 0.0, 0.5);
  Rng rng(13);
  int corrupted_frames = 0, transitions = 0;
  bool prev = false;
  for (int i = 0; i < 5'000; ++i) {
    Bytes payload(64, 0);
    const bool hit = c.corrupt(rng, 0, payload);
    if (hit != prev) ++transitions;
    prev = hit;
    corrupted_frames += hit ? 1 : 0;
  }
  EXPECT_GT(corrupted_frames, 100);
  EXPECT_LT(transitions, corrupted_frames);
}

TEST(Faults, TargetedCorruptionHitsExactFrameAndOffset) {
  sim::TargetedCorruption c({{2, 5, 0xFF}, {4, 0, 0x01}});
  Rng rng(1);
  for (u64 frame = 1; frame <= 5; ++frame) {
    Bytes payload(16, 0xAA);
    const bool hit = c.corrupt(rng, 0, payload);
    if (frame == 2) {
      EXPECT_TRUE(hit);
      EXPECT_EQ(payload[5], 0xAA ^ 0xFF);
    } else if (frame == 4) {
      EXPECT_TRUE(hit);
      EXPECT_EQ(payload[0], 0xAA ^ 0x01);
    } else {
      EXPECT_FALSE(hit);
      EXPECT_EQ(payload, Bytes(16, 0xAA));
    }
  }
}

TEST(Faults, TargetedCorruptionZeroMaskTruncates) {
  sim::TargetedCorruption c({{1, 4, 0}});
  Rng rng(1);
  Bytes payload(16, 0xAA);
  ASSERT_TRUE(c.corrupt(rng, 0, payload));
  EXPECT_EQ(payload.size(), 4u);
}

TEST(Faults, TruncationCorruptionCutsSuffix) {
  sim::TruncationCorruption c(1.0);
  Rng rng(3);
  Bytes payload(100, 1);
  ASSERT_TRUE(c.corrupt(rng, 0, payload));
  EXPECT_LT(payload.size(), 100u);
  // Rate 0 never touches the frame.
  sim::TruncationCorruption off(0.0);
  Bytes intact(100, 1);
  EXPECT_FALSE(off.corrupt(rng, 0, intact));
  EXPECT_EQ(intact.size(), 100u);
}

TEST(Link, CorruptionMarksFrameAndCountsAndTraces) {
  sim::Simulation s;
  s.telemetry().trace().enable(16);
  Rng rng(1);
  sim::LinkParams p;
  p.bandwidth_bps = 1e9;
  p.propagation = 0;
  sim::Link link(s, rng, p, "l");
  sim::Faults f;
  f.corruption =
      std::make_unique<sim::TargetedCorruption>(
          std::vector<sim::CorruptTarget>{{2, 3, 0x80}});
  link.set_faults(std::move(f));

  std::vector<sim::Frame> rx;
  link.set_receiver([&](sim::Frame fr) { rx.push_back(std::move(fr)); });
  for (u64 i = 1; i <= 3; ++i) {
    sim::Frame fr;
    fr.id = i;
    fr.payload.assign(32, 0x55);
    link.transmit(std::move(fr));
  }
  s.run();

  ASSERT_EQ(rx.size(), 3u);
  EXPECT_FALSE(rx[0].corrupted);
  EXPECT_TRUE(rx[1].corrupted);
  EXPECT_EQ(rx[1].payload[3], 0x55 ^ 0x80);
  EXPECT_FALSE(rx[2].corrupted);
  EXPECT_EQ(link.stats().frames_corrupted.value(), 1u);
  EXPECT_EQ(s.telemetry().counter_value("simnet.link.frames_corrupted"), 1u);

  const auto events = s.telemetry().trace().snapshot();
  const bool traced = std::any_of(
      events.begin(), events.end(), [](const telemetry::TraceEvent& e) {
        return e.kind == telemetry::TraceKind::kLinkCorrupt && e.a == 2;
      });
  EXPECT_TRUE(traced);
}

TEST(Link, DuplicationFaultDeliversASecondCopy) {
  sim::Simulation s;
  Rng rng(1);
  sim::LinkParams p;
  p.bandwidth_bps = 1e9;
  p.propagation = 0;
  sim::Link link(s, rng, p, "l");
  sim::Faults f;
  f.dup_rate = 1.0;  // duplicate every frame
  f.dup_delay = 100;
  link.set_faults(std::move(f));
  std::vector<TimeNs> arrivals;
  link.set_receiver([&](sim::Frame) { arrivals.push_back(s.now()); });
  sim::Frame fr;
  fr.payload.assign(962, 0);  // 1000 wire bytes -> 8000 ns serialization
  link.transmit(std::move(fr));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 100);  // the copy lags by dup_delay
  EXPECT_EQ(link.stats().frames_duplicated, 1u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
}

TEST(Switch, LearnsAndForwards) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b"), c(topo, "c");
  // First frame to an unknown address floods; replies are then unicast.
  auto* udp_a = *a.udp().open(100);
  auto* udp_b = *b.udp().open(100);
  auto* udp_c = *c.udp().open(100);
  int c_rx = 0;
  udp_c->set_handler([&](host::Endpoint, Bytes, bool) { ++c_rx; });
  Bytes msg = bytes_of("x");
  (void)udp_a->send_to({b.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(udp_b->datagrams_received(), 1u);
  EXPECT_EQ(c_rx, 0);  // addressed frames don't reach bystanders
  // Reply is unicast (b learned a's port from the flooded frame).
  (void)udp_b->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(udp_a->datagrams_received(), 1u);
  EXPECT_GE(topo.leaf(0).frames_forwarded(), 1u);
}

TEST(Switch, FdbCapacityEvictsOldestAndDegradesToFlooding) {
  // A 2-entry FDB with three talkative hosts must evict FIFO-style; traffic
  // to the evicted address floods (and still arrives) rather than dropping.
  sim::Topology::Params p;
  p.fdb_capacity = 2;
  sim::Topology topo(p);
  host::Host a(topo, "a"), b(topo, "b"), c(topo, "c");
  auto* ua = *a.udp().open(100);
  auto* ub = *b.udp().open(100);
  auto* uc = *c.udp().open(100);
  Bytes msg = bytes_of("x");

  // Learn a, then b, then c: c's learn evicts a (the oldest entry).
  (void)ua->send_to({b.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  (void)ub->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  (void)uc->send_to({b.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(topo.leaf(0).fdb_size(), 2u);
  EXPECT_EQ(topo.leaf(0).fdb_evictions(), 1u);
  EXPECT_EQ(topo.sim().telemetry().counter_value(
                "simnet.switch.fdb_evictions"),
            1u);

  // b -> a now floods (a was evicted) but a still receives it.
  const u64 flooded_before = topo.leaf(0).frames_flooded();
  const u64 a_rx_before = ua->datagrams_received();
  (void)ub->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_GT(topo.leaf(0).frames_flooded(), flooded_before);
  EXPECT_EQ(ua->datagrams_received(), a_rx_before + 1);
}

TEST(Switch, FloodNeverReflectsOutIngressPort) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b"), c(topo, "c");
  auto* ua = *a.udp().open(100);
  Bytes msg = bytes_of("x");
  // Unknown destination: the frame floods to b and c. The sender's own
  // downlink must carry nothing — a flood that reflected out its ingress
  // port would echo traffic back at every sender.
  (void)ua->send_to({b.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_GE(topo.leaf(0).frames_flooded(), 1u);
  EXPECT_EQ(topo.host_downlink(0).stats().frames_delivered.value(), 0u);
  EXPECT_EQ(topo.nic(0).rx_frames(), 0u);
}

TEST(Topology, EgressFaultsOnlyAffectThatDirection) {
  sim::Topology topo;
  host::Host a(topo, "a"), b(topo, "b");
  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0));  // drop all a->*
  auto* ua = *a.udp().open(100);
  auto* ub = *b.udp().open(100);
  Bytes msg = bytes_of("y");
  (void)ua->send_to({b.addr(), 100}, ConstByteSpan{msg});
  (void)ub->send_to({a.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();
  EXPECT_EQ(ub->datagrams_received(), 0u);  // a's egress is dead
  EXPECT_EQ(ua->datagrams_received(), 1u);  // b's egress is fine
}

}  // namespace
}  // namespace dgiwarp
