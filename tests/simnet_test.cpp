// Unit tests for the discrete-event core: simulation ordering, the
// two-lane CPU model, links, loss models and the learning switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/memcount.hpp"
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

// Live-instance bookkeeping for a captured object: `destroyed` counts only
// instances that still owned their value (not moved-from shells).
struct InstanceStats {
  int live = 0;
  int copies = 0;
  int destroyed = 0;
};

struct Counted {
  explicit Counted(InstanceStats* s) : stats(s) { ++stats->live; }
  Counted(const Counted& o) : stats(o.stats) {
    ++stats->live;
    ++stats->copies;
  }
  Counted(Counted&& o) noexcept : stats(o.stats) {
    ++stats->live;
    o.owner = false;
  }
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    --stats->live;
    if (owner) ++stats->destroyed;
  }
  InstanceStats* stats;
  bool owner = true;
};

static_assert(!std::is_copy_constructible_v<sim::Task>);
static_assert(!std::is_copy_assignable_v<sim::Task>);
static_assert(std::is_nothrow_move_constructible_v<sim::Task>);

TEST(Simulation, TaskIsMoveOnly) {
  int runs = 0;
  sim::Task a = [&runs] { ++runs; };
  sim::Task b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  b();
  sim::Task c;
  c = std::move(b);
  EXPECT_FALSE(b);
  c();
  EXPECT_EQ(runs, 2);
}

TEST(Simulation, StepDoesNotCopyCapturedPayload) {
  Simulation sim;
  Bytes payload(64 * 1024, 0xAB);
  const u8* data = payload.data();
  const u8* seen = nullptr;
  sim.after(10, [p = std::move(payload), &seen] { seen = p.data(); });
  const mem::AllocTally before = mem::snapshot();
  sim.run();
  EXPECT_EQ(mem::delta(before).count, 0u);
  EXPECT_EQ(seen, data);
}

TEST(Simulation, FrameClosureFitsInline) {
  Simulation sim;
  sim::Frame frame;
  frame.payload = sim::Payload(1500, 0x5A);
  const u8* data = frame.payload.data();
  const u8* seen = nullptr;
  const u8** ptr = &seen;
  auto closure = [ptr, fr = std::move(frame)] { *ptr = fr.payload.data(); };
  static_assert(sizeof(closure) <= sim::Task::kInlineSize);
  static_assert(sim::Task::fits_inline<decltype(closure)>);
  sim.after(1, std::move(closure));
  sim.run();
  EXPECT_EQ(seen, data);
}

TEST(Simulation, LargeClosureRunsOnceDestroysOnce) {
  InstanceStats stats;
  int runs = 0;
  {
    Simulation sim;
    std::array<u64, 32> pad{};
    pad[31] = 1;
    auto big = [c = Counted{&stats}, pad, &runs] {
      runs += static_cast<int>(pad[31]);
    };
    static_assert(!sim::Task::fits_inline<decltype(big)>);
    sim.after(5, std::move(big));
    EXPECT_EQ(stats.destroyed, 0);
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(stats.destroyed, 1);
    EXPECT_EQ(stats.live, 1);  // only the moved-from `big` is left
  }
  EXPECT_EQ(stats.live, 0);
  EXPECT_EQ(stats.destroyed, 1);
  EXPECT_EQ(stats.copies, 0);
}

TEST(Simulation, PendingTasksFreedWithSimulation) {
  auto token = std::make_shared<int>(7);
  {
    Simulation sim;
    std::array<u64, 32> pad{};
    sim.at(100, [token] {});
    sim.at(200, [token, pad] { (void)pad; });  // boxed
    sim.at(50, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    sim.run_until(60);  // a task that ran is freed at once
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulation, SlotReuseKeepsTimeSeqOrder) {
  Simulation sim;
  std::mt19937_64 rng(20110516);
  struct Scheduled {
    TimeNs time;
    u64 seq;
  };
  std::vector<Scheduled> scheduled;
  std::vector<u64> ran;
  std::array<u64, 16> pad{};
  for (int i = 0; i < 10'000; ++i) {
    if (rng() % 3 == 0) {
      sim.step();
      continue;
    }
    // Some times fall in the past and clamp to now().
    const TimeNs t = sim.now() + static_cast<TimeNs>(rng() % 64) - 8;
    const u64 seq = scheduled.size();
    scheduled.push_back({std::max(t, sim.now()), seq});
    if (seq % 5 == 0) {
      sim.at(t, [&ran, seq, pad] { ran.push_back(seq + pad[0]); });  // boxed
    } else {
      sim.at(t, [&ran, seq] { ran.push_back(seq); });
    }
  }
  sim.run();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.time < b.time;
                   });
  std::vector<u64> want;
  for (const Scheduled& s : scheduled) want.push_back(s.seq);
  EXPECT_EQ(ran, want);
  EXPECT_TRUE(sim.idle());
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

TEST(Payload, EmptyByDefault) {
  const sim::Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.data(), nullptr);
  EXPECT_TRUE(p.span().empty());
  EXPECT_EQ(p.use_count(), 0u);
  // An empty source allocates no block either.
  const mem::AllocTally before = mem::snapshot();
  const sim::Payload none(ConstByteSpan{});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(mem::delta(before).count, 0u);
}

TEST(Payload, CopySharesTheBlock) {
  const Bytes src = make_pattern(100, 7);
  const sim::Payload a(ConstByteSpan{src});
  ASSERT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), src.begin(), src.end()));
  EXPECT_NE(a.data(), src.data());  // built from a copy of the source

  const mem::AllocTally before = mem::snapshot();
  const sim::Payload b = a;
  sim::Payload c;
  c = b;
  EXPECT_EQ(mem::delta(before).count, 0u);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(c.data(), a.data());
  EXPECT_EQ(c[42], src[42]);
  EXPECT_EQ(a.use_count(), 3u);

  sim::Payload moved = std::move(c);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.data(), a.data());
  EXPECT_EQ(a.use_count(), 3u);
}

TEST(Payload, LastOwnerFrees) {
  // Lifetimes are checked for real under ASan (verify-asan): a premature
  // free is a use-after-free below, a missed one a leak at exit.
  auto first = std::make_unique<sim::Payload>(64, u8{0xC3});
  sim::Payload second = *first;
  EXPECT_EQ(second.use_count(), 2u);
  first.reset();  // not the last owner: the bytes stay
  EXPECT_EQ(second.use_count(), 1u);
  EXPECT_EQ(second.size(), 64u);
  EXPECT_EQ(second[63], 0xC3);
  second = sim::Payload(8, 1);  // the last owner lets go of the old block
  EXPECT_EQ(second.use_count(), 1u);
  EXPECT_EQ(second.size(), 8u);
}

TEST(Payload, BuildWritesInPlace) {
  const mem::AllocTally before = mem::snapshot();
  const sim::Payload p = sim::Payload::build(4, [](ByteSpan out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<u8>(i);
  });
  EXPECT_EQ(mem::delta(before).count, 1u);  // one block, no staging buffer
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[3], 3);
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
  f.payload = sim::Payload(962, 0);  // + 38 B overhead = 1000 wire bytes
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
    f.payload = sim::Payload(962, 0);
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

// A corruption model that does not strike costs no payload copy: Link asks
// it for a plan from a read-only view and copies only on a strike.
TEST(Link, NonStrikingCorruptionModelCopiesNothing) {
  sim::Simulation s;
  Rng rng(1);
  sim::LinkParams p;
  p.bandwidth_bps = 1e9;
  p.propagation = 0;
  sim::Link link(s, rng, p, "l");
  sim::Faults f;
  f.corruption = std::make_unique<sim::TargetedCorruption>(
      std::vector<sim::CorruptTarget>{{3, 0, 0x01}});
  link.set_faults(std::move(f));
  std::vector<sim::Frame> rx;
  rx.reserve(3);
  link.set_receiver([&](sim::Frame fr) { rx.push_back(std::move(fr)); });

  auto send = [&](u64 id) {
    sim::Frame fr;
    fr.id = id;
    fr.payload = sim::Payload(1500, 0x55);
    const u8* const sent = fr.payload.data();
    const mem::AllocTally before = mem::snapshot();
    link.transmit(std::move(fr));
    s.run();
    return std::pair{mem::delta(before).count, sent};
  };
  for (u64 id = 1; id <= 2; ++id) {
    const auto [allocs, sent] = send(id);
    EXPECT_EQ(allocs, 0u) << "frame " << id;
    EXPECT_EQ(rx.back().payload.data(), sent);  // the very same block
    EXPECT_FALSE(rx.back().corrupted);
  }
  // The third frame is struck: it is copied, and the sender's block is
  // left intact.
  const auto [allocs, sent] = send(3);
  EXPECT_GT(allocs, 0u);
  EXPECT_NE(rx.back().payload.data(), sent);
  EXPECT_TRUE(rx.back().corrupted);
  EXPECT_EQ(rx.back().payload[0], 0x55 ^ 0x01);
}

// Planning from a view draws exactly what damaging in place did: the same
// seed gives the same strikes as applying them through corrupt().
TEST(Faults, PlanDrawsMatchInPlaceCorruption) {
  sim::GilbertElliottCorruption a(0.1, 0.3, 0.001, 0.05);
  sim::GilbertElliottCorruption b(0.1, 0.3, 0.001, 0.05);
  Rng ra(9), rb(9);
  for (int i = 0; i < 500; ++i) {
    const Bytes orig = make_pattern(64 + static_cast<std::size_t>(i), 2);
    Bytes damaged = orig;
    const bool hit = a.corrupt(ra, 0, damaged);
    std::vector<sim::Strike> plan;
    b.plan(rb, 0, ConstByteSpan{orig}, plan);
    EXPECT_EQ(hit, !plan.empty());
    Bytes replay = orig;
    sim::CorruptionModel::apply(plan, replay);
    ASSERT_EQ(replay, damaged) << "frame " << i;
  }
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
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
    fr.payload = sim::Payload(32, 0x55);
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
  fr.payload = sim::Payload(962, 0);  // 1000 wire bytes -> 8000 ns on the wire
  link.transmit(std::move(fr));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 100);  // the copy lags by dup_delay
  EXPECT_EQ(link.stats().frames_duplicated, 1u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
}

TEST(Link, DuplicateSharesPayload) {
  sim::Simulation s;
  Rng rng(1);
  sim::Link link(s, rng, sim::LinkParams{}, "l");
  sim::Faults f;
  f.dup_rate = 1.0;
  f.dup_delay = 100;
  link.set_faults(std::move(f));
  std::vector<sim::Frame> rx;
  link.set_receiver([&](sim::Frame fr) { rx.push_back(std::move(fr)); });
  sim::Frame fr;
  fr.payload = sim::Payload(962, 0x11);
  const u8* data = fr.payload.data();
  link.transmit(std::move(fr));
  s.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].payload.data(), data);  // both copies ride one buffer
  EXPECT_EQ(rx[1].payload.data(), data);
  EXPECT_EQ(rx[0].payload.use_count(), 2u);
}

TEST(Link, IdleLinkCreatesNoQueueKeys) {
  sim::Topology topo;
  topo.add_host("a");
  topo.add_host("b");
  topo.sim().run();
  // Reading the depth of a link that never carried a frame must not
  // materialize the gauge either.
  EXPECT_EQ(topo.host_uplink(0).queue_depth(), 0u);
  EXPECT_EQ(topo.host_downlink(1).queue_depth(), 0u);
  for (const auto& [name, g] : topo.sim().telemetry().gauges())
    EXPECT_NE(name.rfind("simnet.link.queue_", 0), 0u) << name;
  for (const auto& [name, h] : topo.sim().telemetry().histograms())
    EXPECT_NE(name.rfind("simnet.link.queue_", 0), 0u) << name;
}

/// A frame from host 0 to an address no switch has learned, so the leaf
/// floods it to every other host port.
sim::Frame unknown_destination_frame(sim::Topology& topo, ConstByteSpan body) {
  sim::Frame f;
  f.src = topo.addr(0);
  f.dst = 0x0A0000FE;  // nobody's address
  f.proto = sim::kProtoIpv4;
  f.id = 1;
  f.payload = sim::Payload(body);
  return f;
}

TEST(Switch, FloodSharesOnePayload) {
  sim::Topology topo;
  constexpr std::size_t kHosts = 5;  // a flood fans out to 4 host ports
  for (std::size_t i = 0; i < kHosts; ++i)
    topo.add_host("h" + std::to_string(i));
  std::vector<sim::Frame> rx;
  rx.reserve(kHosts);
  for (std::size_t i = 1; i < kHosts; ++i)
    topo.host_downlink(i).get()->set_receiver(
        [&rx](sim::Frame fr) { rx.push_back(std::move(fr)); });

  const Bytes body = make_pattern(1400, 3);
  sim::Frame f = unknown_destination_frame(topo, ConstByteSpan{body});
  const u8* data = f.payload.data();
  const mem::AllocTally before = mem::snapshot();
  topo.host_uplink(0).get()->transmit(std::move(f));
  topo.sim().run();
  EXPECT_EQ(mem::delta(before).count, 0u);  // no per-port payload copy

  EXPECT_EQ(topo.leaf(0).frames_flooded(), 1u);
  ASSERT_EQ(rx.size(), kHosts - 1);
  for (const sim::Frame& got : rx) {
    EXPECT_EQ(got.payload.data(), data);
    EXPECT_TRUE(std::equal(got.payload.begin(), got.payload.end(),
                           body.begin(), body.end()));
  }
}

TEST(Link, CorruptionCopiesOnWrite) {
  sim::Topology topo;
  for (const char* name : {"a", "b", "c"}) topo.add_host(name);
  // Damage the first frame on b's downlink only; c's copy of the same
  // flood must come through untouched.
  topo.host_downlink(1).set_faults(
      sim::Faults::targeted_corruption({{1, 3, 0x80}}));
  std::vector<sim::Frame> at_b, at_c;
  topo.host_downlink(1).get()->set_receiver(
      [&](sim::Frame fr) { at_b.push_back(std::move(fr)); });
  topo.host_downlink(2).get()->set_receiver(
      [&](sim::Frame fr) { at_c.push_back(std::move(fr)); });

  const Bytes body = make_pattern(256, 9);
  sim::Frame f = unknown_destination_frame(topo, ConstByteSpan{body});
  const u8* data = f.payload.data();
  topo.host_uplink(0).get()->transmit(std::move(f));
  topo.sim().run();

  ASSERT_EQ(at_b.size(), 1u);
  ASSERT_EQ(at_c.size(), 1u);
  const sim::Frame& hit = at_b[0];
  const sim::Frame& spared = at_c[0];
  EXPECT_TRUE(hit.corrupted);
  EXPECT_NE(hit.payload.data(), data);  // damage went to a private copy
  ASSERT_EQ(hit.payload.size(), body.size());
  EXPECT_EQ(hit.payload[3], body[3] ^ 0x80);
  EXPECT_TRUE(std::equal(hit.payload.begin() + 4, hit.payload.end(),
                         body.begin() + 4, body.end()));
  EXPECT_FALSE(spared.corrupted);
  EXPECT_EQ(spared.payload.data(), data);
  EXPECT_TRUE(std::equal(spared.payload.begin(), spared.payload.end(),
                         body.begin(), body.end()));
  EXPECT_EQ(topo.host_downlink(1).stats().frames_corrupted.value(), 1u);
  EXPECT_EQ(topo.host_downlink(2).stats().frames_corrupted.value(), 0u);
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
