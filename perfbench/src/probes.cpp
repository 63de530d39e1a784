#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "apps/sip/message.hpp"
#include "common/crc32.hpp"
#include "ddp/header.hpp"
#include "mpa/mpa.hpp"
#include "rdmap/write_record.hpp"
#include "simnet/packet.hpp"
#include "simnet/simulation.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

using namespace dgiwarp;

namespace {

// Results feed this sink so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t v) { g_sink = g_sink + v; }

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median ns per call of `op` over 9 batches; the batch size doubles until
/// one batch lasts at least 0.5 ms.
template <typename Op>
double ns_per_call(Op op) {
  auto batch = [&](std::size_t reps) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) op();
    return now_ns() - t0;
  };
  std::size_t reps = 1;
  while (batch(reps) < 5e5 && reps < (std::size_t{1} << 24)) reps *= 2;
  std::vector<double> per;
  for (int b = 0; b < 9; ++b)
    per.push_back(batch(reps) / static_cast<double>(reps));
  std::nth_element(per.begin(), per.begin() + 4, per.end());
  return per[4];
}

double per_kib(double ns, std::size_t bytes) {
  return ns / (static_cast<double>(bytes) / 1024.0);
}

/// Simulation::after + step with a closure the size of a frame capture,
/// `depth` - 1 other events pending far in the future.
double event_ns(std::size_t depth) {
  sim::Simulation sim;
  std::uint64_t hits = 0;
  const sim::Frame frame;
  for (std::size_t i = 1; i < depth; ++i)
    sim.at(kSecond * 1000 + static_cast<TimeNs>(i), [frame, &hits] {
      hits += frame.id;
    });
  const double ns = ns_per_call([&] {
    sim.after(1, [frame, &hits] { hits += frame.id + 1; });
    sim.step();
  });
  sink(hits);
  return ns;
}

}  // namespace

std::map<std::string, double> run_layer_probes(const ProbeSizes& sz,
                                               std::size_t deep_depth) {
  std::map<std::string, double> m;

  const Bytes message = make_pattern(sz.message, 1);
  m["common.crc32_ns_per_KiB"] = per_kib(
      ns_per_call([&] { sink(crc32_ieee(ConstByteSpan{message})); }),
      sz.message);

  const Bytes segment = make_pattern(sz.segment, 2);
  ddp::SegmentHeader h;
  h.set_opcode(0);
  h.set_last(true);
  h.msg_len = static_cast<u32>(sz.message);
  m["ddp.build_segment_ns"] = ns_per_call([&] {
    sink(ddp::build_segment(h, ConstByteSpan{segment}, true).size());
  });
  const Bytes wire = ddp::build_segment(h, ConstByteSpan{segment}, true);
  m["ddp.parse_segment_ns"] = ns_per_call([&] {
    sink(ddp::parse_segment(ConstByteSpan{wire}, true).ok());
  });

  const Bytes ulpdu = make_pattern(sz.ulpdu, 3);
  {
    mpa::MpaSender tx;
    m["mpa.frame_ns_per_KiB"] = per_kib(
        ns_per_call([&] { sink(tx.frame(ConstByteSpan{ulpdu}).size()); }),
        sz.ulpdu);
  }
  {
    constexpr std::size_t kFpdus = 64;
    mpa::MpaSender tx;
    Bytes stream;
    for (std::size_t i = 0; i < kFpdus; ++i) {
      const Bytes f = tx.frame(ConstByteSpan{ulpdu});
      stream.insert(stream.end(), f.begin(), f.end());
    }
    const double ns = ns_per_call([&] {
      mpa::MpaReceiver rx;  // marker positions are stream-absolute
      rx.on_ulpdu([](Bytes u, bool) { sink(u.size()); });
      sink(rx.consume(ConstByteSpan{stream}).ok());
    });
    m["mpa.deframe_ns_per_KiB"] = per_kib(ns, sz.ulpdu * kFpdus);
  }

  {
    // A message's segments arriving evens first, then odds: every odd
    // segment fills a gap and coalesces two ranges.
    const std::size_t n = (sz.message + sz.segment - 1) / sz.segment;
    std::vector<u32> order;
    for (std::size_t i = 0; i < n; i += 2) order.push_back(static_cast<u32>(i));
    for (std::size_t i = 1; i < n; i += 2) order.push_back(static_cast<u32>(i));
    const u32 seg = static_cast<u32>(sz.segment);
    const double ns = ns_per_call([&] {
      rdmap::ValidityMap map;
      for (u32 i : order) map.add(i * seg, seg);
      sink(map.valid_bytes());
    });
    m["rdmap.probe.validity_map_add_ns"] = ns / static_cast<double>(n);
  }

  const auto invite =
      sip::make_request(sip::Method::kInvite, "alice", "bob", "c1", 1);
  m["sip.probe.serialize_ns"] =
      ns_per_call([&] { sink(invite.serialize().size()); });
  const Bytes invite_wire = invite.serialize();
  m["sip.probe.parse_ns"] = ns_per_call([&] {
    sink(sip::SipMessage::parse(ConstByteSpan{invite_wire}).ok());
  });

  m["simnet.probe.event_ns"] = event_ns(1);
  m["simnet.probe.event_ns_deep"] = deep_depth > 0 ? event_ns(deep_depth) : 0.0;
  return m;
}

double counter_lookup_ns(telemetry::Registry& reg) {
  std::vector<std::string> keys;
  for (const auto& [name, c] : reg.counters()) keys.push_back(name);
  if (keys.empty()) return 0.0;
  std::size_t i = 0;
  return ns_per_call([&] {
    sink(reg.counter(keys[i]).value());
    if (++i == keys.size()) i = 0;
  });
}

}  // namespace perfbench
