// The benchmark's workloads. Each iteration runs one whole workload through
// the simulator's public API (perf::measure_bandwidth for the mode sweeps;
// sim::Topology, verbs::Node, isock::ISockStack and sip::SipServer /
// SipClient for the fleet) and times it from outside.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expect.hpp"
#include "heap.hpp"
#include "spans.hpp"

namespace dgiwarp::telemetry {
class Registry;
}

namespace perfbench {

struct IterationOptions {
  std::uint64_t seed = 0;  // benchmark seed; 0 = the library's default seeds
  SpanLog* spans = nullptr;
  /// Spans, cost profiler and trace ring on inside the simulator.
  bool telemetry_on = false;
  /// Called once with the data phase's telemetry registry before it is
  /// destroyed (traced iterations: counters and the lookup probe).
  std::function<void(dgiwarp::telemetry::Registry&)> inspect;
};

/// One checked unit of a workload: a transport mode, or the whole fleet.
struct SubRun {
  std::string name;
  std::uint64_t ops = 0;         // operations attempted (messages or calls)
  std::uint64_t ops_failed = 0;  // operations that broke an invariant
  double wall_s = 0.0;           // wall time of the sub-run
  std::vector<VirtualResult> results;
};

struct Iteration {
  double wall_s = 0.0;      // set-up through destruction
  double setup_s = 0.0;     // set-up time (see README.md per workload)
  double data_s = 0.0;      // data phase: denominator of the rates
  double payload_MB = 0.0;  // simulated payload posted, 1e6 bytes
  std::uint64_t ops = 0;
  std::vector<SubRun> subruns;
  // Data-phase observations, for the per-layer metrics.
  std::int64_t events = -1;  // simulation events; -1 = not visible
  std::uint64_t peak_pending = 0;
  heap::Tally heap;                 // whole heap
  std::uint64_t bytes_path_allocs = 0;  // mem::CountingAllocator only
};

/// Sizes of the workload's own messages, for the micro-probes.
struct ProbeSizes {
  std::size_t message = 0;  // application message
  std::size_t segment = 0;  // DDP segment payload on the UD path
  std::size_t ulpdu = 0;    // MPA ULPDU on the RC path
};

struct HoststackBaseline {
  double udp_s = 0.0;  // -1 when bytes were lost
  double tcp_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Iteration run(const IterationOptions& opts) = 0;
  virtual ProbeSizes probe_sizes() const = 0;
  /// Wall time of one sub-run's payload through bare UDP and through bare
  /// TCP sockets (the traced run's hoststack baseline); nullopt when the
  /// workload has none.
  virtual std::optional<HoststackBaseline> hoststack_baseline(std::uint64_t) {
    return std::nullopt;
  }
};

/// "bulk_stream", "sip_fleet" or "lossy_dgram"; null for any other name.
/// `smoke` selects the reduced self-test size.
std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke);

}  // namespace perfbench
