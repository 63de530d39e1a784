// perfbench: one workload, one process, one thread.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <file> [--spans <file>] [--smoke]
//
// Runs whole iterations of the workload until --seconds have passed, checks
// every iteration's virtual-time results, and prints one JSON object as the
// last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (medians over the
// iterations); with --trace 1 they are the per-layer ones, from untraced and
// traced iterations, the micro-probes, the telemetry-on iteration and the
// bare-socket baseline, and the bench-side spans go to --spans. Exit code 0
// only when every check passed. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "expect.hpp"
#include "heap.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "telemetry/registry.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::string expected;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --expected <file> "
               "[--spans <file>] [--smoke]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (!parse_u64(v, &a.seed)) usage("--seed wants a whole number");
    } else if (k == "--seconds") {
      if (!parse_u64(v, &n) || n == 0)
        usage("--seconds wants a positive whole number");
      a.seconds = static_cast<double>(n);
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace wants 0 or 1");
      a.trace = v[0] - '0';
    } else if (k == "--expected") {
      a.expected = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0 ||
      a.expected.empty())
    usage("--workload, --seed, --seconds, --trace and --expected are required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Metric {
  double value;
  const char* unit;
};

/// Checks every iteration's virtual-time results against the recorded
/// expectation (when there is one for this seed) and against the first
/// iteration of the run (same seed => identical results).
class Checker {
 public:
  explicit Checker(const std::map<std::string, double>* expected)
      : expected_(expected) {}

  void add(const Iteration& it) {
    for (const SubRun& sr : it.subruns) {
      attempted_ += sr.ops;
      bool mismatch = false;
      if (sr.ops_failed > 0)
        std::fprintf(stderr, "FAIL %s: %llu of %llu operations failed\n",
                     sr.name.c_str(),
                     static_cast<unsigned long long>(sr.ops_failed),
                     static_cast<unsigned long long>(sr.ops));
      for (const VirtualResult& r : sr.results) {
        auto [it_first, fresh] = first_.emplace(r.key, r.value);
        if (!fresh && it_first->second != r.value) {
          std::fprintf(stderr,
                       "FAIL %s: %.17g differs from this seed's first run "
                       "%.17g\n",
                       r.key.c_str(), r.value, it_first->second);
          mismatch = true;
        }
        if (expected_) {
          auto e = expected_->find(r.key);
          if (e == expected_->end() || e->second != r.value) {
            std::fprintf(stderr, "FAIL %s: %.17g, expected %s\n",
                         r.key.c_str(), r.value,
                         e == expected_->end()
                             ? "no recorded value"
                             : std::to_string(e->second).c_str());
            mismatch = true;
          }
        }
      }
      // A sub-run whose virtual results are wrong fails as a whole.
      failed_ += mismatch ? sr.ops : sr.ops_failed;
    }
  }

  void add_extra(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const std::map<std::string, double>* expected_;
  std::map<std::string, double> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

double peak_rss_MB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Registry readings of the traced iteration's data phase.
struct LayerCounts {
  std::map<std::string, double> counters;
  double keys = 0;
  double hist_samples = 0;
  double lookup_ns = 0;
};

void capture_counts(dgiwarp::telemetry::Registry& reg, LayerCounts* out) {
  for (const auto& [name, c] : reg.counters())
    out->counters[name] = static_cast<double>(c.value());
  out->keys = static_cast<double>(reg.size());
  double samples = 0;
  for (const auto& [name, h] : reg.histograms())
    samples += static_cast<double>(h.count());
  out->hist_samples = samples;
  out->lookup_ns = counter_lookup_ns(reg);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.smoke);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  Expectations table;
  std::string err;
  if (!table.load(args.expected, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  const std::string workload_key = args.workload + (args.smoke ? ".smoke" : "");
  const auto* expected = table.find(workload_key, args.seed);
  // Without recorded values, a same-seed double run is the check.
  const std::size_t min_iterations = expected ? 1 : 2;
  Checker checker(expected);

  SpanLog no_spans(false);
  SpanLog spans(args.trace == 1);
  std::map<std::string, double> probes;
  LayerCounts counts;

  // An untraced iteration, one with bench-side spans and registry capture,
  // or one with the simulator's own telemetry switched on.
  enum class Kind { kPlain, kTraced, kTelemetryOn };
  std::vector<Iteration> plain, traced, telemetry_on;
  auto run = [&](Kind kind) {
    IterationOptions o;
    o.seed = args.seed;
    o.spans = kind == Kind::kTraced ? &spans : &no_spans;
    o.telemetry_on = kind == Kind::kTelemetryOn;
    if (kind == Kind::kTraced)
      o.inspect = [&](dgiwarp::telemetry::Registry& reg) {
        capture_counts(reg, &counts);
      };
    Iteration it = workload->run(o);
    checker.add(it);
    auto& into = kind == Kind::kPlain    ? plain
                 : kind == Kind::kTraced ? traced
                                         : telemetry_on;
    std::fprintf(stderr, "iteration %zu%s: wall %.4f s, setup %.4f s, "
                 "data %.4f s\n",
                 plain.size() + traced.size() + telemetry_on.size(),
                 kind == Kind::kPlain    ? ""
                 : kind == Kind::kTraced ? " (traced)"
                                         : " (telemetry on)",
                 it.wall_s, it.setup_s, it.data_s);
    into.push_back(std::move(it));
  };

  const std::int64_t t_start = wall_ns();
  auto elapsed = [&] { return static_cast<double>(wall_ns() - t_start) / 1e9; };
  if (args.trace == 0) {
    while (plain.size() < min_iterations || elapsed() < args.seconds)
      run(Kind::kPlain);
  } else {
    // Round-robin over the three kinds, so that all see the same host.
    const Kind order[] = {Kind::kPlain, Kind::kTraced, Kind::kTelemetryOn};
    std::size_t n = 0;
    while (n < 3 || plain.size() < min_iterations ||
           elapsed() < args.seconds)
      run(order[n++ % 3]);
  }

  // The first iteration's virtual results, in the form expected.txt
  // records them after "<workload> <seed>".
  for (const SubRun& sr : plain[0].subruns)
    for (const VirtualResult& r : sr.results)
      std::printf("result %s %.17g\n", r.key.c_str(), r.value);
  std::printf("iterations %zu untraced, %zu traced, %zu telemetry on\n",
              plain.size(), traced.size(), telemetry_on.size());

  std::map<std::string, Metric> metrics;
  auto put = [&](const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  };
  // Median over iterations of a per-iteration quantity.
  auto med = [](const std::vector<Iteration>& its, auto field) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(field(it));
    return median(v);
  };
  auto wall = [](const Iteration& i) { return i.wall_s; };
  auto data = [](const Iteration& i) { return i.data_s; };

  if (args.trace == 0) {
    put("wall_s", med(plain, wall), "s");
    put("sim_MBps", med(plain, [](const Iteration& i) {
          return ratio(i.payload_MB, i.data_s);
        }), "MB/s");
    put("calls_per_s", med(plain, [](const Iteration& i) {
          return ratio(static_cast<double>(i.ops), i.data_s);
        }), "1/s");
    put("setup_s", med(plain, [](const Iteration& i) { return i.setup_s; }),
        "s");
    put("peak_rss_MB", peak_rss_MB(), "MB");
  } else {
    // The event probe's deep point is the workload's own measured peak
    // depth (0, so not probed, where the Simulation is not visible).
    {
      SpanScope s(spans, "probes");
      probes = run_layer_probes(workload->probe_sizes(),
                                plain.front().peak_pending);
    }
    double udp_s = 0, tcp_s = 0;
    std::optional<HoststackBaseline> base;
    {
      SpanScope s(spans, "hoststack_baseline");
      base = workload->hoststack_baseline(args.seed);
    }
    if (base) {
      udp_s = base->udp_s;
      tcp_s = base->tcp_s;
      checker.add_extra(udp_s > 0);
      checker.add_extra(tcp_s > 0);
    }

    // Heap and event counts of a warm iteration: the first one also makes
    // the process's one-time allocations.
    const Iteration& p = plain.back();
    const double ops = static_cast<double>(p.ops);
    const double allocs = static_cast<double>(p.heap.allocs);
    const double events = p.events > 0 ? static_cast<double>(p.events) : 0.0;
    const double data_s = med(plain, data);
    const double sub_MB =
        p.payload_MB / static_cast<double>(p.subruns.size());
    auto c = [&](const char* key) {
      auto it = counts.counters.find(key);
      return it == counts.counters.end() ? 0.0 : it->second;
    };
    auto sub_wall = [&](const char* name) {
      std::vector<double> v;
      for (const Iteration& it : plain)
        for (const SubRun& sr : it.subruns)
          if (sr.name == name) v.push_back(sr.wall_s);
      return median(v);
    };

    for (const auto& [name, v] : probes)
      put(name, v,
          name.find("per_KiB") != std::string::npos ? "ns/KiB" : "ns");
    put("simnet.events", events, "count");
    put("simnet.ns_per_event", ratio(data_s * 1e9, events), "ns");
    put("simnet.peak_pending", static_cast<double>(p.peak_pending), "count");
    put("simnet.frames_per_MB", ratio(c("simnet.nic.tx_frames"), p.payload_MB),
        "frames/MB");
    const double flooded = c("simnet.switch.frames_flooded");
    put("simnet.switch.flood_frac",
        ratio(flooded, flooded + c("simnet.switch.frames_forwarded")),
        "ratio");
    for (const char* k : {"hoststack.ip.fragments_tx",
                          "hoststack.tcp.segments_tx",
                          "hoststack.tcp.retransmits", "rd.data_tx",
                          "rd.retries", "rdmap.write_record.chunks",
                          "verbs.cq.completions", "verbs.ud.segments_tx",
                          "verbs.rc.segments_tx", "verbs.ud.expired_messages"})
      put(k, c(k), "count");
    put("hoststack.udp_MBps", udp_s > 0 ? sub_MB / udp_s : 0.0, "MB/s");
    put("hoststack.tcp_MBps", tcp_s > 0 ? sub_MB / tcp_s : 0.0, "MB/s");
    put("iwarp.ud_self_s", udp_s > 0 ? sub_wall("ud_send_recv") - udp_s : 0.0,
        "s");
    put("iwarp.rc_self_s", tcp_s > 0 ? sub_wall("rc_send_recv") - tcp_s : 0.0,
        "s");
    put("rd.retx_frac", ratio(c("rd.retries"), c("rd.data_tx")), "ratio");
    put("rd.useful_frac", ratio(c("rd.data_rx"), c("rd.data_tx")), "ratio");
    put("isock.dgram_tx_per_call", ratio(c("isock.dgram.tx"), ops),
        "dgrams/call");
    put("telemetry.keys", counts.keys, "count");
    put("telemetry.hist_samples", counts.hist_samples, "count");
    put("telemetry.probe.counter_lookup_ns", counts.lookup_ns, "ns");
    put("telemetry.on_cost", ratio(med(telemetry_on, data), data_s), "ratio");
    put("heap.allocs_per_event", ratio(allocs, events), "allocs/event");
    put("heap.allocs_per_call", ratio(allocs, ops), "allocs/call");
    put("heap.bytes_per_payload_byte",
        ratio(static_cast<double>(p.heap.bytes), p.payload_MB * 1e6), "B/B");
    put("heap.bytes_path_share",
        ratio(static_cast<double>(p.bytes_path_allocs), allocs), "ratio");
    put("trace_overhead", ratio(med(traced, wall), med(plain, wall)),
        "ratio");
    put("failed_frac",
        ratio(static_cast<double>(checker.failed()),
              static_cast<double>(checker.attempted())),
        "ratio");

    if (!args.spans.empty() && !spans.write_json(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      return 2;
    }
  }

  const bool correct = checker.failed() == 0;
  print_json(correct, checker.attempted(), checker.failed(), metrics);
  return correct ? 0 : 1;
}
