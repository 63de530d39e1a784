#include "workloads.hpp"

#include <algorithm>

#include "apps/sip/agents.hpp"
#include "common/memcount.hpp"
#include "ddp/segmenter.hpp"
#include "hoststack/host.hpp"
#include "isock/isock.hpp"
#include "mpa/mpa.hpp"
#include "perf/harness.hpp"
#include "simnet/topology.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_export.hpp"
#include "verbs/node.hpp"

namespace perfbench {

using namespace dgiwarp;

namespace {

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Seed 0 keeps the library defaults, the seeds every figure bench uses.
u64 options_seed(std::uint64_t seed) {
  return seed == 0 ? perf::Options{}.seed : splitmix64(seed);
}
u64 topology_seed(std::uint64_t seed) {
  return seed == 0 ? sim::Topology::Params{}.seed
                   : splitmix64(seed ^ 0x70B0ull);
}

void add_heap(Iteration& it, const heap::Tally& h0, const mem::AllocTally& b0) {
  const heap::Tally d = heap::delta(h0);
  it.heap.allocs += d.allocs;
  it.heap.bytes += d.bytes;
  it.bytes_path_allocs += mem::delta(b0).count;
}

// ---------------------------------------------------------------------------
// bulk_stream / lossy_dgram: one measure_bandwidth call per mode.

struct ModeInfo {
  perf::Mode mode;
  const char* name;
};

struct SweepSpec {
  std::size_t msg_size = 0;
  std::size_t messages = 0;  // per mode
  double loss = 0.0;         // Bernoulli drop on the data direction
  std::vector<ModeInfo> modes;
};

class ModeSweep : public Workload {
 public:
  explicit ModeSweep(SweepSpec spec) : spec_(std::move(spec)) {}

  Iteration run(const IterationOptions& o) override {
    SpanLog& log = *o.spans;
    Iteration it;
    perf::Options setup_opts;
    setup_opts.seed = options_seed(o.seed);
    perf::Options opts = setup_opts;
    opts.loss_rate = spec_.loss;
    telemetry::Registry reg;
    if (o.inspect) opts.metrics = &reg;
    telemetry::TraceCapture capture;
    if (o.telemetry_on) opts.trace = &capture;

    SpanScope iteration(log, "iteration");
    for (const ModeInfo& m : spec_.modes) {
      SpanScope mode_span(log, m.name);
      {
        // Set-up cost of one sub-run: a call with no measured messages
        // builds the two-host rig, connects, sends the two warm-up
        // messages and tears the rig down.
        SpanScope s(log, "setup");
        const std::int64_t t0 = wall_ns();
        (void)perf::measure_bandwidth(m.mode, spec_.msg_size, 0, setup_opts);
        it.setup_s += secs(wall_ns() - t0);
      }
      SubRun sr;
      sr.name = m.name;
      sr.ops = spec_.messages;
      const heap::Tally h0 = heap::snapshot();
      const mem::AllocTally b0 = mem::snapshot();
      perf::BandwidthResult r;
      {
        SpanScope s(log, "data");
        const std::int64_t t0 = wall_ns();
        r = perf::measure_bandwidth(m.mode, spec_.msg_size, spec_.messages,
                                    opts);
        sr.wall_s = secs(wall_ns() - t0);
      }
      add_heap(it, h0, b0);
      const std::string p = std::string(m.name) + ".";
      const double completed = static_cast<double>(r.messages_completed);
      sr.results = {{p + "goodput_MBps", r.goodput_MBps},
                    {p + "delivered_frac", r.delivered_frac},
                    {p + "completed", completed}};
      // Without loss every mode must complete every message; under loss
      // only the reliable transports must.
      const bool reliable = perf::is_rc(m.mode) ||
                            m.mode == perf::Mode::kRdSendRecv ||
                            m.mode == perf::Mode::kRdWriteRecord;
      if (spec_.loss == 0.0 || reliable)
        sr.ops_failed = spec_.messages -
                        std::min(r.messages_completed, spec_.messages);
      it.wall_s += sr.wall_s;
      it.data_s += sr.wall_s;
      it.ops += sr.ops;
      it.subruns.push_back(std::move(sr));
    }
    it.payload_MB = static_cast<double>(spec_.msg_size * spec_.messages *
                                        spec_.modes.size()) /
                    1e6;
    if (o.inspect) o.inspect(reg);
    return it;
  }

  ProbeSizes probe_sizes() const override {
    ProbeSizes s;
    s.message = spec_.msg_size;
    s.segment = std::min(spec_.msg_size,
                         ddp::ud_max_segment_payload(host::kMaxUdpPayload));
    s.ulpdu = std::min(spec_.msg_size,
                       mpa::max_ulpdu_for(host::kTcpMss, mpa::MpaConfig{}));
    return s;
  }

  std::optional<HoststackBaseline> hoststack_baseline(
      std::uint64_t seed) override {
    if (spec_.loss != 0.0) return std::nullopt;
    return HoststackBaseline{bare_udp_s(seed), bare_tcp_s(seed)};
  }

 private:
  // The sub-run's payload as 64 KB datagrams from a sender to a receiver on
  // one switch, a window of kWindow messages in flight (as the verbs
  // bandwidth loop keeps its queue depth). Returns -1 if any byte is lost.
  double bare_udp_s(std::uint64_t seed) {
    constexpr std::size_t kWindow = 8;
    constexpr u16 kPort = 4791;
    const std::int64_t t0 = wall_ns();
    sim::Topology::Params params;
    params.seed = topology_seed(seed);
    sim::Topology topo(params);
    host::Host a(topo, "sender");
    host::Host b(topo, "receiver");
    auto tx = a.udp().open(0);
    auto rx = b.udp().open(kPort);
    if (!tx.ok() || !rx.ok()) return -1.0;
    const Bytes payload = make_pattern(spec_.msg_size, 0xA);
    const std::size_t msg = spec_.msg_size;
    std::size_t sent = 0, done = 0, received = 0;
    auto send_message = [&] {
      for (std::size_t off = 0; off < msg; off += host::kMaxUdpPayload) {
        const std::size_t n = std::min(host::kMaxUdpPayload, msg - off);
        (void)(*tx)->send_to(b.endpoint(kPort),
                             ConstByteSpan{payload.data() + off, n});
      }
      ++sent;
    };
    (*rx)->set_handler([&](host::Endpoint, Bytes d, bool) {
      received += d.size();
      while (received >= (done + 1) * msg) {
        ++done;
        if (sent < spec_.messages) send_message();
      }
    });
    for (std::size_t i = 0; i < std::min(kWindow, spec_.messages); ++i)
      send_message();
    topo.sim().run();
    const double s = secs(wall_ns() - t0);
    return received == msg * spec_.messages ? s : -1.0;
  }

  // The sub-run's payload through one TCP connection. Returns -1 if the
  // stream does not arrive whole.
  double bare_tcp_s(std::uint64_t seed) {
    constexpr u16 kPort = 5001;
    const std::int64_t t0 = wall_ns();
    sim::Topology::Params params;
    params.seed = topology_seed(seed);
    sim::Topology topo(params);
    host::Host a(topo, "sender");
    host::Host b(topo, "receiver");
    const Bytes payload = make_pattern(spec_.msg_size, 0xA);
    const std::size_t msg = spec_.msg_size;
    const std::size_t total = msg * spec_.messages;
    std::size_t sent = 0, received = 0;
    host::TcpSocket::Ptr server;
    if (!b.tcp()
             .listen(kPort,
                     [&](host::TcpSocket::Ptr s) {
                       server = s;
                       s->on_data([&](ConstByteSpan d, bool) {
                         received += d.size();
                       });
                     })
             .ok())
      return -1.0;
    auto conn = a.tcp().connect(b.endpoint(kPort));
    if (!conn.ok()) return -1.0;
    host::TcpSocket::Ptr client = *conn;
    auto pump = [&] {
      while (sent < total) {
        const std::size_t off = sent % msg;
        const std::size_t n = std::min(msg - off, total - sent);
        const std::size_t took =
            client->send(ConstByteSpan{payload.data() + off, n});
        if (took == 0) break;
        sent += took;
      }
    };
    client->on_connect([&](Status st) {
      if (st.ok()) pump();
    });
    client->on_writable(pump);
    topo.sim().run();
    const double s = secs(wall_ns() - t0);
    return received == total ? s : -1.0;
  }

  SweepSpec spec_;
};

// ---------------------------------------------------------------------------
// sip_fleet: the ClusterHarness::run_sip phases, driven here so that each
// phase is timed on its own.

struct FleetSpec {
  std::size_t leaves = 8;
  std::size_t trunk_cables = 2;
  std::size_t pairs = 250;
  std::size_t calls_per_pair = 20;
};

class SipFleet : public Workload {
 public:
  explicit SipFleet(FleetSpec spec) : spec_(spec) {}

  Iteration run(const IterationOptions& o) override {
    SpanLog& log = *o.spans;
    Iteration it;
    const sip::SipConfig sipcfg;
    const TimeNs deadline = 120 * kSecond;
    const std::size_t calls = spec_.pairs * spec_.calls_per_pair;
    SpanScope iteration(log, "iteration");

    std::unique_ptr<Fleet> fleet;
    double setup_s = 0, establish_s = 0, teardown_s = 0, destroy_s = 0;
    {
      SpanScope s(log, "setup", 0);
      const std::int64_t t0 = wall_ns();
      sim::Topology::Params params;
      params.leaves = spec_.leaves;
      params.trunk_cables = spec_.trunk_cables;
      params.seed = topology_seed(o.seed);
      fleet = std::make_unique<Fleet>(params);
      sim::Simulation& sim = fleet->topo.sim();
      if (o.telemetry_on) {
        auto& reg = sim.telemetry();
        reg.spans().enable();
        reg.profiler().enable();
        reg.trace().enable();
      }
      isock::ISockConfig scfg;
      scfg.pool_slots = 2;
      scfg.slot_bytes = 2048;
      for (std::size_t i = 0; i < spec_.pairs; ++i) {
        auto t = std::make_unique<Tenant>();
        verbs::NodeSpec ns;
        ns.name = "srv" + std::to_string(i);
        t->server_node = std::make_unique<verbs::Node>(fleet->topo, ns);
        ns.name = "cli" + std::to_string(i);
        t->client_node = std::make_unique<verbs::Node>(fleet->topo, ns);
        t->server_io =
            std::make_unique<isock::ISockStack>(t->server_node->device(), scfg);
        t->client_io =
            std::make_unique<isock::ISockStack>(t->client_node->device(), scfg);
        fleet->tenants.push_back(std::move(t));
      }
      for (auto& t : fleet->tenants) {
        t->server = std::make_unique<sip::SipServer>(
            *t->server_io, sip::Transport::kUd, sipcfg);
        (void)t->server->start();
      }
      // The settle gap ClusterHarness leaves before the first INVITE.
      sim.run_until(sim.now() + 2 * kMillisecond);
      setup_s = secs(wall_ns() - t0);
      s.close(static_cast<std::int64_t>(sim.events_executed()));
    }

    sim::Simulation& sim = fleet->topo.sim();
    const heap::Tally h0 = heap::snapshot();
    const mem::AllocTally b0 = mem::snapshot();
    const u64 events0 = sim.events_executed();
    std::size_t established = 0, terminated = 0;
    i64 server_ledger = 0;
    {
      SpanScope s(log, "establish", static_cast<std::int64_t>(events0));
      const std::int64_t t0 = wall_ns();
      const TimeNs dial_start = sim.now();
      for (auto& t : fleet->tenants) {
        t->client = std::make_unique<sip::SipClient>(
            *t->client_io, sip::Transport::kUd,
            t->server_node->host().endpoint(sipcfg.server_port), sipcfg);
        t->client->start_calls(spec_.calls_per_pair);
      }
      chunked_wait(*fleet, it, log,
                   [&] {
                     for (const auto& t : fleet->tenants)
                       if (t->client->established() < t->client->calls())
                         return false;
                     return true;
                   },
                   dial_start + deadline);
      establish_s = secs(wall_ns() - t0);
      s.close(static_cast<std::int64_t>(sim.events_executed()));
    }
    for (const auto& t : fleet->tenants) {
      established += t->client->established();
      server_ledger += t->server_node->host().ledger().total();
    }
    {
      SpanScope s(log, "teardown",
                  static_cast<std::int64_t>(sim.events_executed()));
      const std::int64_t t0 = wall_ns();
      for (auto& t : fleet->tenants) t->client->start_teardown();
      chunked_wait(*fleet, it, log,
                   [&] {
                     for (const auto& t : fleet->tenants)
                       if (t->client->terminated() < t->client->calls())
                         return false;
                     return true;
                   },
                   sim.now() + deadline);
      for (auto& t : fleet->tenants) {
        terminated += t->client->terminated();
        t->client->finish_teardown();
      }
      teardown_s = secs(wall_ns() - t0);
      s.close(static_cast<std::int64_t>(sim.events_executed()));
    }
    add_heap(it, h0, b0);
    it.events = static_cast<std::int64_t>(sim.events_executed() - events0);
    auto& reg = sim.telemetry();
    const TimeNs virtual_end = sim.now();
    it.payload_MB = static_cast<double>(reg.counter_value("isock.bytes.tx")) /
                    1e6;
    if (o.inspect) o.inspect(reg);
    {
      SpanScope s(log, "destroy");
      const std::int64_t t0 = wall_ns();
      fleet.reset();
      destroy_s = secs(wall_ns() - t0);
    }

    SubRun sr;
    sr.name = "fleet";
    sr.ops = calls;
    sr.ops_failed = calls - std::min(std::min(established, terminated), calls);
    sr.wall_s = establish_s + teardown_s;
    sr.results = {
        {"fleet.established", static_cast<double>(established)},
        {"fleet.terminated", static_cast<double>(terminated)},
        {"fleet.virtual_end_ns", static_cast<double>(virtual_end)},
        {"fleet.server_ledger_bytes", static_cast<double>(server_ledger)}};
    it.subruns.push_back(std::move(sr));
    it.setup_s = setup_s;
    it.data_s = establish_s + teardown_s;
    it.wall_s = setup_s + establish_s + teardown_s + destroy_s;
    it.ops = calls;
    return it;
  }

  ProbeSizes probe_sizes() const override {
    const std::size_t invite =
        sip::make_request(sip::Method::kInvite, "alice", "bob", "c1", 1)
            .serialize()
            .size();
    return ProbeSizes{invite, invite, invite};
  }

 private:
  // Member order gives ClusterHarness's destruction order: client before
  // server, sockets before nodes.
  struct Tenant {
    std::unique_ptr<verbs::Node> server_node;
    std::unique_ptr<verbs::Node> client_node;
    std::unique_ptr<isock::ISockStack> server_io;
    std::unique_ptr<isock::ISockStack> client_io;
    std::unique_ptr<sip::SipServer> server;
    std::unique_ptr<sip::SipClient> client;
  };
  struct Fleet {
    explicit Fleet(const sim::Topology::Params& p) : topo(p) {}
    sim::Topology topo;
    std::vector<std::unique_ptr<Tenant>> tenants;  // destroyed first
  };

  // ClusterHarness::chunked_wait: advance in 1 ms run_until windows until
  // done() or the deadline. Each window is a span; pending() is sampled at
  // every window boundary.
  template <typename Done>
  static bool chunked_wait(Fleet& f, Iteration& it, SpanLog& log, Done done,
                           TimeNs deadline) {
    sim::Simulation& sim = f.topo.sim();
    while (!done()) {
      if (sim.now() >= deadline) return false;
      if (sim.idle()) return done();
      it.peak_pending = std::max<std::uint64_t>(it.peak_pending, sim.pending());
      SpanScope w(log, "window",
                  static_cast<std::int64_t>(sim.events_executed()));
      sim.run_until(std::min<TimeNs>(sim.now() + kMillisecond, deadline));
      w.close(static_cast<std::int64_t>(sim.events_executed()));
    }
    return true;
  }

  FleetSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  using perf::Mode;
  if (name == "bulk_stream") {
    // fig6's 256 KiB row: default_message_count(256 KiB) = 128 messages.
    SweepSpec s;
    s.msg_size = 256 * KiB;
    s.messages = smoke ? 8 : perf::default_message_count(256 * KiB);
    s.modes = {{Mode::kUdSendRecv, "ud_send_recv"},
               {Mode::kUdWriteRecord, "ud_write_record"},
               {Mode::kRcSendRecv, "rc_send_recv"},
               {Mode::kRcRdmaWrite, "rc_rdma_write"}};
    return std::make_unique<ModeSweep>(std::move(s));
  }
  if (name == "lossy_dgram") {
    // The fig7/fig8 point, 16 KiB messages at 1 % loss, with a 64 MiB
    // budget per mode (default_message_count caps it at 4000 messages)
    // instead of fig7's 8 MiB: the wall cost of loss recovery depends on
    // where the losses fall, and a longer run averages over more of them,
    // so runs with different seeds cost nearly the same.
    SweepSpec s;
    s.msg_size = 16 * KiB;
    s.messages = smoke ? 64 : perf::default_message_count(16 * KiB, 64 * MiB);
    s.loss = 0.01;
    s.modes = {{Mode::kUdSendRecv, "ud_send_recv"},
               {Mode::kUdWriteRecord, "ud_write_record"},
               {Mode::kRdSendRecv, "rd_send_recv"},
               {Mode::kRcSendRecv, "rc_send_recv"}};
    return std::make_unique<ModeSweep>(std::move(s));
  }
  if (name == "sip_fleet") {
    // fig12 at half size; the smoke size keeps the spine and the LAG.
    FleetSpec s;
    if (smoke) {
      s.leaves = 2;
      s.pairs = 16;
      s.calls_per_pair = 5;
    }
    return std::make_unique<SipFleet>(s);
  }
  return nullptr;
}

}  // namespace perfbench
