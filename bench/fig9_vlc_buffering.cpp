// Figure 9: VLC-style streaming initial buffering time — UD (send/recv and
// Write-Record data paths) vs the RC/HTTP mode.
//
// Live pacing at the media bitrate; the client must fill the player's
// per-protocol network-caching watermark. VLC's HTTP access module buffers
// several times more media than its UDP module, which — as the paper itself
// notes — makes the measured gap "due only partially to the
// datagram-iWARP to RC-iWARP difference".
#include "apps/media/media.hpp"
#include "bench_util.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

namespace {

struct Rig {
  explicit Rig(isock::ISockConfig cfg = {})
      : server_host(topo, "server"), client_host(topo, "client"),
        dev_s(server_host), dev_c(client_host),
        io_s(dev_s, cfg), io_c(dev_c, cfg) {}
  sim::Topology topo;
  host::Host server_host, client_host;
  verbs::Device dev_s, dev_c;
  isock::ISockStack io_s, io_c;
};

// VLC 1.x-era network-caching defaults: UDP access ~300 ms of media,
// HTTP access ~1200 ms.
constexpr double kBitrate = 8e6;
constexpr std::size_t kUdpCacheBytes =
    static_cast<std::size_t>(kBitrate / 8.0 * 0.3);
constexpr std::size_t kHttpCacheBytes =
    static_cast<std::size_t>(kBitrate / 8.0 * 1.2);

double run_udp(isock::XferMode mode, telemetry::Registry* agg) {
  isock::ISockConfig cfg;
  cfg.ud_mode = mode;
  Rig r(cfg);
  media::StreamParams p;
  p.burst_start = false;
  p.bitrate_bps = kBitrate;
  media::MediaServer server(r.io_s, p);
  if (!server.serve_udp(7000, 4 * MiB).ok()) return -1;
  media::MediaClient client(r.io_c);
  auto res = client.run_udp(r.server_host.endpoint(7000), kUdpCacheBytes,
                            20 * kSecond);
  if (agg) agg->merge_from(r.topo.sim().telemetry());
  return res.completed ? to_ms(res.buffering_time) : -1;
}

double run_http(telemetry::Registry* agg) {
  Rig r;
  media::StreamParams p;
  p.burst_start = false;
  p.bitrate_bps = kBitrate;
  media::MediaServer server(r.io_s, p);
  if (!server.serve_http(8080, 4 * MiB).ok()) return -1;
  media::MediaClient client(r.io_c);
  auto res = client.run_http(r.server_host.endpoint(8080), kHttpCacheBytes,
                             30 * kSecond);
  if (agg) agg->merge_from(r.topo.sim().telemetry());
  return res.completed ? to_ms(res.buffering_time) : -1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 9 — VLC streaming initial buffering time",
                "UD buffering ~74.1% lower than the RC/HTTP mode; the UD "
                "send/recv and Write-Record bars are nearly identical "
                "(buffered-copy socket interface)");

  // --metrics-json: each run owns a private Topology (its own registry), so
  // the dump aggregates all three runs into one document, the way the
  // harness-driven figures do through perf::Options::metrics.
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  telemetry::Registry agg;
  telemetry::Registry* aggp = args.metrics_json.empty() ? nullptr : &agg;

  const double ud_sr = run_udp(isock::XferMode::kSendRecv, aggp);
  const double ud_wr = run_udp(isock::XferMode::kWriteRecord, aggp);
  const double rc_http = run_http(aggp);
  // The RC socket path carries data via send/recv FPDUs regardless of the
  // configured datagram mode; as in the paper, the two RC bars coincide.
  const double rc_http_wr = rc_http;

  TablePrinter t({"transport", "Send/Recv (ms)", "RDMA Write(-Record) (ms)"});
  t.add_row({"UD (udp stream)", TablePrinter::fmt(ud_sr),
             TablePrinter::fmt(ud_wr)});
  t.add_row({"RC (http stream)", TablePrinter::fmt(rc_http),
             TablePrinter::fmt(rc_http_wr)});
  t.print();

  std::printf("\npaper: UD reduces buffering time by 74.1%% -> measured "
              "%.1f%%\n",
              bench::pct_improvement(ud_sr, rc_http));
  std::printf("paper: UD S/R vs UD WriteRec nearly identical -> measured "
              "%.1f%% apart\n",
              std::abs(ud_sr - ud_wr) / ud_sr * 100.0);
  bench::dump_metrics(agg, args.metrics_json);
  return 0;
}
