// §VI.B.2 overhead claim: the iWARP socket interface costs ~2% versus
// native UDP on the most network-intensive streaming task (pre-buffering).
//
// Burst-start streaming: the server sends the prebuffer window at a high
// rate and the client measures time-to-fill through (a) the full
// datagram-iWARP socket interface and (b) the native-UDP passthrough.
#include "apps/media/media.hpp"
#include "bench_util.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

namespace {

double run(bool use_iwarp, isock::XferMode mode) {
  sim::Topology topo;
  host::Host server_host(topo, "server");
  host::Host client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockConfig cfg;
  cfg.use_iwarp = use_iwarp;
  cfg.ud_mode = mode;
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);
  media::StreamParams p;
  p.burst_start = true;
  p.burst_rate_bps = 400e6;
  media::MediaServer server(io_s, p);
  if (!server.serve_udp(7000, 8 * MiB).ok()) return -1;
  media::MediaClient client(io_c);
  auto res =
      client.run_udp(server_host.endpoint(7000), 6 * MiB, 10 * kSecond);
  return res.completed ? to_ms(res.buffering_time) : -1;
}

}  // namespace

int main() {
  bench::banner("Socket-interface overhead vs native UDP (paper §VI.B.2)",
                "pre-buffering through the iWARP socket interface costs "
                "~2% over the native UDP stack");

  const double native = run(false, isock::XferMode::kSendRecv);
  const double iwarp_sr = run(true, isock::XferMode::kSendRecv);
  const double iwarp_wr = run(true, isock::XferMode::kWriteRecord);

  TablePrinter t({"path", "prebuffer time (ms)", "overhead vs native"});
  t.add_row({"native UDP", TablePrinter::fmt(native), "-"});
  t.add_row({"isock UD send/recv", TablePrinter::fmt(iwarp_sr),
             TablePrinter::fmt((iwarp_sr - native) / native * 100.0, 2) +
                 "%"});
  t.add_row({"isock UD Write-Record", TablePrinter::fmt(iwarp_wr),
             TablePrinter::fmt((iwarp_wr - native) / native * 100.0, 2) +
                 "%"});
  t.print();
  std::printf("\npaper: ~2%% overhead\n");
  return 0;
}
