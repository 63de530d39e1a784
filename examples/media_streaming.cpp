// Media streaming example: a VLC-like server/client pair over the iWARP
// socket interface, comparable to the paper's §VI.B.1 setup.
//
//   $ ./media_streaming [udp|udp-wr|http] [loss%]
//
//   udp     UD datagram streaming (send/recv data path)
//   udp-wr  UD datagram streaming over RDMA Write-Record
//   http    HTTP over the RC (stream) mode
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/media/media.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "udp";
  const double loss = argc > 2 ? std::atof(argv[2]) / 100.0 : 0.0;

  isock::ISockConfig cfg;
  if (std::strcmp(mode, "udp-wr") == 0)
    cfg.ud_mode = isock::XferMode::kWriteRecord;

  sim::Topology topo;
  host::Host server_host(topo, "server");
  host::Host client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);

  if (loss > 0.0)
    topo.host_uplink(0).set_faults(sim::Faults::bernoulli(loss));

  media::StreamParams params;
  params.burst_start = false;  // live stream at the encoding bitrate
  params.bitrate_bps = 8e6;
  media::MediaServer server(io_s, params);
  media::MediaClient client(io_c);

  const std::size_t prebuffer = 300 * 1024;  // ~300 ms of media
  media::ClientResult res;
  if (std::strcmp(mode, "http") == 0) {
    (void)server.serve_http(8080, 8 * MiB);
    res = client.run_http(server_host.endpoint(8080), prebuffer,
                          30 * kSecond);
  } else {
    (void)server.serve_udp(7000, 8 * MiB);
    res = client.run_udp(server_host.endpoint(7000), prebuffer, 30 * kSecond);
  }

  std::printf("mode=%s loss=%.1f%%\n", mode, loss * 100.0);
  std::printf("  initial buffering time: %.1f ms%s\n",
              to_ms(res.buffering_time), res.completed ? "" : " (TIMED OUT)");
  std::printf("  bytes received: %zu in %llu frames, %llu sequence gaps\n",
              res.bytes_received, static_cast<unsigned long long>(res.frames),
              static_cast<unsigned long long>(res.sequence_gaps));
  return res.completed ? 0 : 1;
}
