// SIP load test example: a SipStone-style client/server pair over the
// iWARP socket interface (the paper's §VI.B.2 experiment, scriptable).
//
//   $ ./sip_loadtest [ud|rc] [concurrent_calls]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/sip/agents.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

int main(int argc, char** argv) {
  const bool rc = argc > 1 && std::strcmp(argv[1], "rc") == 0;
  const std::size_t calls =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 500;
  const sip::Transport transport =
      rc ? sip::Transport::kRc : sip::Transport::kUd;

  sim::Topology topo;
  host::Host server_host(topo, "server");
  host::Host client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockConfig cfg;
  cfg.pool_slots = 2;
  cfg.slot_bytes = 2048;
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);

  sip::SipServer server(io_s, transport);
  if (!server.start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);

  sip::SipClient client(io_c, transport, server_host.endpoint(5060));

  // Response time under light load.
  auto rt = client.invite_response_time();
  std::printf("transport=%s\n", rc ? "RC" : "UD");
  if (rt.ok()) std::printf("  INVITE -> 200 OK: %.3f ms\n", to_ms(*rt));

  // Bring up the load and report server-side state.
  const TimeNs t0 = topo.sim().now();
  const std::size_t up = client.establish_calls(calls, 120 * kSecond);
  std::printf("  %zu/%zu calls established in %.1f ms (virtual)\n", up, calls,
              to_ms(topo.sim().now() - t0));
  std::printf("  server handled %llu requests, %zu active calls\n",
              static_cast<unsigned long long>(server.requests_handled()),
              server.active_calls());
  server_host.ledger().dump("  server memory");

  client.teardown_all(30 * kSecond);
  std::printf("  after teardown: %zu active calls\n", server.active_calls());
  return up == calls ? 0 : 1;
}
