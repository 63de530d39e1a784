// Application-layer tests: SIP codec + transactions + agents, and the
// media streaming workload over both transports.
#include <gtest/gtest.h>

#include "apps/media/media.hpp"
#include "apps/sip/agents.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

TEST(SipMessage, SerializeParseRoundtripRequest) {
  auto req = sip::make_request(sip::Method::kInvite, "alice", "bob",
                               "call-42", 1);
  const Bytes wire = req.serialize();
  auto parsed = sip::SipMessage::parse(ConstByteSpan{wire});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->method, sip::Method::kInvite);
  EXPECT_EQ(parsed->call_id(), "call-42");
  EXPECT_EQ(parsed->header("CSeq"), "1 INVITE");
  EXPECT_FALSE(parsed->body.empty());  // SDP attached to INVITE
  EXPECT_EQ(parsed->body, req.body);
}

TEST(SipMessage, SerializeParseRoundtripResponse) {
  auto req = sip::make_request(sip::Method::kBye, "alice", "bob", "c1", 2);
  auto rsp = sip::make_response(req, 200, "OK");
  const Bytes wire = rsp.serialize();
  auto parsed = sip::SipMessage::parse(ConstByteSpan{wire});
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->is_request());
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->call_id(), "c1");
  // To gets a tag on 2xx.
  EXPECT_NE(parsed->header("To").find(";tag="), std::string::npos);
}

TEST(SipMessage, ParseRejectsGarbage) {
  const Bytes junk = bytes_of("NOT A SIP MESSAGE");
  EXPECT_FALSE(sip::SipMessage::parse(ConstByteSpan{junk}).ok());
  const Bytes half = bytes_of("INVITE sip:x SIP/2.0\r\nVia: x\r\n");
  EXPECT_FALSE(sip::SipMessage::parse(ConstByteSpan{half}).ok());
}

TEST(SipMessage, ParseRejectsBadContentLength) {
  // Non-numeric, negative and overflowing Content-Length values must all
  // come back as a clean protocol error, never an exception or a huge
  // allocation (regression: std::stoul used to throw here).
  for (const char* cl : {"banana", "-5", "12a",
                         "18446744073709551616",  // > 2^64-1
                         "99999999"}) {           // > datagram size
    std::string msg = "BYE sip:b SIP/2.0\r\nCall-ID: c\r\nContent-Length: ";
    msg += cl;
    msg += "\r\n\r\nbody";
    const Bytes wire = bytes_of(msg.c_str());
    auto r = sip::SipMessage::parse(ConstByteSpan{wire});
    EXPECT_EQ(r.code(), Errc::kProtocolError) << "Content-Length: " << cl;
  }
}

TEST(SipMessage, ParseClampsContentLengthLie) {
  // A declared length larger than the bytes that actually arrived (but
  // small enough to be plausible within the datagram) clamps to what is
  // present — UDP SIP has no framing beyond the datagram itself.
  const std::string msg =
      "BYE sip:b SIP/2.0\r\nCall-ID: c\r\nContent-Length: 40\r\n\r\nshort";
  const Bytes wire = bytes_of(msg.c_str());
  auto r = sip::SipMessage::parse(ConstByteSpan{wire});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body, "short");

  // A smaller declared length trims the tail.
  const std::string msg2 =
      "BYE sip:b SIP/2.0\r\nCall-ID: c\r\nContent-Length: 2\r\n\r\nshort";
  const Bytes wire2 = bytes_of(msg2.c_str());
  auto r2 = sip::SipMessage::parse(ConstByteSpan{wire2});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->body, "sh");
}

TEST(SipMessage, ParseBoundsHeaderCountAndLineLength) {
  // Header bomb: more headers than any sane message carries.
  std::string bomb = "BYE sip:b SIP/2.0\r\n";
  for (int i = 0; i < 200; ++i)
    bomb += "X-H" + std::to_string(i) + ": v\r\n";
  bomb += "\r\n";
  const Bytes wire = bytes_of(bomb.c_str());
  EXPECT_EQ(sip::SipMessage::parse(ConstByteSpan{wire}).code(),
            Errc::kProtocolError);

  // One absurdly long header line.
  std::string longline = "BYE sip:b SIP/2.0\r\nX-Pad: ";
  longline.append(10'000, 'a');
  longline += "\r\n\r\n";
  const Bytes wire2 = bytes_of(longline.c_str());
  EXPECT_EQ(sip::SipMessage::parse(ConstByteSpan{wire2}).code(),
            Errc::kProtocolError);

  // Header line with no name before the colon.
  const Bytes wire3 =
      bytes_of("BYE sip:b SIP/2.0\r\n: nameless\r\n\r\n");
  EXPECT_EQ(sip::SipMessage::parse(ConstByteSpan{wire3}).code(),
            Errc::kProtocolError);
}

TEST(SipMessage, ParseRejectsMalformedStartLines) {
  for (const char* start : {
           "SIP/2.0 42 TooLow",          // status < 100
           "SIP/2.0 banana OK",          // non-numeric status
           "SIP/2.0",                    // missing status entirely
           "INVITE sip:x HTTP/1.1",      // wrong version
           "INVITE sip:x",               // missing version
           "FROB sip:x SIP/2.0",         // unknown method
       }) {
    std::string msg = std::string(start) + "\r\nCall-ID: c\r\n\r\n";
    const Bytes wire = bytes_of(msg.c_str());
    EXPECT_FALSE(sip::SipMessage::parse(ConstByteSpan{wire}).ok())
        << start;
  }
}

TEST(SipTransaction, BasicCallLifecycleUas) {
  sip::CallRecord call;
  auto a1 = sip::uas_on_request(call, sip::Method::kInvite);
  EXPECT_EQ(a1.respond_code, 200);
  EXPECT_TRUE(a1.call_created);
  auto a2 = sip::uas_on_request(call, sip::Method::kAck);
  EXPECT_EQ(a2.respond_code, 0);
  EXPECT_EQ(call.state, sip::CallState::kEstablished);
  auto a3 = sip::uas_on_request(call, sip::Method::kBye);
  EXPECT_EQ(a3.respond_code, 200);
  EXPECT_TRUE(a3.call_destroyed);
}

TEST(SipTransaction, UacFollowsResponses) {
  sip::CallRecord call;
  call.state = sip::CallState::kInviteSent;
  EXPECT_EQ(sip::uac_on_response(call, 180, "1 INVITE"),
            sip::Method::kResponse);  // provisional ignored
  EXPECT_EQ(sip::uac_on_response(call, 200, "1 INVITE"), sip::Method::kAck);
  EXPECT_EQ(call.state, sip::CallState::kEstablished);
  call.state = sip::CallState::kByeSent;
  EXPECT_EQ(sip::uac_on_response(call, 200, "2 BYE"), sip::Method::kResponse);
  EXPECT_EQ(call.state, sip::CallState::kTerminated);
}

struct SipRig {
  explicit SipRig(sip::Transport t, isock::ISockConfig cfg = {})
      : server_host(topo, "server"), client_host(topo, "client"),
        dev_s(server_host), dev_c(client_host),
        io_s(dev_s, cfg), io_c(dev_c, cfg),
        server(io_s, t), client(io_c, t, server_host.endpoint(5060)) {}

  /// Start the server and let startup work (ring posting) drain before
  /// any measurement.
  void start_server() {
    ASSERT_TRUE(server.start().ok());
    topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);
  }
  sim::Topology topo;
  host::Host server_host, client_host;
  verbs::Device dev_s, dev_c;
  isock::ISockStack io_s, io_c;
  sip::SipServer server;
  sip::SipClient client;
};

TEST(SipAgents, UdCallSetupAndTeardown) {
  SipRig r(sip::Transport::kUd);
  r.start_server();
  EXPECT_EQ(r.client.establish_calls(3, kSecond), 3u);
  EXPECT_EQ(r.server.active_calls(), 3u);
  r.client.teardown_all(kSecond);
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  EXPECT_EQ(r.server.active_calls(), 0u);
  EXPECT_EQ(r.server.parse_errors(), 0u);
}

TEST(SipAgents, RcCallSetupAndTeardown) {
  SipRig r(sip::Transport::kRc);
  r.start_server();
  EXPECT_EQ(r.client.establish_calls(3, kSecond), 3u);
  EXPECT_EQ(r.server.active_calls(), 3u);
  r.client.teardown_all(kSecond);
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  EXPECT_EQ(r.server.active_calls(), 0u);
}

TEST(SipAgents, UdResponseTimeFasterThanRc) {
  SipRig ud(sip::Transport::kUd);
  ud.start_server();
  auto t_ud = ud.client.invite_response_time();
  ASSERT_TRUE(t_ud.ok()) << t_ud.status().to_string();

  SipRig rc(sip::Transport::kRc);
  rc.start_server();
  auto t_rc = rc.client.invite_response_time();
  ASSERT_TRUE(t_rc.ok()) << t_rc.status().to_string();

  EXPECT_LT(*t_ud, *t_rc) << "UD should answer faster (paper Fig. 10)";
}

TEST(SipAgents, ServerMemoryScalesPerCallAndUdIsSmaller) {
  isock::ISockConfig small_pool;
  small_pool.pool_slots = 2;
  small_pool.slot_bytes = 2048;

  SipRig ud(sip::Transport::kUd, small_pool);
  ud.start_server();
  const i64 ud_base = ud.server_host.ledger().total();
  ASSERT_EQ(ud.client.establish_calls(50, 5 * kSecond), 50u);
  const i64 ud_per_call =
      (ud.server_host.ledger().total() - ud_base) / 50;

  SipRig rc(sip::Transport::kRc, small_pool);
  rc.start_server();
  const i64 rc_base = rc.server_host.ledger().total();
  ASSERT_EQ(rc.client.establish_calls(50, 5 * kSecond), 50u);
  const i64 rc_per_call =
      (rc.server_host.ledger().total() - rc_base) / 50;

  EXPECT_GT(ud_per_call, 0);
  EXPECT_GT(rc_per_call, ud_per_call)
      << "RC must carry more per-call state (paper Fig. 11)";
}

struct MediaRig {
  explicit MediaRig(isock::ISockConfig cfg = {})
      : server_host(topo, "server"), client_host(topo, "client"),
        dev_s(server_host), dev_c(client_host),
        io_s(dev_s, cfg), io_c(dev_c, cfg) {}
  sim::Topology topo;
  host::Host server_host, client_host;
  verbs::Device dev_s, dev_c;
  isock::ISockStack io_s, io_c;
};

TEST(Media, UdpBurstDeliversPrebuffer) {
  MediaRig r;
  media::StreamParams p;
  p.burst_start = true;
  media::MediaServer server(r.io_s, p);
  ASSERT_TRUE(server.serve_udp(7000, 4 * MiB).ok());
  media::MediaClient client(r.io_c);
  auto res = client.run_udp(r.server_host.endpoint(7000), 2 * MiB, 5 * kSecond);
  EXPECT_TRUE(res.completed);
  EXPECT_GE(res.bytes_received, 2 * MiB);
  EXPECT_EQ(res.sequence_gaps, 0u);
  EXPECT_GT(res.buffering_time, 0);
}

TEST(Media, HttpBurstDeliversPrebuffer) {
  MediaRig r;
  media::StreamParams p;
  p.burst_start = true;
  media::MediaServer server(r.io_s, p);
  ASSERT_TRUE(server.serve_http(8080, 4 * MiB).ok());
  media::MediaClient client(r.io_c);
  auto res =
      client.run_http(r.server_host.endpoint(8080), 2 * MiB, 10 * kSecond);
  EXPECT_TRUE(res.completed);
  EXPECT_GE(res.bytes_received, 2 * MiB);
}

TEST(Media, PacedStreamRunsAtBitrate) {
  MediaRig r;
  media::StreamParams p;
  p.burst_start = false;
  p.bitrate_bps = 8e6;
  media::MediaServer server(r.io_s, p);
  ASSERT_TRUE(server.serve_udp(7000, 2 * MiB).ok());
  media::MediaClient client(r.io_c);
  const std::size_t prebuffer = 1 * MiB;
  auto res = client.run_udp(r.server_host.endpoint(7000), prebuffer,
                            20 * kSecond);
  ASSERT_TRUE(res.completed);
  // 1 MiB at 8 Mb/s is ~1.05 s; allow generous tolerance for stack time.
  const double secs = static_cast<double>(res.buffering_time) / 1e9;
  EXPECT_GT(secs, 0.9);
  EXPECT_LT(secs, 1.4);
}

TEST(Media, LossyLinkProducesSequenceGaps) {
  MediaRig r;
  r.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.05));
  media::StreamParams p;
  p.burst_start = true;
  media::MediaServer server(r.io_s, p);
  ASSERT_TRUE(server.serve_udp(7000, 4 * MiB).ok());
  media::MediaClient client(r.io_c);
  auto res = client.run_udp(r.server_host.endpoint(7000), 3 * MiB, 5 * kSecond);
  // With 5% loss the prebuffer may or may not fill; gaps must be observed.
  EXPECT_GT(res.sequence_gaps, 0u);
}

}  // namespace
}  // namespace dgiwarp
