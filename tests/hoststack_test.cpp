// Unit + integration tests for the user-space kernel stack: IP
// fragmentation/reassembly, UDP datagram semantics, and the TCP
// implementation (handshake, bulk transfer, loss recovery, teardown).
#include <gtest/gtest.h>

#include "hoststack/host.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

struct Net {
  sim::Topology topo;
  host::Host a{topo, "a"};
  host::Host b{topo, "b"};
};

TEST(Udp, SmallDatagramRoundtrip) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Bytes msg = make_pattern(100, 1);
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).ok());
  n.topo.sim().run();
  auto got = sb->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
  EXPECT_EQ(got->first.ip, n.a.addr());
  EXPECT_EQ(got->first.port, sa->local_port());
}

TEST(Udp, MaxSizeDatagramFragmentsAndReassembles) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Bytes msg = make_pattern(host::kMaxUdpPayload, 2);
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).ok());
  n.topo.sim().run();
  auto got = sb->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second.size(), host::kMaxUdpPayload);
  EXPECT_EQ(got->second, msg);
}

TEST(Udp, OversizeDatagramRejected) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  Bytes msg(host::kMaxUdpPayload + 1, 0);
  EXPECT_EQ(sa->send_to({n.b.addr(), 700}, ConstByteSpan{msg}).code(),
            Errc::kInvalidArgument);
}

TEST(Udp, FragmentLossDropsWholeDatagram) {
  Net n;
  // Drop exactly one mid-datagram fragment.
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{3});
    return f;
  }());
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Bytes big = make_pattern(20'000, 3);  // 14 fragments
  Bytes small = make_pattern(200, 4);
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{big}).ok());
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{small}).ok());
  n.topo.sim().run();
  // The big datagram is gone (all-or-nothing); the small one arrived.
  auto got = sb->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, small);
  EXPECT_FALSE(sb->recv().has_value());
  EXPECT_GE(n.b.ip().reassembly_expired(), 1u);
}

// Regression: a duplicated fragment used to count twice towards the
// reassembly byte total, completing the datagram early with a zero-filled
// hole where the still-missing fragment belonged. The receiver must either
// get the exact payload or nothing.
TEST(Udp, DuplicatedFragmentsDoNotCorruptReassembly) {
  Net n;
  n.topo.host_uplink(0).set_faults(sim::Faults::duplicating(1.0));
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Bytes big = make_pattern(20'000, 5);  // 14 fragments, every one duplicated
  ASSERT_TRUE(sa->send_to({n.b.addr(), 700}, ConstByteSpan{big}).ok());
  n.topo.sim().run();
  auto got = sb->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, big);                // byte-exact, no holes
  EXPECT_FALSE(sb->recv().has_value());       // and exactly once
}

TEST(Udp, PortDemultiplexing) {
  Net n;
  auto* s1 = *n.b.udp().open(700);
  auto* s2 = *n.b.udp().open(701);
  auto* sa = *n.a.udp().open(0);
  Bytes m1 = bytes_of("one"), m2 = bytes_of("two");
  (void)sa->send_to({n.b.addr(), 700}, ConstByteSpan{m1});
  (void)sa->send_to({n.b.addr(), 701}, ConstByteSpan{m2});
  n.topo.sim().run();
  EXPECT_EQ(s1->recv()->second, m1);
  EXPECT_EQ(s2->recv()->second, m2);
}

TEST(Udp, PortInUseAndEphemeralAllocation) {
  Net n;
  ASSERT_TRUE(n.a.udp().open(700).ok());
  EXPECT_EQ(n.a.udp().open(700).code(), Errc::kInvalidArgument);
  auto e1 = *n.a.udp().open(0);
  auto e2 = *n.a.udp().open(0);
  EXPECT_NE(e1->local_port(), e2->local_port());
  EXPECT_GE(e1->local_port(), 49'152);
}

TEST(Udp, RxQueueOverflowDrops) {
  Net n;
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  Bytes m(10, 0);
  for (int i = 0; i < 300; ++i)
    (void)sa->send_to({n.b.addr(), 700}, ConstByteSpan{m});
  n.topo.sim().run();
  std::size_t received = 0;
  while (sb->recv().has_value()) ++received;
  EXPECT_EQ(received, 256u);  // default pull-mode queue limit
}

struct TcpPair {
  Net n;
  host::TcpSocket::Ptr client, server;
  Bytes server_rx, client_rx;

  void connect(u16 port = 800) {
    (void)n.b.tcp().listen(port, [&](host::TcpSocket::Ptr s) {
      server = s;
      s->on_data([&](ConstByteSpan d, bool) {
        server_rx.insert(server_rx.end(), d.begin(), d.end());
      });
    });
    client = *n.a.tcp().connect({n.b.addr(), port});
    client->on_data([&](ConstByteSpan d, bool) {
      client_rx.insert(client_rx.end(), d.begin(), d.end());
    });
    bool up = false;
    client->on_connect([&](Status st) { up = st.ok(); });
    // The accept callback fires on SYN; wait until the final ACK lands and
    // both ends are Established.
    n.topo.sim().run_while_pending(
        [&] { return up && server && server->established(); }, kSecond);
    ASSERT_TRUE(up);
    ASSERT_NE(server, nullptr);
  }
};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  TcpPair p;
  p.connect();
  EXPECT_TRUE(p.client->established());
  EXPECT_TRUE(p.server->established());
  EXPECT_EQ(p.client->remote().port, 800);
}

TEST(Tcp, ConnectToClosedPortFails) {
  Net n;
  auto sock = *n.a.tcp().connect({n.b.addr(), 999});
  bool closed = false;
  sock->on_close([&] { closed = true; });
  n.topo.sim().run_while_pending([&] { return closed; }, kSecond);
  EXPECT_TRUE(closed);  // RST from the closed port
}

TEST(Tcp, UnansweredConnectGivesUpWithTimeout) {
  Net n;
  // Black-hole everything a sends: SYNs vanish, so no RST ever comes back.
  // The consecutive-RTO cap must abort the connect instead of retrying
  // forever (which would also make sim().run() spin for eternity).
  n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0));
  auto sock = *n.a.tcp().connect({n.b.addr(), 800});
  Status result = Status::Ok();
  bool connect_cb = false;
  sock->on_connect([&](Status s) {
    connect_cb = true;
    result = s;
  });
  bool closed = false;
  sock->on_close([&] { closed = true; });
  n.topo.sim().run();
  EXPECT_TRUE(connect_cb);
  EXPECT_EQ(result.code(), Errc::kTimedOut);
  EXPECT_TRUE(closed);
  EXPECT_EQ(sock->state(), host::TcpSocket::State::kClosed);
}

TEST(Tcp, BulkTransferIntegrity) {
  TcpPair p;
  p.connect();
  const Bytes data = make_pattern(2 * MiB, 7);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t nn =
          p.client->send(ConstByteSpan{data}.subspan(sent));
      if (nn == 0) break;
      sent += nn;
    }
  };
  p.client->on_writable(pump);
  pump();
  p.n.topo.sim().run_while_pending(
      [&] { return p.server_rx.size() >= data.size(); }, 10 * kSecond);
  EXPECT_EQ(p.server_rx, data);
  EXPECT_EQ(p.client->retransmissions(), 0u);
}

TEST(Tcp, BidirectionalTransfer) {
  TcpPair p;
  p.connect();
  const Bytes up = make_pattern(50'000, 1);
  const Bytes down = make_pattern(70'000, 2);
  (void)p.client->send(ConstByteSpan{up});
  (void)p.server->send(ConstByteSpan{down});
  p.n.topo.sim().run_while_pending(
      [&] {
        return p.server_rx.size() >= up.size() &&
               p.client_rx.size() >= down.size();
      },
      10 * kSecond);
  EXPECT_EQ(p.server_rx, up);
  EXPECT_EQ(p.client_rx, down);
}

TEST(Tcp, RecoversFromPacketLoss) {
  TcpPair p;
  p.n.a.tcp().set_min_rto(5 * kMillisecond);
  p.n.b.tcp().set_min_rto(5 * kMillisecond);
  p.connect();
  p.n.topo.host_uplink(0).set_faults(sim::Faults::bernoulli(0.02));
  const Bytes data = make_pattern(512 * KiB, 9);
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < data.size()) {
      const std::size_t nn =
          p.client->send(ConstByteSpan{data}.subspan(sent));
      if (nn == 0) break;
      sent += nn;
    }
  };
  p.client->on_writable(pump);
  pump();
  const bool done = p.n.topo.sim().run_while_pending(
      [&] { return p.server_rx.size() >= data.size(); }, 60 * kSecond);
  ASSERT_TRUE(done) << "got " << p.server_rx.size();
  EXPECT_EQ(p.server_rx, data);
  EXPECT_GT(p.client->retransmissions(), 0u);
}

// The receive fast path (in-order bytes straight to the application
// buffer) and the reorder path (parked in ooo_) must together deliver the
// exact stream. The link reorders, duplicates and drops 1 % of frames.
struct LossyTransfer {
  TcpPair p;
  Bytes data = make_pattern(4 * MiB, 21);
  std::vector<std::pair<std::size_t, bool>> chunks;  // (bytes, tainted)

  explicit LossyTransfer(sim::Faults f) {
    p.n.a.tcp().set_min_rto(5 * kMillisecond);
    p.n.b.tcp().set_min_rto(5 * kMillisecond);
    p.connect();
    p.server->on_data([this](ConstByteSpan d, bool tainted) {
      p.server_rx.insert(p.server_rx.end(), d.begin(), d.end());
      chunks.emplace_back(d.size(), tainted);
    });
    f.reorder_rate = 0.05;
    f.reorder_delay = 30 * kMicrosecond;
    f.dup_rate = 0.02;
    p.n.topo.host_uplink(0).set_faults(std::move(f));
  }

  bool run() {
    std::size_t sent = 0;
    std::function<void()> pump = [&] {
      while (sent < data.size()) {
        const std::size_t nn = p.client->send(ConstByteSpan{data}.subspan(sent));
        if (nn == 0) break;
        sent += nn;
      }
    };
    p.client->on_writable(pump);
    pump();
    return p.n.topo.sim().run_while_pending(
        [&] { return p.server_rx.size() >= data.size(); }, 120 * kSecond);
  }
};

TEST(Tcp, LossyReorderedDuplicatedTransferIsExact) {
  LossyTransfer t(sim::Faults::bernoulli(0.01));
  ASSERT_TRUE(t.run()) << "got " << t.p.server_rx.size();
  EXPECT_EQ(t.p.server_rx, t.data);
  EXPECT_GT(t.p.client->retransmissions(), 0u);
  for (const auto& [bytes, tainted] : t.chunks) EXPECT_FALSE(tainted);
}

// With checksum validation off, damaged segments reach the application,
// and every damaged byte arrives in a chunk flagged tainted — whichever
// receive path (in order or reordered) carried it.
TEST(Tcp, TaintFollowsDamagedBytesThroughBothReceivePaths) {
  sim::Faults f = sim::Faults::bernoulli(0.01);
  std::vector<sim::CorruptTarget> targets;
  for (u64 frame = 100; frame <= 3000; frame += 97)
    targets.push_back({frame, 700, 0x5A});  // inside the TCP payload
  f.corruption = std::make_unique<sim::TargetedCorruption>(std::move(targets));
  LossyTransfer t(std::move(f));
  t.p.n.b.tcp().set_validate_checksum(false);
  ASSERT_TRUE(t.run()) << "got " << t.p.server_rx.size();
  ASSERT_EQ(t.p.server_rx.size(), t.data.size());

  std::size_t off = 0, damaged = 0, tainted_chunks = 0;
  for (const auto& [bytes, tainted] : t.chunks) {
    tainted_chunks += tainted ? 1 : 0;
    for (std::size_t i = off; i < off + bytes; ++i) {
      if (t.p.server_rx[i] == t.data[i]) continue;
      ++damaged;
      ASSERT_TRUE(tainted) << "damaged byte " << i << " arrived untainted";
    }
    off += bytes;
  }
  EXPECT_GT(damaged, 0u);
  EXPECT_GT(tainted_chunks, 0u);
}

TEST(Tcp, GracefulCloseReachesPeer) {
  TcpPair p;
  p.connect();
  bool server_saw_close = false;
  p.server->on_close([&] { server_saw_close = true; });
  const Bytes tail = bytes_of("bye");
  (void)p.client->send(ConstByteSpan{tail});
  p.client->close();
  p.n.topo.sim().run_while_pending([&] { return server_saw_close; },
                                   kSecond);
  EXPECT_TRUE(server_saw_close);
  EXPECT_EQ(p.server_rx, tail);  // data before FIN all delivered
}

TEST(Tcp, AbortSendsRst) {
  TcpPair p;
  p.connect();
  bool server_saw_close = false;
  p.server->on_close([&] { server_saw_close = true; });
  p.client->abort();
  p.n.topo.sim().run_while_pending([&] { return server_saw_close; },
                                   kSecond);
  EXPECT_TRUE(server_saw_close);
}

TEST(Tcp, NagleCoalescesWithoutNodelay) {
  TcpPair p;
  p.connect();
  // Default: Nagle on. Two small writes while unacked data is in flight
  // should produce fewer segments than writes.
  for (int i = 0; i < 10; ++i) {
    Bytes tiny(10, static_cast<u8>(i));
    (void)p.client->send(ConstByteSpan{tiny});
  }
  p.n.topo.sim().run_while_pending(
      [&] { return p.server_rx.size() >= 100; }, kSecond);
  EXPECT_EQ(p.server_rx.size(), 100u);
  EXPECT_LT(p.client->segments_sent(), 12u);  // far fewer than 10 data segs
}

TEST(Tcp, SendBufferBackpressure) {
  TcpPair p;
  p.connect();
  Bytes chunk(64 * 1024, 1);
  std::size_t accepted = 0;
  // Keep pushing synchronously; the buffer (256 KB) must cap acceptance.
  for (int i = 0; i < 32; ++i)
    accepted += p.client->send(ConstByteSpan{chunk});
  EXPECT_LE(accepted, 256u * 1024);
  EXPECT_GT(accepted, 0u);
}

TEST(Tcp, ConnectionCountTracksLifecycle) {
  TcpPair p;
  p.connect();
  EXPECT_EQ(p.n.a.tcp().connection_count(), 1u);
  EXPECT_EQ(p.n.b.tcp().connection_count(), 1u);
  p.client->close();
  p.server->close();
  p.n.topo.sim().run();
  EXPECT_EQ(p.n.a.tcp().connection_count(), 0u);
  EXPECT_EQ(p.n.b.tcp().connection_count(), 0u);
}

TEST(Ip, ReassemblyTimeoutExpiresPartials) {
  Net n;
  n.topo.host_uplink(0).set_faults([] {
    sim::Faults f;
    f.loss = std::make_unique<sim::TargetedLoss>(std::vector<u64>{1});
    return f;
  }());
  auto* sa = *n.a.udp().open(0);
  auto* sb = *n.b.udp().open(700);
  (void)sb;
  Bytes big = make_pattern(5000, 1);
  (void)sa->send_to({n.b.addr(), 700}, ConstByteSpan{big});
  n.topo.sim().run();  // includes the reassembly-timeout event
  EXPECT_EQ(n.b.ip().reassembly_expired(), 1u);
}

}  // namespace
}  // namespace dgiwarp
