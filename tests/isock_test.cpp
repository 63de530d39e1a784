// iWARP socket interface tests: datagram sockets over send/recv and
// Write-Record data paths, stream sockets, native passthrough, and the
// advert handshake.
#include <gtest/gtest.h>

#include "isock/isock.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp {
namespace {

using isock::ISockConfig;
using isock::ISockStack;
using isock::SockType;
using isock::XferMode;

struct Rig {
  explicit Rig(ISockConfig cfg = {})
      : a(topo, "a"), b(topo, "b"), dev_a(a), dev_b(b),
        io_a(dev_a, cfg), io_b(dev_b, cfg) {}
  sim::Topology topo;
  host::Host a, b;
  verbs::Device dev_a, dev_b;
  ISockStack io_a, io_b;
};

TEST(ISock, DatagramSendRecvRoundtrip) {
  Rig r;
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());

  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  Bytes msg = make_pattern(900, 5);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);

  auto got = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
  EXPECT_EQ(got->first.ip, r.a.addr());

  // Reply to the sender's source address.
  Bytes reply = bytes_of("pong");
  ASSERT_TRUE(r.io_b.sendto(sfd, got->first, ConstByteSpan{reply}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  auto back = r.io_a.recvfrom(cfd);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->second, reply);
}

TEST(ISock, DatagramWriteRecordPathDeliversData) {
  ISockConfig cfg;
  cfg.ud_mode = XferMode::kWriteRecord;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  // First send triggers HELLO/ADVERT then flushes via Write-Record.
  Bytes m1 = make_pattern(1200, 1);
  Bytes m2 = make_pattern(2200, 2);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m1}).ok());
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m2}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 20 * kMillisecond);

  auto g1 = r.io_b.recvfrom(sfd);
  auto g2 = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(g1.has_value());
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g1->second, m1);
  EXPECT_EQ(g2->second, m2);
}

TEST(ISock, WriteRecordManyMessagesRotateSlots) {
  ISockConfig cfg;
  cfg.ud_mode = XferMode::kWriteRecord;
  cfg.pool_slots = 4;
  cfg.slot_bytes = 4096;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  int received = 0;
  r.io_b.set_datagram_handler(sfd, [&](host::Endpoint, ConstByteSpan d) {
    EXPECT_EQ(d.size(), 512u);
    ++received;
  });
  for (int i = 0; i < 12; ++i) {
    Bytes m = make_pattern(512, static_cast<u32>(i));
    ASSERT_TRUE(
        r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m}).ok());
    r.topo.sim().run_until(r.topo.sim().now() + 2 * kMillisecond);
  }
  EXPECT_EQ(received, 12);
}

TEST(ISock, NativePassthroughMatchesInterface) {
  ISockConfig cfg;
  cfg.use_iwarp = false;
  Rig r(cfg);
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());

  Bytes msg = make_pattern(1400, 9);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 5 * kMillisecond);
  auto got = r.io_b.recvfrom(sfd);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, msg);
}

TEST(ISock, StreamConnectSendReceive) {
  Rig r;
  auto lfd = *r.io_b.socket(SockType::kStream);
  ASSERT_TRUE(r.io_b.bind(lfd, 8080).ok());
  int server_conn = -1;
  Bytes server_got;
  ASSERT_TRUE(r.io_b
                  .listen(lfd,
                          [&](int fd) {
                            server_conn = fd;
                            r.io_b.set_stream_handler(
                                fd, [&](ConstByteSpan d) {
                                  server_got.insert(server_got.end(),
                                                    d.begin(), d.end());
                                });
                          })
                  .ok());

  auto cfd = *r.io_a.socket(SockType::kStream);
  bool connected = false;
  ASSERT_TRUE(r.io_a
                  .connect(cfd, r.b.endpoint(8080),
                           [&](Status st) { connected = st.ok(); })
                  .ok());
  r.topo.sim().run_while_pending([&] { return connected; }, kSecond);
  ASSERT_TRUE(connected);

  Bytes msg = make_pattern(20'000, 7);
  EXPECT_EQ(r.io_a.send(cfd, ConstByteSpan{msg}), msg.size());
  r.topo.sim().run_while_pending([&] { return server_got.size() >= msg.size(); },
                                 kSecond);
  EXPECT_EQ(server_got, msg);
  ASSERT_GE(server_conn, 0);

  // Echo back over the accepted connection.
  Bytes reply = make_pattern(5'000, 8);
  Bytes client_got;
  r.io_a.set_stream_handler(cfd, [&](ConstByteSpan d) {
    client_got.insert(client_got.end(), d.begin(), d.end());
  });
  EXPECT_EQ(r.io_b.send(server_conn, ConstByteSpan{reply}), reply.size());
  r.topo.sim().run_while_pending(
      [&] { return client_got.size() >= reply.size(); }, kSecond);
  EXPECT_EQ(client_got, reply);
}

TEST(ISock, DatagramHandlerPushDelivery) {
  Rig r;
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  int count = 0;
  std::size_t bytes = 0;
  r.io_b.set_datagram_handler(sfd, [&](host::Endpoint, ConstByteSpan d) {
    ++count;
    bytes += d.size();
  });
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());
  for (int i = 0; i < 5; ++i) {
    Bytes m = make_pattern(100 + static_cast<std::size_t>(i), 3);
    ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{m}).ok());
  }
  r.topo.sim().run_until(r.topo.sim().now() + 10 * kMillisecond);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(bytes, 100u + 101 + 102 + 103 + 104);
}

TEST(ISock, StatsTrackTraffic) {
  Rig r;
  auto sfd = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(sfd, 9000).ok());
  auto cfd = *r.io_a.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_a.bind(cfd, 0).ok());
  Bytes msg(256, 1);
  ASSERT_TRUE(r.io_a.sendto(cfd, r.b.endpoint(9000), ConstByteSpan{msg}).ok());
  r.topo.sim().run_until(r.topo.sim().now() + 5 * kMillisecond);
  (void)r.io_b.recvfrom(sfd);
  auto tx_stats = r.io_a.stats(cfd);
  ASSERT_TRUE(tx_stats.ok());
  EXPECT_EQ((*tx_stats)->datagrams_tx, 1u);
  EXPECT_EQ((*tx_stats)->bytes_tx, 256u);
  auto rx_stats = r.io_b.stats(sfd);
  ASSERT_TRUE(rx_stats.ok());
  EXPECT_EQ((*rx_stats)->datagrams_rx, 1u);
  // Unknown fds now fail loudly instead of returning a zero sentinel.
  EXPECT_FALSE(r.io_a.stats(9999).ok());
}

TEST(ISock, CloseReleasesPort) {
  Rig r;
  auto fd1 = *r.io_b.socket(SockType::kDatagram);
  ASSERT_TRUE(r.io_b.bind(fd1, 9000).ok());
  ASSERT_TRUE(r.io_b.close(fd1).ok());
  auto fd2 = *r.io_b.socket(SockType::kDatagram);
  EXPECT_TRUE(r.io_b.bind(fd2, 9000).ok());
}

}  // namespace
}  // namespace dgiwarp
