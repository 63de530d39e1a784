// User-space TCP over the IpLayer.
//
// This is the reliable stream LLP under RC (connection-based) iWARP: 3-way
// handshake, MSS segmentation, cumulative ACKs, RTT estimation with RTO
// retransmission, fast retransmit on 3 duplicate ACKs, slow start/AIMD
// congestion control and receiver flow control. It is deliberately a real
// protocol implementation, not a shortcut through shared memory — the RC
// baseline must pay genuine per-segment and ACK processing costs, and must
// survive lossy links in tests.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "hoststack/ip.hpp"

namespace dgiwarp::host {

class TcpLayer;

class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  using Ptr = std::shared_ptr<TcpSocket>;
  using ConnectHandler = std::function<void(Status)>;
  /// (in-order stream chunk, corruption taint). `tainted` is true if any
  /// segment contributing to the chunk rode a corrupted frame — the
  /// simulator's measurement oracle (see IpLayer::ProtocolHandler); it can
  /// only be true when checksum validation is off or a checksum collided.
  using DataHandler = std::function<void(ConstByteSpan, bool tainted)>;
  using CloseHandler = std::function<void()>;
  using WritableHandler = std::function<void()>;

  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kClosing,
  };

  ~TcpSocket();

  State state() const { return state_; }
  Endpoint local() const { return local_; }
  Endpoint remote() const { return remote_; }
  bool established() const { return state_ == State::kEstablished; }

  /// Invoked once the handshake completes (client side) or fails.
  void on_connect(ConnectHandler h) { on_connect_ = std::move(h); }
  /// Invoked with each in-order chunk of received stream data. Runs after
  /// kernel receive costs are charged.
  void on_data(DataHandler h) { on_data_ = std::move(h); }
  /// Invoked when the peer closes (EOF after all data) or on reset.
  void on_close(CloseHandler h) { on_close_ = std::move(h); }
  /// Invoked when send-buffer space frees up after send() returned short.
  void on_writable(WritableHandler h) { on_writable_ = std::move(h); }

  /// Append bytes to the send stream. Returns the number of bytes accepted
  /// (bounded by the send buffer); 0 means try again after on_writable.
  std::size_t send(ConstByteSpan data);

  std::size_t send_buffer_space() const;

  /// TCP_NODELAY: when false (default), Nagle's algorithm holds sub-MSS
  /// segments while data is in flight. iWARP sets nodelay (sub-MSS FPDUs
  /// like RDMA-Write notifications must not wait an RTT).
  void set_nodelay(bool v) { nodelay_ = v; }

  /// Graceful close: FIN is sent after buffered data drains.
  void close();
  /// Abortive close: RST now.
  void abort();

  /// Associate a message-lifecycle span (telemetry/span.hpp) with send-
  /// direction stream bytes ending at `stream_off_end`, where offsets count
  /// bytes from the first sequence after the SYN (seq - (iss_+1)). The RC
  /// QP tags ranges as it enqueues framed FPDUs, because its drain into
  /// send() is deferred and the ambient HostCtx::active_span is gone by
  /// then; send_segment() looks the span up per segment so the frames it
  /// emits carry it. Entries retire as ACKs advance. Observational only —
  /// never consulted by protocol logic.
  void tag_tx_span(u64 stream_off_end, u64 span) {
    if (span) tx_span_tags_[stream_off_end] = span;
  }

  // Introspection for tests and benches.
  u64 segments_sent() const { return seg_tx_; }
  u64 segments_received() const { return seg_rx_; }
  u64 retransmissions() const { return retx_; }
  u64 bytes_delivered() const { return delivered_bytes_; }
  double cwnd_bytes() const { return cwnd_; }

 private:
  friend class TcpLayer;
  struct SegmentView;  // parsed wire segment

  TcpSocket(TcpLayer& layer, Endpoint local, Endpoint remote);

  void start_connect();
  void enter_established();
  void on_segment(const SegmentView& seg, bool tainted);
  void handle_ack(const SegmentView& seg);
  void handle_data(const SegmentView& seg, bool tainted);
  void deliver_in_order();
  void queue_for_app(ConstByteSpan bytes);
  void wake_app(bool chunk_tainted, u64 chunk_span);
  void try_send();
  void send_segment(u64 seq, ConstByteSpan payload, u8 flags, bool retx);
  void send_ack();
  void arm_retransmit_timer();
  void on_retransmit_timeout(u64 generation);
  void retransmit_head();
  void update_rtt(TimeNs sample);
  std::size_t flight_size() const;
  ConstByteSpan unacked() const {
    return ConstByteSpan{snd_buf_}.subspan(snd_head_);
  }
  void to_state(State s);
  void notify_close();
  void destroy();

  TcpLayer& layer_;
  Endpoint local_;
  Endpoint remote_;
  State state_ = State::kClosed;

  // Send side. snd_buf_[snd_head_] corresponds to sequence snd_una_; the
  // bytes before it are acknowledged and await compaction (see send()).
  Bytes snd_buf_;
  std::size_t snd_head_ = 0;
  std::size_t snd_buf_limit_ = 256 * 1024;
  u64 iss_ = 0;       // initial send sequence
  u64 snd_una_ = 0;   // oldest unacknowledged
  u64 snd_nxt_ = 0;   // next sequence to send
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool nodelay_ = false;

  // Receive side.
  struct OooSeg {
    Bytes data;
    bool tainted = false;
    u64 span = 0;  // lifecycle span from the carrying frame
  };
  u64 irs_ = 0;       // initial receive sequence
  u64 rcv_nxt_ = 0;   // next expected
  std::map<u64, OooSeg> ooo_;  // out-of-order segments keyed by seq
  std::size_t ooo_bytes_ = 0;
  std::size_t rcv_buf_limit_ = 256 * 1024;
  Bytes rx_app_buf_;                   // in-order data awaiting app wakeup
  bool rx_app_tainted_ = false;        // taint pending with rx_app_buf_
  u64 rx_app_span_ = 0;                // span pending with rx_app_buf_
  bool rx_delivery_scheduled_ = false;
  // Send-direction span tags: stream offset end -> span (see tag_tx_span).
  std::map<u64, u64> tx_span_tags_;
  bool fin_received_ = false;
  u64 fin_seq_ = 0;

  // Congestion control / RTT.
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;
  u64 peer_wnd_ = 65'535;
  int dup_acks_ = 0;
  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  TimeNs rto_ = 200 * kMicrosecond;
  u64 rtt_seq_ = 0;       // sequence whose ACK provides the next RTT sample
  TimeNs rtt_sent_at_ = 0;
  bool rtt_pending_ = false;
  u64 timer_generation_ = 0;
  bool timer_armed_ = false;
  int rto_failures_ = 0;  // consecutive RTOs without an ACK advancing snd_una_

  // Handlers.
  ConnectHandler on_connect_;
  DataHandler on_data_;
  CloseHandler on_close_;
  WritableHandler on_writable_;
  bool close_notified_ = false;

  // Stats (mirrored into the Simulation's registry, hoststack.tcp.*).
  telemetry::Metric seg_tx_;
  telemetry::Metric seg_rx_;
  telemetry::Metric retx_;
  telemetry::Metric delivered_bytes_;
  telemetry::LazyGauge cwnd_gauge_{"hoststack.tcp.cwnd_bytes"};

  MemCharge mem_;
};

class TcpLayer {
 public:
  using AcceptHandler = std::function<void(TcpSocket::Ptr)>;

  TcpLayer(HostCtx& ctx, IpLayer& ip);

  /// Active open to `dst`; the returned socket completes via on_connect.
  Result<TcpSocket::Ptr> connect(Endpoint dst);

  /// Passive open: accepted sockets are handed to `on_accept` once their
  /// handshake completes.
  Status listen(u16 port, AcceptHandler on_accept);
  void stop_listening(u16 port);

  HostCtx& ctx() { return ctx_; }
  IpLayer& ip() { return ip_; }

  std::size_t connection_count() const { return conns_.size(); }

  /// Minimum retransmission timeout. Defaults to Linux's 200 ms — do not
  /// lower it casually: the effective RTT under load includes receiver-CPU
  /// queueing delay, and an RTO below that triggers a spurious-retransmit
  /// collapse. Loss-injection tests may lower it to shorten recovery.
  void set_min_rto(TimeNs t) { min_rto_ = t; }
  TimeNs min_rto() const { return min_rto_; }

  /// Segment checksum validation (on by default; the checksum itself is
  /// always generated). Tests that want corrupted bytes to reach the MPA
  /// CRC — the paper's ablation — turn this off.
  void set_validate_checksum(bool v) { validate_checksum_ = v; }
  bool validate_checksum() const { return validate_checksum_; }

  u64 checksum_drops() const { return checksum_drops_; }
  u64 parse_rejects() const { return parse_rejects_; }

 private:
  friend class TcpSocket;
  struct ConnKey {
    u16 local_port;
    Endpoint remote;
    friend bool operator<(const ConnKey& a, const ConnKey& b) {
      return std::tie(a.local_port, a.remote) <
             std::tie(b.local_port, b.remote);
    }
  };

  void on_datagram(u32 src_ip, Bytes dgram, bool tainted);
  void register_conn(const TcpSocket::Ptr& sock);
  void unregister_conn(TcpSocket* sock);
  u16 alloc_ephemeral();

  HostCtx& ctx_;
  IpLayer& ip_;
  std::map<ConnKey, TcpSocket::Ptr> conns_;
  std::map<u16, AcceptHandler> listeners_;
  u16 next_ephemeral_ = 49'152;
  TimeNs min_rto_ = 200 * kMillisecond;  // Linux default
  bool validate_checksum_ = true;
  telemetry::Metric checksum_drops_;
  telemetry::Metric parse_rejects_;
};

}  // namespace dgiwarp::host
