// RC (reliable connected) queue pair — the standard TCP-based iWARP
// baseline the paper compares against.
//
// Data path: verbs -> RDMAP -> DDP segments (MULPDU-sized) -> MPA FPDUs
// with markers + CRC -> TCP stream. All the costs datagram-iWARP avoids
// live here: marker insertion/removal, per-FPDU CRC, TCP segment and ACK
// processing, per-connection state.
#pragma once

#include <deque>
#include <optional>

#include "ddp/reassembly.hpp"
#include "ddp/segmenter.hpp"
#include "rdmap/message.hpp"
#include "rdmap/terminate.hpp"
#include "rdmap/write_record.hpp"
#include "verbs/device.hpp"

namespace dgiwarp::verbs {

/// Per-QP counters, also aggregated into the Simulation registry (verbs.rc.*).
struct RcQpStats {
  telemetry::Metric segments_tx;
  telemetry::Metric segments_rx;
  telemetry::Metric fpdu_crc_failures;
  telemetry::Metric crc_escapes;   // corrupted ULPDUs accepted (taint oracle)
  telemetry::Metric parse_rejects; // malformed DDP segments off the stream
  telemetry::Metric terminates_rx;
};

class RcQueuePair final : public QueuePair,
                          public std::enable_shared_from_this<RcQueuePair> {
 public:
  using EstablishedHandler = std::function<void(Status)>;

  ~RcQueuePair() override;

  /// Completion of the TCP connect + MPA handshake (active side), or of
  /// the MPA handshake (passive side, usually already done when the accept
  /// callback delivers the QP).
  void on_established(EstablishedHandler h);

  /// kSend / kSendSE / kRdmaWrite / kRdmaRead / kWriteRecord.
  Status post_send(const SendWr& wr) override;

  bool connected() const { return state_ == QpState::kRts; }
  host::Endpoint remote_ep() const;
  const RcQpStats& stats() const { return stats_; }

  /// Orderly shutdown: close the LLP stream; the QP enters Error once the
  /// peer's side drains (reliable teardown, unlike UD).
  void disconnect();

 private:
  friend class Device;
  RcQueuePair(Device& dev, const RcQpAttr& attr);

  void start_active(host::Endpoint remote);
  void start_passive(host::TcpSocket::Ptr sock,
                     std::function<void(std::shared_ptr<RcQueuePair>)> ready);
  void attach_socket(host::TcpSocket::Ptr sock);
  void on_tcp_data(ConstByteSpan stream, bool tainted);
  void on_handshake_complete();
  void on_ulpdu(ConstByteSpan ulpdu, bool tainted);
  void handle_untagged(const ddp::ParsedSegment& seg, rdmap::Opcode op);
  void handle_tagged(const ddp::ParsedSegment& seg, rdmap::Opcode op);
  void respond_read(const ddp::ParsedSegment& seg);
  void send_terminate(rdmap::TermError err, u32 context);
  void fatal(const Status& why);

  /// Frame + queue one DDP segment for transmission; `completes_wr` marks
  /// the final segment of a message.
  struct TxCompletion {
    u64 wr_id = 0;
    WcOpcode op = WcOpcode::kSend;
    std::size_t bytes = 0;
    bool signaled = true;
    TimeNs posted_at = 0;  // for the verbs.wr.tx_latency_us histogram
  };
  void enqueue_segment(const ddp::SegmentHeader& h, ConstByteSpan payload,
                       std::optional<TxCompletion> completes_wr);
  void drain_tx();

  host::TcpSocket::Ptr sock_;
  mpa::MpaSender mpa_tx_;
  mpa::MpaReceiver mpa_rx_;
  bool handshake_done_ = false;
  bool active_ = false;
  Bytes handshake_buf_;
  EstablishedHandler on_established_;
  std::function<void(std::shared_ptr<RcQueuePair>)> accept_ready_;

  // Rolling tx stream: framed FPDUs are appended contiguously and written
  // to the socket in large spans (the software stack batches FPDUs per
  // write, like writev). Completion marks fire when the socket accepts all
  // bytes up to their absolute stream offset.
  Bytes txbuf_;
  std::size_t tx_head_ = 0;       // first unsent byte within txbuf_
  u64 tx_accepted_abs_ = 0;       // absolute stream bytes accepted by TCP
  u64 tx_total_abs_ = 0;          // absolute stream bytes ever enqueued
  std::deque<std::pair<u64, TxCompletion>> tx_marks_;
  bool drain_scheduled_ = false;

  // Untagged receive stream state (single peer, in-order).
  struct ActiveRecv {
    RecvWr wr;
    u32 msn = 0;
    std::size_t received = 0;
    u32 msg_len = 0;
    bool solicited = false;
  };
  std::optional<ActiveRecv> active_recv_;
  u32 tx_msn_ = 0;
  /// Passive QPs keep themselves alive until the MPA handshake hands them
  /// to the application (socket callbacks hold only weak references).
  std::shared_ptr<RcQueuePair> self_hold_;

  // Outstanding RDMA Reads keyed by read id (carried in response MSN).
  struct PendingRead {
    u64 wr_id = 0;
    u32 sink_stag = 0;
    u64 sink_to = 0;
    u32 remaining = 0;
    bool signaled = true;
  };
  std::map<u32, PendingRead> pending_reads_;
  u32 next_read_id_ = 1;

  // Write-Record over a reliable transport (paper: "also valid for a
  // reliable transport").
  rdmap::WriteRecordLog wr_log_;

  RcQpStats stats_;
  telemetry::LazyHistogram tx_latency_hist_{"verbs.wr.tx_latency_us"};
};

}  // namespace dgiwarp::verbs
