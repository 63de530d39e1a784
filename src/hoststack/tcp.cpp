#include "hoststack/tcp.hpp"

#include <algorithm>
#include <utility>

#include "common/checksum.hpp"
#include "common/log.hpp"

namespace dgiwarp::host {

namespace {

constexpr u8 kFlagSyn = 0x01;
constexpr u8 kFlagAck = 0x02;
constexpr u8 kFlagFin = 0x04;
constexpr u8 kFlagRst = 0x08;

constexpr TimeNs kMaxRto = 2 * kSecond;

// Consecutive RTOs with no forward progress before the connection is
// aborted (RST + close notification). Without a cap, a half-open socket —
// e.g. one conjured by a corrupted SYN whose peer never answers — would
// retransmit its SYN-ACK forever and the simulation would never quiesce.
// Mirrors Linux's split between tcp_synack_retries (handshake, short) and
// tcp_retries2 (established, long): an established flow must survive loss
// bursts far longer than a half-open embryo deserves to live.
constexpr int kMaxHandshakeRtoFailures = 8;
constexpr int kMaxRtoFailures = 30;

}  // namespace

/// Parsed view of one TCP segment (header fields + payload span).
struct TcpSocket::SegmentView {
  /// Byte offset of the checksum field within the serialized header:
  /// sp(2) dp(2) seq(8) ack(8) flags(1) rsv(1) wnd(4) = 26.
  static constexpr std::size_t kChecksumOffset = 26;

  u16 src_port = 0;
  u16 dst_port = 0;
  u64 seq = 0;
  u64 ack = 0;
  u8 flags = 0;
  u32 wnd = 0;
  u16 checksum = 0;
  ConstByteSpan payload;

  bool has(u8 f) const { return (flags & f) != 0; }
  bool pure_ack() const {
    return has(kFlagAck) && payload.empty() && !has(kFlagSyn) &&
           !has(kFlagFin) && !has(kFlagRst);
  }

  static void serialize(Bytes& out, u16 sp, u16 dp, u64 seq, u64 ack, u8 flags,
                        u32 wnd, ConstByteSpan payload) {
    const std::size_t base = out.size();
    WireWriter w(out);
    w.u16be(sp);
    w.u16be(dp);
    w.u64be(seq);
    w.u64be(ack);
    w.u8be(flags);
    w.u8be(0);  // reserved
    w.u32be(wnd);
    w.u16be(0);  // checksum placeholder
    w.u16be(static_cast<u16>(payload.size()));
    w.bytes(payload);
    // Checksum over the whole segment with the field zeroed, then patched
    // in place (computation itself is modelled as NIC offload: no CPU cost).
    const u16 sum = internet_checksum(
        ConstByteSpan{out}.subspan(base, out.size() - base));
    out[base + kChecksumOffset] = static_cast<u8>(sum >> 8);
    out[base + kChecksumOffset + 1] = static_cast<u8>(sum & 0xFF);
  }

  static Result<SegmentView> parse(ConstByteSpan dgram) {
    WireReader r(dgram);
    SegmentView s;
    s.src_port = r.u16be();
    s.dst_port = r.u16be();
    s.seq = r.u64be();
    s.ack = r.u64be();
    s.flags = r.u8be();
    r.u8be();
    s.wnd = r.u32be();
    s.checksum = r.u16be();
    const u16 len = r.u16be();
    if (!r.ok() || r.remaining() < len)
      return Status(Errc::kProtocolError, "short TCP segment");
    s.payload = r.bytes(len);
    return s;
  }
};

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpLayer& layer, Endpoint local, Endpoint remote)
    : layer_(layer),
      local_(local),
      remote_(remote),
      mem_(layer.ctx().ledger, "tcp.sock",
           static_cast<i64>(layer.ctx().costs.tcp_sock_bytes +
                            layer.ctx().costs.tcp_buf_bytes)) {
  cwnd_ = 10.0 * kTcpMss;  // IW10
  ssthresh_ = 1e12;
  rto_ = std::max<TimeNs>(layer_.min_rto(), 200 * kMicrosecond);
  iss_ = layer_.ctx().rng.next_u64() & 0x00FFFFFF;
  snd_una_ = snd_nxt_ = iss_;

  auto& reg = layer_.ctx().sim.telemetry();
  seg_tx_.bind(reg.counter("hoststack.tcp.segments_tx"));
  seg_rx_.bind(reg.counter("hoststack.tcp.segments_rx"));
  retx_.bind(reg.counter("hoststack.tcp.retransmits"));
  delivered_bytes_.bind(reg.counter("hoststack.tcp.bytes_delivered"));
}

TcpSocket::~TcpSocket() = default;

void TcpSocket::start_connect() {
  to_state(State::kSynSent);
  send_segment(iss_, {}, kFlagSyn, false);
  snd_nxt_ = iss_ + 1;
  arm_retransmit_timer();
}

void TcpSocket::enter_established() {
  to_state(State::kEstablished);
  if (on_connect_) on_connect_(Status::Ok());
}

std::size_t TcpSocket::send_buffer_space() const {
  const std::size_t queued = unacked().size();
  return snd_buf_limit_ > queued ? snd_buf_limit_ - queued : 0;
}

std::size_t TcpSocket::send(ConstByteSpan data) {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return 0;
  if (fin_queued_) return 0;
  const std::size_t n = std::min(data.size(), send_buffer_space());
  if (n == 0) return 0;

  HostCtx& c = layer_.ctx();
  c.cpu.charge_kernel(c.costs.tcp_send_fixed,
                      {telemetry::CostLayer::kTcp,
                       telemetry::CostActivity::kSyscall, 0});
  c.cpu.charge_kernel(static_cast<TimeNs>(c.costs.tcp_copy_ns_per_byte *
                                          static_cast<double>(n)),
                      {telemetry::CostLayer::kTcp,
                       telemetry::CostActivity::kCopy, n});
  // Acknowledged bytes are trimmed by advancing snd_head_; the dead prefix
  // is reclaimed here once it outgrows the live bytes, so each byte is
  // moved at most once on average.
  if (snd_head_ > 0 && snd_head_ >= snd_buf_.size() - snd_head_) {
    snd_buf_.erase(snd_buf_.begin(),
                   snd_buf_.begin() + static_cast<long>(snd_head_));
    snd_head_ = 0;
  }
  snd_buf_.insert(snd_buf_.end(), data.begin(), data.begin() + static_cast<long>(n));
  try_send();
  return n;
}

void TcpSocket::close() {
  switch (state_) {
    case State::kEstablished:
      fin_queued_ = true;
      to_state(State::kFinWait1);
      try_send();
      break;
    case State::kCloseWait:
      fin_queued_ = true;
      to_state(State::kLastAck);
      try_send();
      break;
    case State::kSynSent:
    case State::kSynRcvd:
      destroy();
      break;
    default:
      break;
  }
}

void TcpSocket::abort() {
  if (state_ == State::kClosed) return;
  Bytes dgram;
  SegmentView::serialize(dgram, local_.port, remote_.port, snd_nxt_, rcv_nxt_,
                         kFlagRst | kFlagAck, 0, {});
  layer_.ctx().cpu.charge_kernel(layer_.ctx().costs.tcp_ctl_tx,
                                 {telemetry::CostLayer::kTcp,
                                  telemetry::CostActivity::kControl, 0});
  (void)layer_.ip().send(kIpProtoTcp, remote_.ip, std::move(dgram));
  notify_close();
  destroy();
}

void TcpSocket::on_segment(const SegmentView& seg, bool tainted) {
  ++seg_rx_;
  HostCtx& c = layer_.ctx();
  c.cpu.charge_kernel(
      seg.pure_ack() ? c.costs.tcp_ack_rx : c.costs.tcp_segment_rx,
      {telemetry::CostLayer::kTcp,
       seg.pure_ack() ? telemetry::CostActivity::kAck
                      : telemetry::CostActivity::kSegment,
       seg.payload.size()});

  if (seg.has(kFlagRst)) {
    DGI_DEBUG("tcp", "RST received on :%u", local_.port);
    notify_close();
    destroy();
    return;
  }
  if (seg.has(kFlagAck)) peer_wnd_ = seg.wnd;

  switch (state_) {
    case State::kSynSent:
      if (seg.has(kFlagSyn) && seg.has(kFlagAck) && seg.ack == iss_ + 1) {
        irs_ = seg.seq;
        rcv_nxt_ = irs_ + 1;
        snd_una_ = seg.ack;
        timer_generation_++;  // cancel SYN timer
        timer_armed_ = false;
        send_ack();
        enter_established();
        try_send();
      }
      return;
    case State::kSynRcvd:
      if (seg.has(kFlagAck) && seg.ack == iss_ + 1) {
        snd_una_ = seg.ack;
        timer_generation_++;
        timer_armed_ = false;
        enter_established();
        // Fall through to regular processing for piggybacked data.
        handle_data(seg, tainted);
      }
      return;
    default:
      break;
  }

  if (seg.has(kFlagAck)) handle_ack(seg);
  handle_data(seg, tainted);
}

void TcpSocket::handle_ack(const SegmentView& seg) {
  const u64 data_base = iss_ + 1;
  if (seg.ack > snd_una_ && seg.ack <= snd_nxt_) {
    const u64 newly_acked = seg.ack - snd_una_;

    // RTT sample (Karn: only if the sampled sequence wasn't retransmitted;
    // we invalidate the pending sample on any retransmission).
    if (rtt_pending_ && seg.ack > rtt_seq_) {
      update_rtt(layer_.ctx().sim.now() - rtt_sent_at_);
      rtt_pending_ = false;
    }

    // Trim acked payload bytes from the send buffer (FIN/SYN occupy
    // sequence numbers but no buffer space).
    const u64 buf_seq = std::max(snd_una_, data_base);
    if (seg.ack > buf_seq && !unacked().empty()) {
      snd_head_ += std::min<u64>(seg.ack - buf_seq, unacked().size());
      if (snd_head_ == snd_buf_.size()) {
        snd_buf_.clear();
        snd_head_ = 0;
      }
    }
    snd_una_ = seg.ack;
    dup_acks_ = 0;
    rto_failures_ = 0;  // forward progress: reset the give-up clock

    // Retire span tags for fully acknowledged stream bytes.
    if (!tx_span_tags_.empty() && snd_una_ > iss_) {
      const u64 acked_off = snd_una_ - (iss_ + 1);
      auto tag = tx_span_tags_.begin();
      while (tag != tx_span_tags_.end() && tag->first <= acked_off)
        tag = tx_span_tags_.erase(tag);
    }

    // Congestion window growth.
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked);  // slow start
    } else {
      cwnd_ += static_cast<double>(kTcpMss) * static_cast<double>(kTcpMss) /
               cwnd_;  // congestion avoidance, per-ACK form
    }

    if (flight_size() > 0) {
      arm_retransmit_timer();
    } else {
      timer_generation_++;
      timer_armed_ = false;
      rto_ = std::max<TimeNs>(layer_.min_rto(),
                              srtt_ > 0 ? srtt_ + 4 * rttvar_ : rto_);
    }

    // Teardown progress.
    if (fin_sent_ && snd_una_ == snd_nxt_) {
      if (state_ == State::kFinWait1) to_state(State::kFinWait2);
      else if (state_ == State::kLastAck || state_ == State::kClosing) {
        notify_close();
        destroy();
        return;
      }
    }

    // Low-water mark: wake the writer only when a meaningful amount of
    // buffer space is available, so refills batch into large send() calls.
    if (on_writable_ && send_buffer_space() >= snd_buf_limit_ / 4)
      on_writable_();
    try_send();
  } else if (seg.ack == snd_una_ && flight_size() > 0 && seg.payload.empty() &&
             !seg.has(kFlagFin)) {
    if (++dup_acks_ == 3) {
      // Fast retransmit + simplified fast recovery.
      ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0,
                           2.0 * kTcpMss);
      cwnd_ = ssthresh_ + 3.0 * kTcpMss;
      retransmit_head();
    }
  }
}

void TcpSocket::handle_data(const SegmentView& seg, bool tainted) {
  if (seg.has(kFlagFin)) {
    fin_received_ = true;
    fin_seq_ = seg.seq + seg.payload.size();
  }
  if (!seg.payload.empty()) {
    u64 seq = seg.seq;
    ConstByteSpan payload = seg.payload;
    // Trim anything already received.
    if (seq < rcv_nxt_) {
      const u64 skip = rcv_nxt_ - seq;
      if (skip >= payload.size()) {
        send_ack();  // pure duplicate; re-ack
        return;
      }
      payload = payload.subspan(skip);
      seq = rcv_nxt_;
    }
    // Receive window check.
    if (seq + payload.size() > rcv_nxt_ + rcv_buf_limit_) {
      send_ack();
      return;
    }
    if (ooo_.empty() && seq == rcv_nxt_) {
      // In order with nothing parked: straight to the application buffer.
      rcv_nxt_ = seq + payload.size();
      queue_for_app(payload);
      wake_app(tainted, layer_.ctx().active_span);
    } else if (!ooo_.contains(seq)) {
      ooo_.emplace(seq, OooSeg{Bytes(payload.begin(), payload.end()), tainted,
                               layer_.ctx().active_span});
      ooo_bytes_ += payload.size();
    }
    deliver_in_order();
    send_ack();  // immediate ACK (also serves as dup-ACK for gaps)
  } else if (seg.has(kFlagFin)) {
    deliver_in_order();
    send_ack();
  }
}

// Queue in-order stream bytes for the application wakeup.
void TcpSocket::queue_for_app(ConstByteSpan bytes) {
  delivered_bytes_ += bytes.size();
  rx_app_buf_.insert(rx_app_buf_.end(), bytes.begin(), bytes.end());
}

void TcpSocket::wake_app(bool chunk_tainted, u64 chunk_span) {
  // Coalesced delivery: in-order data accumulates until the (already
  // scheduled) application wakeup fires; one wakeup drains everything
  // queued by then — like a real kernel, where a single recv() returns
  // all buffered stream data. The wakeup cost is therefore per-delivery,
  // not per-segment, and amortises away under streaming load.
  if (chunk_tainted) rx_app_tainted_ = true;
  // A coalesced chunk can close several messages; the last contributing
  // segment's span stands for the delivery (exact for ping-pong, an
  // approximation under pipelining — see DESIGN.md §7).
  if (chunk_span) rx_app_span_ = chunk_span;
  if (!rx_delivery_scheduled_) {
    rx_delivery_scheduled_ = true;
    HostCtx& c = layer_.ctx();
    auto self = shared_from_this();
    c.sim.after(c.costs.rx_wakeup_delay, [self] {
      self->rx_delivery_scheduled_ = false;
      Bytes data = std::move(self->rx_app_buf_);
      self->rx_app_buf_.clear();
      const bool tainted = self->rx_app_tainted_;
      self->rx_app_tainted_ = false;
      const u64 span = self->rx_app_span_;
      self->rx_app_span_ = 0;
      if (data.empty()) return;
      HostCtx& hc = self->layer_.ctx();
      hc.sim.telemetry().spans().stage(span, telemetry::Stage::kRxWakeup);
      hc.cpu.charge_kernel(hc.costs.tcp_deliver_fixed,
                           {telemetry::CostLayer::kTcp,
                            telemetry::CostActivity::kDeliver, 0});
      // The copy cost must be computed before the call: the lambda's
      // init-capture moves `data`, and argument evaluation order is
      // unspecified.
      const std::size_t nbytes = data.size();
      hc.cpu.charge_kernel_then(
          static_cast<TimeNs>(hc.costs.tcp_copy_ns_per_byte *
                              static_cast<double>(nbytes)),
          {telemetry::CostLayer::kTcp, telemetry::CostActivity::kCopy,
           nbytes},
          [self, tainted, span, data = std::move(data)] {
            HostCtx& hcc = self->layer_.ctx();
            hcc.sim.telemetry().spans().stage(
                span, telemetry::Stage::kRxDeliver, data.size());
            SpanScope scope(hcc, span);
            if (self->on_data_) self->on_data_(ConstByteSpan{data}, tainted);
          });
    });
  }
}

void TcpSocket::deliver_in_order() {
  std::size_t chunk_bytes = 0;
  bool chunk_tainted = false;
  u64 chunk_span = 0;
  while (true) {
    auto it = ooo_.begin();
    if (it == ooo_.end() || it->first > rcv_nxt_) break;
    const OooSeg seg = std::move(it->second);
    if (seg.span) chunk_span = seg.span;
    const u64 seq = it->first;
    ooo_.erase(it);
    ooo_bytes_ -= std::min<std::size_t>(ooo_bytes_, seg.data.size());
    std::size_t skip = 0;
    if (seq < rcv_nxt_) skip = rcv_nxt_ - seq;  // partial overlap
    if (skip >= seg.data.size()) continue;
    queue_for_app(ConstByteSpan{seg.data}.subspan(skip));
    chunk_bytes += seg.data.size() - skip;
    if (seg.tainted) chunk_tainted = true;
    rcv_nxt_ = seq + seg.data.size();
  }
  if (chunk_bytes > 0) wake_app(chunk_tainted, chunk_span);

  // Process FIN once all data before it has been consumed.
  if (fin_received_ && rcv_nxt_ == fin_seq_) {
    rcv_nxt_ = fin_seq_ + 1;
    fin_received_ = false;
    send_ack();
    switch (state_) {
      case State::kEstablished:
        to_state(State::kCloseWait);
        if (rx_delivery_scheduled_) {
          // Data is still queued for the app wakeup; EOF must follow it
          // through the same wakeup + kernel-charge path.
          auto self = shared_from_this();
          layer_.ctx().sim.after(
              layer_.ctx().costs.rx_wakeup_delay + 1, [self] {
                self->layer_.ctx().cpu.charge_kernel_then(
                    0, [self] { self->notify_close(); });
              });
        } else {
          notify_close();
        }
        break;
      case State::kFinWait1:
        to_state(fin_sent_ && snd_una_ == snd_nxt_ ? State::kClosed
                                                   : State::kClosing);
        if (state_ == State::kClosed) {
          notify_close();
          destroy();
        }
        break;
      case State::kFinWait2:
        notify_close();
        destroy();  // TIME_WAIT elided
        break;
      default:
        break;
    }
  }
}

void TcpSocket::try_send() {
  if (state_ == State::kClosed || state_ == State::kListen ||
      state_ == State::kSynSent || state_ == State::kSynRcvd)
    return;

  const u64 data_base = iss_ + 1;
  // Sequence of the first unsent byte is snd_nxt_; bytes available to send:
  const u64 acked_prefix = snd_una_ > data_base ? snd_una_ - data_base : 0;
  const u64 stream_end = data_base + acked_prefix + unacked().size();

  const u64 wnd = std::min<u64>(static_cast<u64>(cwnd_), peer_wnd_);
  while (snd_nxt_ < stream_end) {
    const u64 flight = snd_nxt_ - snd_una_;
    if (flight >= wnd) break;
    const std::size_t can_send = static_cast<std::size_t>(
        std::min<u64>({stream_end - snd_nxt_, kTcpMss, wnd - flight}));
    if (can_send == 0) break;
    // Nagle: hold a sub-MSS segment while earlier data is unacknowledged.
    if (!nodelay_ && can_send < kTcpMss && flight > 0 && !fin_queued_) break;
    const std::size_t buf_off =
        static_cast<std::size_t>(snd_nxt_ - data_base - acked_prefix);
    send_segment(snd_nxt_,
                 unacked().subspan(buf_off, can_send),
                 kFlagAck, false);
    if (!rtt_pending_) {
      rtt_pending_ = true;
      rtt_seq_ = snd_nxt_;
      rtt_sent_at_ = layer_.ctx().sim.now();
    }
    snd_nxt_ += can_send;
  }

  // FIN once the stream is fully transmitted.
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == stream_end) {
    send_segment(snd_nxt_, {}, kFlagFin | kFlagAck, false);
    snd_nxt_ += 1;
    fin_sent_ = true;
  }

  if (flight_size() > 0 && !timer_armed_) arm_retransmit_timer();
}

void TcpSocket::send_segment(u64 seq, ConstByteSpan payload, u8 flags,
                             bool retx) {
  HostCtx& c = layer_.ctx();
  c.cpu.charge_kernel(
      payload.empty() ? c.costs.tcp_ctl_tx : c.costs.tcp_segment_tx,
      {telemetry::CostLayer::kTcp,
       retx ? telemetry::CostActivity::kRetransmit
            : (payload.empty() ? telemetry::CostActivity::kControl
                               : telemetry::CostActivity::kSegment),
       payload.size()});
  const u32 wnd = static_cast<u32>(
      rcv_buf_limit_ > ooo_bytes_ ? rcv_buf_limit_ - ooo_bytes_ : 0);
  Bytes dgram;
  dgram.reserve(kTcpHeaderBytes + payload.size());
  SegmentView::serialize(dgram, local_.port, remote_.port, seq, rcv_nxt_,
                         flags, wnd, payload);
  ++seg_tx_;
  // Resolve the lifecycle span covering this segment's stream bytes (tagged
  // by the RC QP via tag_tx_span) and scope it so the IP frames carry it —
  // overriding whatever rx-side scope this call happens to run inside
  // (retransmit_head fires under the reverse direction's ACK scope).
  u64 span = 0;
  if (!tx_span_tags_.empty() && !payload.empty() && seq > iss_) {
    const auto tag = tx_span_tags_.upper_bound(seq - (iss_ + 1));
    if (tag != tx_span_tags_.end()) span = tag->second;
  }
  auto& reg = layer_.ctx().sim.telemetry();
  if (retx) {
    ++retx_;
    reg.trace().record(telemetry::TraceKind::kTcpRetransmit, seq,
                       payload.size());
    reg.spans().stage(span, telemetry::Stage::kRetransmit, seq,
                      payload.size());
    rtt_pending_ = false;  // Karn's algorithm
  } else {
    reg.spans().stage(span, telemetry::Stage::kTransportTx, seq,
                      payload.size());
  }
  cwnd_gauge_.get(reg).set(cwnd_);
  SpanScope scope(c, span);
  (void)layer_.ip().send(kIpProtoTcp, remote_.ip, std::move(dgram));
}

void TcpSocket::send_ack() {
  HostCtx& c = layer_.ctx();
  c.cpu.charge_kernel(c.costs.tcp_ctl_tx,
                      {telemetry::CostLayer::kTcp,
                       telemetry::CostActivity::kControl, 0});
  // Pure ACKs are transport control: they must not carry the span of the
  // data delivery they happen to run inside.
  SpanScope scope(c, 0);
  Bytes dgram;
  const u32 wnd = static_cast<u32>(
      rcv_buf_limit_ > ooo_bytes_ ? rcv_buf_limit_ - ooo_bytes_ : 0);
  SegmentView::serialize(dgram, local_.port, remote_.port, snd_nxt_, rcv_nxt_,
                         kFlagAck, wnd, {});
  (void)layer_.ip().send(kIpProtoTcp, remote_.ip, std::move(dgram));
}

void TcpSocket::arm_retransmit_timer() {
  timer_armed_ = true;
  const u64 gen = ++timer_generation_;
  auto self = shared_from_this();
  layer_.ctx().sim.at(layer_.ctx().sim.now() + rto_,
                      [self, gen] { self->on_retransmit_timeout(gen); });
}

void TcpSocket::on_retransmit_timeout(u64 generation) {
  if (generation != timer_generation_ || state_ == State::kClosed) return;
  timer_armed_ = false;
  if (flight_size() == 0) return;

  const bool handshake =
      state_ == State::kSynSent || state_ == State::kSynRcvd;
  const int max_failures =
      handshake ? kMaxHandshakeRtoFailures : kMaxRtoFailures;
  if (++rto_failures_ >= max_failures) {
    DGI_DEBUG("tcp", "RTO give-up on :%u after %d failures", local_.port,
              rto_failures_);
    if (on_connect_ && state_ == State::kSynSent)
      on_connect_(Status(Errc::kTimedOut, "tcp connect timed out"));
    abort();
    return;
  }

  // RTO: collapse the window and back off.
  ssthresh_ =
      std::max(static_cast<double>(flight_size()) / 2.0, 2.0 * kTcpMss);
  cwnd_ = 1.0 * kTcpMss;
  rto_ = std::min(rto_ * 2, kMaxRto);
  dup_acks_ = 0;
  retransmit_head();
  arm_retransmit_timer();
}

void TcpSocket::retransmit_head() {
  const u64 data_base = iss_ + 1;
  if (snd_una_ == iss_) {
    // SYN lost.
    send_segment(iss_, {}, kFlagSyn, true);
    return;
  }
  if (state_ == State::kSynRcvd) {
    send_segment(iss_, {}, kFlagSyn | kFlagAck, true);
    return;
  }
  const u64 acked_prefix = snd_una_ > data_base ? snd_una_ - data_base : 0;
  const u64 stream_end = data_base + acked_prefix + unacked().size();
  if (snd_una_ < stream_end && !unacked().empty()) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<u64>({stream_end - snd_una_, kTcpMss}));
    send_segment(snd_una_, unacked().subspan(0, n), kFlagAck,
                 true);
  } else if (fin_sent_ && snd_una_ == stream_end) {
    send_segment(snd_una_, {}, kFlagFin | kFlagAck, true);
  }
}

void TcpSocket::update_rtt(TimeNs sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const TimeNs err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::max<TimeNs>(layer_.min_rto(), srtt_ + 4 * rttvar_);
  rto_ = std::min(rto_, kMaxRto);
}

std::size_t TcpSocket::flight_size() const {
  return static_cast<std::size_t>(snd_nxt_ - snd_una_);
}

void TcpSocket::to_state(State s) { state_ = s; }

void TcpSocket::notify_close() {
  if (close_notified_) return;
  close_notified_ = true;
  if (on_close_) on_close_();
}

void TcpSocket::destroy() {
  to_state(State::kClosed);
  timer_generation_++;
  layer_.unregister_conn(this);
}

// ---------------------------------------------------------------------------
// TcpLayer
// ---------------------------------------------------------------------------

TcpLayer::TcpLayer(HostCtx& ctx, IpLayer& ip) : ctx_(ctx), ip_(ip) {
  ip_.register_protocol(kIpProtoTcp,
                        [this](u32 src_ip, Bytes dgram, bool tainted) {
                          on_datagram(src_ip, std::move(dgram), tainted);
                        });
  auto& reg = ctx_.sim.telemetry();
  checksum_drops_.bind(reg.counter("hoststack.tcp.checksum_drops"));
  parse_rejects_.bind(reg.counter("hoststack.tcp.parse_rejects"));
}

Result<TcpSocket::Ptr> TcpLayer::connect(Endpoint dst) {
  const u16 port = alloc_ephemeral();
  if (port == 0)
    return Status(Errc::kResourceExhausted, "no ephemeral TCP ports");
  auto sock = TcpSocket::Ptr(new TcpSocket(*this, Endpoint{ctx_.ip, port}, dst));
  register_conn(sock);
  sock->start_connect();
  return sock;
}

Status TcpLayer::listen(u16 port, AcceptHandler on_accept) {
  if (listeners_.contains(port))
    return Status(Errc::kInvalidArgument, "TCP port already listening");
  listeners_.emplace(port, std::move(on_accept));
  return Status::Ok();
}

void TcpLayer::stop_listening(u16 port) { listeners_.erase(port); }

void TcpLayer::on_datagram(u32 src_ip, Bytes dgram, bool tainted) {
  auto sr = TcpSocket::SegmentView::parse(ConstByteSpan{dgram});
  if (!sr.ok()) {
    ++parse_rejects_;
    return;
  }
  const TcpSocket::SegmentView& seg = *sr;

  if (validate_checksum_) {
    // Recompute over the datagram with the checksum field zeroed (we own
    // `dgram`; seg.payload points past the header, so this is safe).
    dgram[TcpSocket::SegmentView::kChecksumOffset] = 0;
    dgram[TcpSocket::SegmentView::kChecksumOffset + 1] = 0;
    if (internet_checksum(ConstByteSpan{dgram}) != seg.checksum) {
      // Silent drop, like a real stack: the sender's RTO/fast-retransmit
      // resends the damaged segment. No RST — the header itself may lie.
      ++checksum_drops_;
      DGI_DEBUG("tcp", "checksum mismatch on :%u; segment dropped",
                seg.dst_port);
      return;
    }
  }

  const ConnKey key{seg.dst_port, Endpoint{src_ip, seg.src_port}};
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    // Keep the socket alive across the handler even if it destroys itself.
    TcpSocket::Ptr sock = it->second;
    sock->on_segment(seg, tainted);
    return;
  }

  // No connection: maybe a SYN for a listener.
  auto lit = listeners_.find(seg.dst_port);
  if (lit != listeners_.end() && seg.has(kFlagSyn) && !seg.has(kFlagAck)) {
    auto sock = TcpSocket::Ptr(new TcpSocket(
        *this, Endpoint{ctx_.ip, seg.dst_port}, Endpoint{src_ip, seg.src_port}));
    sock->irs_ = seg.seq;
    sock->rcv_nxt_ = seg.seq + 1;
    sock->to_state(TcpSocket::State::kSynRcvd);
    register_conn(sock);
    // The accept handler runs now so the application can install handlers
    // before any data arrives.
    lit->second(sock);
    sock->send_segment(sock->iss_, {}, kFlagSyn | kFlagAck, false);
    sock->snd_nxt_ = sock->iss_ + 1;
    sock->arm_retransmit_timer();
    return;
  }

  // Stray segment: RST unless it is itself an RST.
  if (!seg.has(kFlagRst)) {
    ctx_.cpu.charge_kernel(ctx_.costs.tcp_ctl_tx,
                           {telemetry::CostLayer::kTcp,
                            telemetry::CostActivity::kControl, 0});
    Bytes rst;
    TcpSocket::SegmentView::serialize(rst, seg.dst_port, seg.src_port,
                                      seg.ack, seg.seq + seg.payload.size(),
                                      kFlagRst | kFlagAck, 0, {});
    (void)ip_.send(kIpProtoTcp, src_ip, std::move(rst));
  }
}

void TcpLayer::register_conn(const TcpSocket::Ptr& sock) {
  conns_[ConnKey{sock->local().port, sock->remote()}] = sock;
}

void TcpLayer::unregister_conn(TcpSocket* sock) {
  conns_.erase(ConnKey{sock->local().port, sock->remote()});
}

u16 TcpLayer::alloc_ephemeral() {
  for (int tries = 0; tries < 16'384; ++tries) {
    const u16 candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65'535 ? u16{49'152} : u16(next_ephemeral_ + 1);
    bool used = false;
    for (const auto& [key, _] : conns_) {
      if (key.local_port == candidate) {
        used = true;
        break;
      }
    }
    if (!used && !listeners_.contains(candidate)) return candidate;
  }
  return 0;
}

}  // namespace dgiwarp::host
