#include "perf/harness.hpp"

#include <algorithm>
#include <memory>

#include "hoststack/host.hpp"
#include "simnet/topology.hpp"
#include "telemetry/trace_export.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"

namespace dgiwarp::perf {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kUdSendRecv: return "UD Send/Recv";
    case Mode::kUdWriteRecord: return "UD RDMA Write-Record";
    case Mode::kRcSendRecv: return "RC Send/Recv";
    case Mode::kRcRdmaWrite: return "RC RDMA Write";
    case Mode::kRdSendRecv: return "RD Send/Recv";
    case Mode::kRdWriteRecord: return "RD RDMA Write-Record";
  }
  return "?";
}

bool is_rc(Mode m) {
  return m == Mode::kRcSendRecv || m == Mode::kRcRdmaWrite;
}

namespace {

bool is_write_record(Mode m) {
  return m == Mode::kUdWriteRecord || m == Mode::kRdWriteRecord;
}
bool is_rd(Mode m) {
  return m == Mode::kRdSendRecv || m == Mode::kRdWriteRecord;
}

/// Two hosts + devices + QPs wired for one mode, plus registered regions
/// for the tagged modes.
struct Rig {
  Rig(Mode mode, std::size_t msg_size, const Options& opts)
      : mode_(mode), opts_(opts), topo_(make_params(opts)) {
    a_ = std::make_unique<host::Host>(topo_, "sender");
    b_ = std::make_unique<host::Host>(topo_, "receiver");
    a_->tcp().set_validate_checksum(opts.tcp_checksum);
    b_->tcp().set_validate_checksum(opts.tcp_checksum);
    verbs::DeviceConfig dc;
    dc.mpa.use_markers = opts.mpa_markers;
    dc.mpa.use_crc = opts.mpa_crc;
    dc.ud_crc = opts.ud_crc;
    dc.ud_message_timeout = opts.ud_message_timeout;
    dc.max_ud_payload = opts.max_ud_payload;
    dc.rd = opts.rd;
    da_ = std::make_unique<verbs::Device>(*a_, dc);
    db_ = std::make_unique<verbs::Device>(*b_, dc);

    pda_ = &da_->create_pd();
    pdb_ = &db_->create_pd();
    scq_a_ = &da_->create_cq(1 << 16);
    rcq_a_ = &da_->create_cq(1 << 16);
    scq_b_ = &db_->create_cq(1 << 16);
    rcq_b_ = &db_->create_cq(1 << 16);

    src_a_ = make_pattern(msg_size, 0xA);
    src_b_ = make_pattern(msg_size, 0xB);
    region_a_.assign(std::max<std::size_t>(msg_size, 64), 0);
    region_b_.assign(std::max<std::size_t>(msg_size, 64), 0);

    if (is_rc(mode_)) {
      (void)db_->rc_listen(4791, {pdb_, scq_b_, rcq_b_},
                           [this](std::shared_ptr<verbs::RcQueuePair> qp) {
                             rb_ = std::move(qp);
                           });
      ra_ = *da_->rc_connect({pda_, scq_a_, rcq_a_}, b_->endpoint(4791));
      bool up = false;
      ra_->on_established([&](Status st) { up = st.ok(); });
      topo_.sim().run_while_pending([&] { return up && rb_ != nullptr; },
                                    kSecond);
      mra_ = pda_->register_memory(ByteSpan{region_a_},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
      mrb_ = pdb_->register_memory(ByteSpan{region_b_},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
    } else {
      ua_ = *da_->create_ud_qp({pda_, scq_a_, rcq_a_, 0, is_rd(mode_)});
      ub_ = *db_->create_ud_qp({pdb_, scq_b_, rcq_b_, 0, is_rd(mode_)});
      mra_ = pda_->register_memory(ByteSpan{region_a_},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
      mrb_ = pdb_->register_memory(ByteSpan{region_b_},
                                   verbs::kLocalWrite | verbs::kRemoteWrite);
    }
  }

  static sim::Topology::Params make_params(const Options& opts) {
    sim::Topology::Params p;
    p.seed = opts.seed;
    return p;
  }

  void enable_loss() {
    if (opts_.data_faults) {
      topo_.host_uplink(0).set_faults(opts_.data_faults());
    } else if (opts_.loss_rate > 0.0) {
      topo_.host_uplink(0).set_faults(sim::Faults::bernoulli(opts_.loss_rate));
    }
    if (opts_.ack_faults) topo_.host_uplink(1).set_faults(opts_.ack_faults());
  }

  sim::Simulation& sim() { return topo_.sim(); }

  /// Post a message from one side. `forward` = sender -> receiver.
  Status send(bool forward, std::size_t size, u64 wr_id) {
    verbs::SendWr wr;
    wr.wr_id = wr_id;
    const Bytes& src = forward ? src_a_ : src_b_;
    wr.local = ConstByteSpan{src.data(), size};
    switch (mode_) {
      case Mode::kUdSendRecv:
      case Mode::kRdSendRecv:
        wr.opcode = verbs::WrOpcode::kSend;
        wr.remote = forward
                        ? verbs::RemoteAddress{ub_->local_ep(), ub_->qpn()}
                        : verbs::RemoteAddress{ua_->local_ep(), ua_->qpn()};
        return (forward ? ua_ : ub_)->post_send(wr);
      case Mode::kUdWriteRecord:
      case Mode::kRdWriteRecord:
        wr.opcode = verbs::WrOpcode::kWriteRecord;
        wr.remote = forward
                        ? verbs::RemoteAddress{ub_->local_ep(), ub_->qpn()}
                        : verbs::RemoteAddress{ua_->local_ep(), ua_->qpn()};
        wr.remote_stag = forward ? mrb_.stag : mra_.stag;
        wr.remote_offset = 0;
        return (forward ? ua_ : ub_)->post_send(wr);
      case Mode::kRcSendRecv:
        wr.opcode = verbs::WrOpcode::kSend;
        return (forward ? ra_ : rb_)->post_send(wr);
      case Mode::kRcRdmaWrite: {
        // Figure 3: RDMA Write then a notifying Send.
        wr.opcode = verbs::WrOpcode::kRdmaWrite;
        wr.remote_stag = forward ? mrb_.stag : mra_.stag;
        wr.remote_offset = 0;
        wr.signaled = false;
        auto& qp = forward ? ra_ : rb_;
        if (Status st = qp->post_send(wr); !st.ok()) return st;
        verbs::SendWr notify;
        notify.wr_id = wr_id;
        notify.opcode = verbs::WrOpcode::kSend;
        notify.local = ConstByteSpan{notify_payload_};
        return qp->post_send(notify);
      }
    }
    return Status(Errc::kInvalidArgument);
  }

  /// Post a receive buffer sized for `size` on the given side, if the mode
  /// consumes receives.
  void post_recv(bool on_receiver, std::size_t size, u64 wr_id) {
    const bool needs_recv = !is_write_record(mode_);
    if (!needs_recv) return;
    const std::size_t n = mode_ == Mode::kRcRdmaWrite ? 64 : size;
    auto& pool = on_receiver ? recv_bufs_b_ : recv_bufs_a_;
    pool.push_back(Bytes(std::max<std::size_t>(n, 1), 0));
    verbs::RecvWr rw{wr_id, ByteSpan{pool.back()}};
    if (is_rc(mode_)) {
      (void)(on_receiver ? rb_ : ra_)->post_recv(rw);
    } else {
      (void)(on_receiver ? ub_ : ua_)->post_recv(rw);
    }
  }

  verbs::CompletionQueue& recv_cq(bool receiver) {
    return receiver ? *rcq_b_ : *rcq_a_;
  }
  verbs::CompletionQueue& send_cq(bool sender_side_a) {
    return sender_side_a ? *scq_a_ : *scq_b_;
  }

  Mode mode_;
  Options opts_;
  sim::Topology topo_;
  std::unique_ptr<host::Host> a_, b_;
  std::unique_ptr<verbs::Device> da_, db_;
  verbs::ProtectionDomain* pda_ = nullptr;
  verbs::ProtectionDomain* pdb_ = nullptr;
  verbs::CompletionQueue* scq_a_ = nullptr;
  verbs::CompletionQueue* rcq_a_ = nullptr;
  verbs::CompletionQueue* scq_b_ = nullptr;
  verbs::CompletionQueue* rcq_b_ = nullptr;
  std::shared_ptr<verbs::UdQueuePair> ua_, ub_;
  std::shared_ptr<verbs::RcQueuePair> ra_, rb_;
  Bytes src_a_, src_b_, region_a_, region_b_;
  Bytes notify_payload_ = Bytes(1, 0x55);
  std::deque<Bytes> recv_bufs_a_, recv_bufs_b_;
  verbs::MemoryRegion mra_, mrb_;
};

/// --trace-json support: turn on spans + profiler + trace ring for the
/// measurement Simulation, and fold everything into the caller's capture
/// once the run is over.
void enable_capture(Rig& rig, const Options& opts) {
  if (!opts.trace) return;
  auto& reg = rig.sim().telemetry();
  reg.spans().enable();
  reg.profiler().enable();
  reg.trace().enable();
}

void absorb_capture(Rig& rig, const Options& opts) {
  if (!opts.trace) return;
  opts.trace->absorb(rig.sim().telemetry(), {{rig.a_->addr(), "sender"},
                                             {rig.b_->addr(), "receiver"}});
}

}  // namespace

LatencyResult measure_latency(Mode mode, std::size_t msg_size, int iterations,
                              const Options& opts) {
  Rig rig(mode, msg_size, opts);
  enable_capture(rig, opts);
  rig.enable_loss();

  const int warmup = 2;
  double total_rtt_us = 0.0;
  int measured = 0;
  u64 wr_id = 1;

  for (int i = 0; i < iterations + warmup; ++i) {
    rig.post_recv(true, msg_size, wr_id);
    rig.post_recv(false, msg_size, wr_id);

    const TimeNs t0 = rig.sim().now();
    if (!rig.send(true, msg_size, wr_id).ok()) break;
    auto at_b = rig.recv_cq(true).wait(kSecond);
    if (!at_b || !at_b->status.ok()) continue;  // lost under loss injection
    if (!rig.send(false, msg_size, wr_id).ok()) break;
    auto at_a = rig.recv_cq(false).wait(kSecond);
    if (!at_a || !at_a->status.ok()) continue;
    const TimeNs rtt = rig.sim().now() - t0;
    if (i >= warmup) {
      total_rtt_us += to_us(rtt) / 2.0;
      ++measured;
    }
    ++wr_id;
  }

  LatencyResult r;
  r.iterations = measured;
  r.half_rtt_us = measured > 0 ? total_rtt_us / measured : 0.0;
  if (opts.metrics) opts.metrics->merge_from(rig.sim().telemetry());
  absorb_capture(rig, opts);
  return r;
}

BandwidthResult measure_bandwidth(Mode mode, std::size_t msg_size,
                                  std::size_t messages, const Options& opts) {
  Rig rig(mode, msg_size, opts);
  enable_capture(rig, opts);

  // Warm the path (TCP slow start, switch learning) with two messages
  // before loss injection and measurement begin.
  for (u64 w = 0; w < 2; ++w) {
    rig.post_recv(true, msg_size, 1'000'000 + w);
    (void)rig.send(true, msg_size, 1'000'000 + w);
    (void)rig.recv_cq(true).wait(kSecond);
  }
  while (rig.recv_cq(true).poll().has_value()) {
  }
  rig.enable_loss();

  // Pre-post all receive buffers (send/recv modes).
  for (u64 i = 0; i < messages; ++i) rig.post_recv(true, msg_size, i);

  // Post with a bounded queue depth, like a real bandwidth benchmark: a
  // new message is posted as each send completion arrives. (Posting all
  // messages in zero virtual time would charge the whole tx-side CPU
  // budget up front and starve ACK processing behind it.)
  constexpr u64 kQueueDepth = 8;
  const TimeNs t0 = rig.sim().now();
  u64 posted = 0;
  bool post_failed = false;
  auto post_one = [&] {
    if (post_failed || posted >= messages) return;
    if (!rig.send(true, msg_size, posted).ok()) {
      post_failed = true;
      return;
    }
    ++posted;
  };
  for (u64 i = 0; i < kQueueDepth; ++i) post_one();
  u64 tx_completions = 0;
  int dry_waits = 0;
  while (tx_completions < posted || posted < messages) {
    auto c = rig.send_cq(true).wait(5 * kSecond);
    if (!c) {
      // A reliable transport deep in RTO backoff (bursty loss, link flaps)
      // can legitimately go several seconds of virtual time between
      // completions; only conclude the path is dead after a full minute
      // of silence. (An idle simulation makes these waits return
      // immediately, so a truly dead path still exits promptly.)
      if (++dry_waits >= 12) break;
      continue;
    }
    dry_waits = 0;
    ++tx_completions;
    post_one();
  }

  // Run to quiescence: all deliveries, retransmissions and GC timers done.
  rig.sim().run();

  // Elapsed: the receiver-side work for the last delivered byte ended no
  // later than the receiver CPU's horizon at quiescence; loss-related GC
  // idling does not advance the CPU, so it is not counted. Snapshot before
  // the harvest loop below charges poll costs.
  const TimeNs t_end = std::max(rig.b_->cpu().free_at(), t0 + 1);

  // Harvest receiver-side completions.
  std::size_t delivered_bytes = 0;
  std::size_t completed = 0;
  auto& cq = rig.recv_cq(true);
  while (auto c = cq.poll()) {
    if (!c->status.ok()) continue;
    if (mode == Mode::kRcRdmaWrite) {
      delivered_bytes += msg_size;  // the notify confirms the placed write
    } else {
      delivered_bytes += c->byte_len;
    }
    ++completed;
  }

  BandwidthResult r;
  r.messages_sent = messages;
  r.messages_completed = completed;
  r.delivered_frac =
      static_cast<double>(delivered_bytes) /
      (static_cast<double>(msg_size) * static_cast<double>(messages));
  r.goodput_MBps = rate_MBps(delivered_bytes, t_end - t0);
  if (opts.metrics) opts.metrics->merge_from(rig.sim().telemetry());
  absorb_capture(rig, opts);
  return r;
}

std::size_t default_message_count(std::size_t msg_size,
                                  std::size_t budget_bytes) {
  return std::clamp<std::size_t>(budget_bytes / std::max<std::size_t>(msg_size, 1),
                                 4, 4000);
}

}  // namespace dgiwarp::perf
