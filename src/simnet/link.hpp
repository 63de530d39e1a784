// Unidirectional link with serialization delay, propagation delay, and
// fault injection. Two of these form a full-duplex cable.
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "simnet/faults.hpp"
#include "simnet/packet.hpp"
#include "simnet/simulation.hpp"

namespace dgiwarp::sim {

struct LinkParams {
  double bandwidth_bps = 10e9;  // 10GE, matching the paper's testbed
  TimeNs propagation = 300;     // ~60 m of fibre + PHY
};

/// Per-link view; every field mirrors into the owning Simulation's
/// telemetry registry under simnet.link.* (aggregated across links).
struct LinkStats {
  telemetry::Metric frames_offered;
  telemetry::Metric frames_dropped;
  telemetry::Metric frames_delivered;
  telemetry::Metric bytes_delivered;
  telemetry::Metric frames_queued;  // frames that waited for the wire
  telemetry::Metric frames_duplicated;  // extra copies injected by faults
  telemetry::Metric frames_corrupted;   // payloads damaged in flight
  // Congestion instrumentation. These two only mirror into the registry
  // (cc.marks / simnet.link.queue_drops) once a threshold or capacity is
  // configured on some link — default fabrics keep their metrics JSON free
  // of cc keys (bound lazily, see Link::bind_cc_counters).
  telemetry::Metric frames_marked;  // ECN CE bits set at this queue
  telemetry::Metric queue_drops;    // tail drops at the bounded queue
};

class Link {
 public:
  using Receiver = std::function<void(Frame)>;

  Link(Simulation& sim, Rng& rng, LinkParams params, std::string name);

  void set_receiver(Receiver rx) { rx_ = std::move(rx); }
  void set_faults(Faults f) { faults_ = std::move(f); }

  /// ECN marking: frames enqueued while queue_depth() >= `frames` get their
  /// congestion-experienced bit set (0 disables, the default). Mirrors a
  /// switch port's WRED/ECN threshold in its crudest deterministic form.
  void set_ecn_threshold(std::size_t frames);
  /// Bounded output queue: frames offered while queue_depth() >= `frames`
  /// are tail-dropped without consuming wire time (0 = unbounded, the
  /// default — the pre-CC fabric behaviour).
  void set_queue_capacity(std::size_t frames);

  std::size_t ecn_threshold() const { return ecn_threshold_; }
  std::size_t queue_capacity() const { return queue_capacity_; }

  /// Queue a frame for transmission. Serialization begins when the link is
  /// free (output queueing), then the frame propagates, possibly dropped,
  /// jittered or reordered by the fault model, and is handed to the
  /// receiver callback.
  void transmit(Frame f);

  /// Virtual time needed to serialize `wire_bytes` onto this link.
  TimeNs serialization_delay(std::size_t wire_bytes) const;

  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  const LinkParams& params() const { return params_; }

  /// Frames accepted but not yet fully serialized onto the wire (the
  /// output-queue depth a switch port would show right now). Exact at
  /// observation time: departures up to now() are pruned lazily, no extra
  /// simulation events are scheduled to maintain it.
  std::size_t queue_depth() const;
  /// High-water mark of queue_depth() over the link's lifetime.
  std::size_t max_queue_depth() const { return max_depth_; }

 private:
  /// Fault decisions draw from the fault config's dedicated stream when one
  /// was installed (Faults::isolated), else from the fabric-wide stream.
  Rng& fault_rng() { return faults_.rng ? *faults_.rng : rng_; }

  /// Bind the congestion counters into the registry the first time either
  /// CC feature is configured. Deliberately not done in the constructor:
  /// registry keys exist iff some link opted into marking/bounding, keeping
  /// default-config metrics exports byte-identical to the pre-CC tree.
  void bind_cc_counters();

  Simulation& sim_;
  Rng& rng_;
  LinkParams params_;
  std::string name_;
  Receiver rx_;
  Faults faults_;
  std::vector<Strike> strikes_;  // scratch for the corruption model's plan
  TimeNs busy_until_ = 0;
  LinkStats stats_;
  mutable std::deque<TimeNs> departures_;  // tx_done of queued frames
  std::size_t max_depth_ = 0;
  std::size_t ecn_threshold_ = 0;   // 0 = no marking
  std::size_t queue_capacity_ = 0;  // 0 = unbounded
  bool cc_counters_bound_ = false;
  // Per-frame gauges, bound where a string lookup would first create them
  // (the first enqueue, the first frame that waits) so idle links add no
  // registry keys.
  telemetry::LazyGauge queue_depth_gauge_{"simnet.link.queue_depth"};
  telemetry::LazyGauge queue_wait_gauge_{"simnet.link.queue_wait_ns"};
  telemetry::LazyHistogram queue_wait_hist_{"simnet.link.queue_wait_hist_ns"};
};

/// First-class handle to one direction of one cable. This is the public
/// fault-injection and inspection surface of the topology API: Topology
/// hands out LinkRefs instead of (index, direction) pairs, and the handle
/// stays valid for the lifetime of the owning topology.
class LinkRef {
 public:
  LinkRef() = default;
  explicit LinkRef(Link* link) : link_(link) {}

  explicit operator bool() const { return link_ != nullptr; }
  bool valid() const { return link_ != nullptr; }

  /// Install a fault configuration on this link direction (replacing any
  /// previous one). See Faults::isolated for per-link draw streams.
  void set_faults(Faults f) const { link_->set_faults(std::move(f)); }

  /// Congestion knobs (see Link::set_ecn_threshold/set_queue_capacity).
  void set_ecn_threshold(std::size_t frames) const {
    link_->set_ecn_threshold(frames);
  }
  void set_queue_capacity(std::size_t frames) const {
    link_->set_queue_capacity(frames);
  }
  std::size_t ecn_threshold() const { return link_->ecn_threshold(); }
  std::size_t queue_capacity() const { return link_->queue_capacity(); }

  const LinkStats& stats() const { return link_->stats(); }
  const std::string& name() const { return link_->name(); }
  std::size_t queue_depth() const { return link_->queue_depth(); }
  std::size_t max_queue_depth() const { return link_->max_queue_depth(); }
  TimeNs serialization_delay(std::size_t wire_bytes) const {
    return link_->serialization_delay(wire_bytes);
  }

  /// Escape hatch for code that needs the underlying object (the harness
  /// wiring receivers, tests asserting identity).
  Link* get() const { return link_; }

 private:
  Link* link_ = nullptr;
};

}  // namespace dgiwarp::sim
