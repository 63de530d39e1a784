// Discrete-event simulation core: a virtual clock and an event queue.
//
// The entire reproduction runs inside one Simulation: both end hosts, the
// switch, every protocol timer. All reported latencies/bandwidths are
// virtual time, so results are bit-reproducible for a given seed and are
// independent of the machine running the benchmark (the paper's testbed is
// replaced by the calibrated cost model in hoststack/cost_model.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::sim {

class Simulation {
 public:
  using Task = std::function<void()>;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedule `task` at absolute virtual time `t` (clamped to now()).
  /// Events at equal times run in scheduling order (stable FIFO).
  void at(TimeNs t, Task task);

  /// Schedule `task` `delay` ns from now.
  void after(TimeNs delay, Task task) { at(now_ + delay, std::move(task)); }

  /// Execute the next pending event; returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains (or `max_events` fire, as a runaway
  /// guard). Returns the number of events executed.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Run all events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(TimeNs t);

  /// Run until `done()` returns true, the queue drains, or virtual time
  /// passes `deadline`. Returns true iff `done()` became true.
  bool run_while_pending(const std::function<bool()>& done, TimeNs deadline);

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  u64 events_executed() const { return executed_; }

  /// This simulation's metrics/trace registry. Scoped to the Simulation so
  /// per-seed runs stay bit-reproducible; its virtual clock mirror advances
  /// with the event loop, which is how trace events get timestamps without
  /// each layer re-reading now().
  telemetry::Registry& telemetry() { return telemetry_; }
  const telemetry::Registry& telemetry() const { return telemetry_; }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  struct Event {
    TimeNs time;
    u64 seq;
    Task task;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void advance_clock(TimeNs t) {
    now_ = t;
    telemetry_.advance_clock(t);
  }

  TimeNs now_ = 0;
  u64 next_seq_ = 0;
  u64 executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  telemetry::Registry telemetry_;
};

}  // namespace dgiwarp::sim
