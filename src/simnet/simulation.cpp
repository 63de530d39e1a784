#include "simnet/simulation.hpp"

#include <utility>

namespace dgiwarp::sim {

void Simulation::at(TimeNs t, Task task) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, std::move(task)});
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // priority_queue::top() is const; move out via const_cast is UB-adjacent,
  // so copy the task handle (std::function copy) and pop.
  Event ev = queue_.top();
  queue_.pop();
  advance_clock(ev.time);
  ++executed_;
  ev.task();
  return true;
}

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Simulation::run_until(TimeNs t) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
    ++n;
  }
  if (now_ < t) advance_clock(t);
  return n;
}

bool Simulation::run_while_pending(const std::function<bool()>& done,
                                   TimeNs deadline) {
  while (!done()) {
    if (queue_.empty() || queue_.top().time > deadline) {
      // Timed out: the wait consumed its timeout (callers measure time).
      if (now_ < deadline) advance_clock(deadline);
      return false;
    }
    step();
  }
  return true;
}

}  // namespace dgiwarp::sim
