#include "simnet/simulation.hpp"

#include <algorithm>
#include <utility>

namespace dgiwarp::sim {

u32 Simulation::acquire_slot() {
  if (!free_slots_.empty()) {
    const u32 s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  if (slots_used_ == chunks_.size() * kChunkSize)
    chunks_.push_back(std::make_unique<Task[]>(kChunkSize));
  return slots_used_++;
}

void Simulation::at(TimeNs t, Task task) {
  if (t < now_) t = now_;
  const u32 s = acquire_slot();
  slot(s) = std::move(task);
  heap_.push_back(Key{t, next_seq_++, s});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  advance_clock(key.time);
  ++executed_;
  // Run the task where it is parked: chunks never move, so the events it
  // schedules cannot invalidate it.
  Task& task = slot(key.slot);
  task();
  task.reset();
  free_slots_.push_back(key.slot);
  return true;
}

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Simulation::run_until(TimeNs t) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    step();
    ++n;
  }
  if (now_ < t) advance_clock(t);
  return n;
}

bool Simulation::run_while_pending(const std::function<bool()>& done,
                                   TimeNs deadline) {
  while (!done()) {
    if (heap_.empty() || heap_.front().time > deadline) {
      // Timed out: the wait consumed its timeout (callers measure time).
      if (now_ < deadline) advance_clock(deadline);
      return false;
    }
    step();
  }
  return true;
}

}  // namespace dgiwarp::sim
