// Discrete-event simulation core: a virtual clock and an event queue.
//
// The entire reproduction runs inside one Simulation: both end hosts, the
// switch, every protocol timer. All reported latencies/bandwidths are
// virtual time, so results are bit-reproducible for a given seed and are
// independent of the machine running the benchmark (the paper's testbed is
// replaced by the calibrated cost model in hoststack/cost_model.hpp).
//
// A scheduled closure is moved, never copied: it is built once into a
// move-only Task, moved into a parked slot, and run and destroyed in that
// slot. Most closures carry a whole in-flight Frame, so a copy per event
// would be a copy of every payload per hop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::sim {

/// Move-only `void()` callable with inline storage. Closures up to
/// kInlineSize bytes (a `[this, Frame]` capture is 72 B) live inside the
/// Task; larger ones, or ones whose move may throw, are boxed once on the
/// heap. Moving a Task relocates the callable; nothing is ever copied.
class Task {
 public:
  static constexpr std::size_t kInlineSize = 96;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Task> && std::is_invocable_r_v<void, D&>)
  Task(F&& f) {  // NOLINT — implicit, like std::function
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the held callable (if any); the Task becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move, then destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static D& held(void* p) {
    return *std::launder(static_cast<D*>(p));
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { held<D>(p)(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(held<D>(src)));
        held<D>(src).~D();
      },
      [](void* p) noexcept { held<D>(p).~D(); }};

  template <typename D>
  static constexpr Ops kBoxedOps{
      [](void* p) { (*held<D*>(p))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(held<D*>(src)); },
      [](void* p) noexcept { delete held<D*>(p); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class Simulation {
 public:
  using Task = sim::Task;

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

  bool idle() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  u64 events_executed() const { return executed_; }

  /// This simulation's metrics/trace registry. Scoped to the Simulation so
  /// per-seed runs stay bit-reproducible; its virtual clock mirror advances
  /// with the event loop, which is how trace events get timestamps without
  /// each layer re-reading now().
  telemetry::Registry& telemetry() { return telemetry_; }
  const telemetry::Registry& telemetry() const { return telemetry_; }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  // The queue orders small trivially-copyable keys; the tasks they name
  // stay parked in the slab, so sifting the heap never touches a closure.
  struct Key {
    TimeNs time;
    u64 seq;
    u32 slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Slab of task slots in fixed-size chunks: growth adds a chunk and never
  // relocates a parked task. Freed slots are reused last-in first-out.
  static constexpr u32 kChunkBits = 9;
  static constexpr u32 kChunkSize = u32{1} << kChunkBits;

  Task& slot(u32 s) { return chunks_[s >> kChunkBits][s & (kChunkSize - 1)]; }
  u32 acquire_slot();

  void advance_clock(TimeNs t) {
    now_ = t;
    telemetry_.advance_clock(t);
  }

  TimeNs now_ = 0;
  u64 next_seq_ = 0;
  u64 executed_ = 0;
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Task[]>> chunks_;
  std::vector<u32> free_slots_;
  u32 slots_used_ = 0;
  telemetry::Registry telemetry_;
};

}  // namespace dgiwarp::sim
