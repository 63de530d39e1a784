// Bench-side spans for the traced run.
//
// Spans are recorded only around calls the benchmark makes into the
// simulator's public API (phases, mode sub-runs, 1 ms run_until windows);
// nothing inside the simulator is instrumented. They are kept in memory
// and written as one JSON document when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "heap.hpp"

namespace perfbench {

/// Wall-clock nanoseconds since the process started (steady clock).
std::int64_t wall_ns();

struct Span {
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0 for a root span
  const char* name = "";     // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t events = -1;  // simulation events executed; -1 = not visible
  std::uint64_t allocs = 0;  // heap allocations made inside the span
  std::uint64_t alloc_bytes = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Open a child of the innermost open span. `events` is the simulation's
  /// events_executed() at the start, or -1 when the caller cannot see the
  /// Simulation. Returns 0 when the log is disabled.
  std::uint32_t open(const char* name, std::int64_t events = -1);
  /// Close the innermost open span, which must be `id`.
  void close(std::uint32_t id, std::int64_t events = -1);

  /// {"spans": [{id, parent, name, start_ns, end_ns, self_ns, events,
  /// allocs, alloc_bytes}, ...]}
  bool write_json(const std::string& path) const;

 private:
  /// Per span: duration minus the time covered by its direct children.
  std::vector<std::int64_t> self_ns() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;        // ids of the open spans
  std::vector<heap::Tally> stack_heap_;     // heap tally at each open
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::int64_t events = -1)
      : log_(log), id_(log.open(name, events)) {}
  ~SpanScope() {
    if (!closed_) log_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Close now, recording the simulation's event count at the end.
  void close(std::int64_t events) {
    log_.close(id_, events);
    closed_ = true;
  }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  bool closed_ = false;
};

}  // namespace perfbench
