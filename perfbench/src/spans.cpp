#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
}  // namespace

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

std::uint32_t SpanLog::open(const char* name, std::int64_t events) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = name;
  s.events = events;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  stack_heap_.push_back(heap::snapshot());
  spans_.back().start_ns = wall_ns();
  return spans_.back().id;
}

void SpanLog::close(std::uint32_t id, std::int64_t events) {
  if (!enabled_ || id == 0) return;
  const std::int64_t end = wall_ns();
  const heap::Tally d = heap::delta(stack_heap_.back());
  stack_heap_.pop_back();
  stack_.pop_back();
  Span& s = spans_[id - 1];
  s.end_ns = end;
  s.allocs = d.allocs;
  s.alloc_bytes = d.bytes;
  s.events = (events >= 0 && s.events >= 0) ? events - s.events : -1;
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (const Span& s : spans_) self[s.id - 1] += s.end_ns - s.start_ns;
  for (const Span& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<std::int64_t> self = self_ns();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, "
                 "\"events\": %lld, \"allocs\": %llu, \"alloc_bytes\": "
                 "%llu}%s\n",
                 s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 static_cast<long long>(s.events),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.alloc_bytes),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
