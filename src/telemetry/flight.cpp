#include "telemetry/flight.hpp"

#include <vector>

#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::telemetry {

std::string flight_recorder_json(const Registry& reg,
                                 std::string_view reason) {
  std::string out;
  out.reserve(8192);
  out += "{\n  \"schema\": \"";
  out += kFlightSchema;
  out += "\",\n  \"reason\": \"";
  append_escaped(out, reason);
  out += "\",\n  \"virtual_time_ns\": ";
  append_u64(out, static_cast<u64>(reg.now()));

  const Watchdog& wd = reg.watchdog();
  out += ",\n  \"watchdog\": {\"enabled\": ";
  out += wd.enabled() ? "true" : "false";
  out += ", \"checks\": ";
  append_u64(out, wd.checks());
  out += ", \"trip_count\": ";
  append_u64(out, wd.trip_count());
  out += ", \"trips\": ";
  out += wd.trips_json();
  out += "}";

  // Newest kFlightTraceEvents trace-ring events.
  const std::vector<TraceEvent> events = reg.trace().snapshot();
  const std::size_t skip = events.size() > kFlightTraceEvents
                               ? events.size() - kFlightTraceEvents
                               : 0;
  out += ",\n  \"trace\": {\"recorded\": ";
  append_u64(out, reg.trace().recorded());
  out += ", \"tail\": [";
  bool first = true;
  for (std::size_t i = skip; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"t\": ";
    append_u64(out, static_cast<u64>(e.t));
    out += ", \"kind\": \"";
    out += trace_kind_name(e.kind);
    out += "\", \"a\": ";
    append_u64(out, e.a);
    out += ", \"b\": ";
    append_u64(out, e.b);
    out += '}';
  }
  out += first ? "]}" : "\n  ]}";

  // Tail of every sampled series (empty object when sampling is off).
  out += ",\n  \"series\": {";
  first = true;
  for (const auto& [name, ts] : reg.sampler().series()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": [";
    const std::vector<SeriesPoint> pts = ts.snapshot();
    const std::size_t pskip = pts.size() > kFlightSeriesPoints
                                  ? pts.size() - kFlightSeriesPoints
                                  : 0;
    bool pfirst = true;
    for (std::size_t i = pskip; i < pts.size(); ++i) {
      out += pfirst ? "[" : ",[";
      pfirst = false;
      append_u64(out, static_cast<u64>(pts[i].t));
      out += ',';
      append_double(out, pts[i].v);
      out += ']';
    }
    out += ']';
  }
  out += first ? "}" : "\n  }";

  // Registry state: counters and gauges in full (they are small), same
  // formatting as Registry::to_json so values diff cleanly against a
  // --metrics-json dump of the same run.
  out += ",\n  \"counters\": {";
  first = true;
  for (const auto& [name, c] : reg.counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": ";
    append_u64(out, c.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": {\"value\": ";
    append_double(out, g.value());
    out += ", \"max\": ";
    append_double(out, g.max());
    out += '}';
  }
  out += first ? "}" : "\n  }";

  out += "\n}\n";
  return out;
}

Status validate_flight_recorder_json(std::string_view json) {
  JsonParser p{json};
  auto trips = [&p] {
    return array(p, [&] {
      bool saw_rule = false;
      return object(p, [&](const std::string& key) {
               if (key != "rule") return p.skip_value();
               saw_rule = true;
               return p.parse_string(nullptr);
             }) &&
             p.require(saw_rule, "trip missing rule");
    });
  };
  auto tail = [&p] {
    double prev_t = -1.0;
    return array(p, [&] {
      bool saw_t = false, saw_kind = false;
      double t = 0.0;
      if (!object(p, [&](const std::string& key) {
            if (key == "t") {
              saw_t = true;
              return p.parse_number(&t);
            }
            if (key == "kind") {
              saw_kind = true;
              return p.parse_string(nullptr);
            }
            return p.skip_value();
          }))
        return false;
      if (!saw_t || !saw_kind) return p.fail("trace event missing t/kind");
      if (t < prev_t) return p.fail("trace tail not time-ordered");
      prev_t = t;
      return true;
    });
  };
  // An object whose member `key` must be present and pass `check`.
  auto holding = [&p](const char* key, auto check, const char* missing) {
    bool saw = false;
    return object(p, [&](const std::string& k) {
             if (k != key) return p.skip_value();
             saw = true;
             return check();
           }) &&
           p.require(saw, missing);
  };

  bool saw_schema = false, saw_reason = false, saw_watchdog = false,
       saw_trace = false, saw_counters = false;
  const bool ok =
      object(p,
             [&](const std::string& key) {
               if (key == "schema") {
                 saw_schema = true;
                 return p.schema(kFlightSchema);
               }
               if (key == "reason") {
                 std::string reason;
                 saw_reason = true;
                 return p.parse_string(&reason) &&
                        p.require(!reason.empty(), "empty reason");
               }
               if (key == "watchdog") {
                 saw_watchdog = true;
                 return holding("trips", trips, "watchdog missing trips");
               }
               if (key == "trace") {
                 saw_trace = true;
                 return holding("tail", tail, "trace missing tail");
               }
               if (key == "counters") saw_counters = true;
               return p.skip_value();
             }) &&
      p.at_end() && p.require(saw_schema, "missing schema") &&
      p.require(saw_reason, "missing reason") &&
      p.require(saw_watchdog, "missing watchdog") &&
      p.require(saw_trace, "missing trace") &&
      p.require(saw_counters, "missing counters");
  return p.verdict(ok, "flight");
}

}  // namespace dgiwarp::telemetry
