// The one JSON module behind every telemetry export: the writer primitives
// the exporters build their documents from, and the streaming reader their
// schema validators walk them with.
//
// Writer: every exporter (metrics, time series, flight recorder, trace,
// watchdog trips) formats through the same four primitives, so one escape
// rule and one number format hold everywhere and same-seed runs export
// byte-identical documents.
//
// Reader: NOT a general JSON library. It exists so `--trace-json` /
// `--timeseries-json` / flight-recorder dumps can be structurally checked
// in tests and benches without an external dependency. It never builds a
// tree: object() and array() visit members and elements as they are
// parsed, so a validator checks a 76 MB trace in one pass and constant
// memory. Documents come from this repo's own deterministic writers, so
// the reader favours simplicity over strict RFC conformance (e.g. \u
// escapes are skipped, not decoded).
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace dgiwarp::telemetry {

// ---------------------------------------------------------------- writer

void append_u64(std::string& out, u64 v);
/// "%.17g": round-trips exactly, so the same value always prints the same
/// bytes.
void append_double(std::string& out, double v);
/// String body without the quotes: `"`, `\`, `\n` and `\t` as two-byte
/// escapes, every other byte below 0x20 as \u00XX.
void append_escaped(std::string& out, std::string_view s);
/// Write `body` to `path`, replacing the file.
Status write_file(const std::string& path, std::string_view body);

// ---------------------------------------------------------------- reader

/// Recursive-descent cursor over one document. Every failing call records
/// the first error (with its offset) in `err` and returns false, so checks
/// chain with &&.
struct JsonParser {
  explicit JsonParser(std::string_view doc) : s(doc) {}

  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& m);
  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool expect(char c);
  /// Consumes `c` if it is next.
  bool accept(char c) {
    ws();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  /// fail(m) unless `ok`.
  bool require(bool ok, const char* m) { return ok || fail(m); }
  /// Only whitespace may follow the value just parsed.
  bool at_end() {
    ws();
    return require(i == s.size(), "trailing garbage");
  }

  bool parse_string(std::string* out);
  bool parse_number(double* out);
  /// A string value that must equal `want`.
  bool schema(std::string_view want);
  bool skip_value();

  /// Ok if `ok`, else kInvalidArgument "<doc>: <first error>".
  Status verdict(bool ok, const char* doc) const;
};

/// Walks `{ "key": value, ... }`: fn(key) is called once per member with
/// the cursor on its value, which fn must consume.
template <typename Fn>
bool object(JsonParser& p, Fn&& fn) {
  if (!p.expect('{')) return false;
  if (p.accept('}')) return true;
  do {
    std::string key;
    if (!p.parse_string(&key) || !p.expect(':') || !fn(key)) return false;
  } while (p.accept(','));
  return p.expect('}');
}

/// Walks `[ value, ... ]`: fn() is called once per element with the cursor
/// on it, and must consume it.
template <typename Fn>
bool array(JsonParser& p, Fn&& fn) {
  if (!p.expect('[')) return false;
  if (p.accept(']')) return true;
  do {
    if (!fn()) return false;
  } while (p.accept(','));
  return p.expect(']');
}

}  // namespace dgiwarp::telemetry
