#include "telemetry/json_lite.hpp"

#include <cstdio>
#include <cstdlib>

namespace dgiwarp::telemetry {

void append_u64(std::string& out, u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

Status write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status(Errc::kNotFound, "cannot open " + path);
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (n != body.size())
    return Status(Errc::kResourceExhausted, "short write to " + path);
  return Status::Ok();
}

bool JsonParser::fail(const std::string& m) {
  if (err.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " at offset %zu", i);
    err = m + buf;
  }
  return false;
}

bool JsonParser::expect(char c) {
  ws();
  if (i >= s.size() || s[i] != c)
    return fail(std::string("expected '") + c + "'");
  ++i;
  return true;
}

bool JsonParser::parse_string(std::string* out) {
  if (!expect('"')) return false;
  std::string v;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) return fail("truncated escape");
      char e = s[i++];
      switch (e) {
        case '"': v += '"'; break;
        case '\\': v += '\\'; break;
        case '/': v += '/'; break;
        case 'n': v += '\n'; break;
        case 't': v += '\t'; break;
        case 'r': v += '\r'; break;
        case 'b': case 'f': break;
        case 'u':
          if (i + 4 > s.size()) return fail("truncated \\u escape");
          i += 4;
          v += '?';
          break;
        default: return fail("bad escape");
      }
    } else {
      v += c;
    }
  }
  if (i >= s.size()) return fail("unterminated string");
  ++i;  // closing quote
  if (out) *out = std::move(v);
  return true;
}

bool JsonParser::parse_number(double* out) {
  ws();
  const std::size_t start = i;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
  bool digits = false;
  while (i < s.size() &&
         ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' || s[i] == 'e' ||
          s[i] == 'E' || s[i] == '-' || s[i] == '+'))
    digits = true, ++i;
  if (!digits) return fail("expected number");
  if (out)
    *out = std::strtod(std::string(s.substr(start, i - start)).c_str(),
                       nullptr);
  return true;
}

bool JsonParser::schema(std::string_view want) {
  std::string got;
  if (!parse_string(&got)) return false;
  return got == want || fail("wrong schema '" + got + "'");
}

bool JsonParser::skip_value() {
  ws();
  if (i >= s.size()) return fail("unexpected end");
  const char c = s[i];
  if (c == '"') return parse_string(nullptr);
  if (c == '{')
    return object(*this, [this](const std::string&) { return skip_value(); });
  if (c == '[') return array(*this, [this] { return skip_value(); });
  if (s.compare(i, 4, "true") == 0) { i += 4; return true; }
  if (s.compare(i, 5, "false") == 0) { i += 5; return true; }
  if (s.compare(i, 4, "null") == 0) { i += 4; return true; }
  return parse_number(nullptr);
}

Status JsonParser::verdict(bool ok, const char* doc) const {
  if (ok) return Status::Ok();
  return Status(Errc::kInvalidArgument, std::string(doc) + ": " + err);
}

}  // namespace dgiwarp::telemetry
