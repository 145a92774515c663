#include "obs/flightrec.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spanprof.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace icilk::obs {

std::string build_flags_string() {
  std::string out;
  // One switch compiles every hook in or out; the string still names each
  // subsystem so bundles from either build parse the same way.
  for (const char* name : {"trace", "inject", "reqtrace", "watchdog",
                           "profile", "timeseries", "spanprof"}) {
    if (!out.empty()) out += ' ';
    out += name;
    out += hooks_compiled_in() ? "=ON" : "=OFF";
  }
#if defined(__SANITIZE_THREAD__)
  out += " sanitize=thread";
#elif defined(__SANITIZE_ADDRESS__)
  out += " sanitize=address";
#else
  out += " sanitize=none";
#endif
#if defined(NDEBUG)
  out += " assertions=OFF";
#else
  out += " assertions=ON";
#endif
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

void write_sample(std::ostream& os, const WdSample& s) {
  os << "{\"t_ns\":" << s.t_ns;
  char hexbuf[24];
  std::snprintf(hexbuf, sizeof hexbuf, "0x%llx",
                static_cast<unsigned long long>(s.bitfield));
  os << ",\"bitfield\":\"" << hexbuf << '"';
  os << ",\"num_levels\":" << s.num_levels;
  os << ",\"num_workers\":" << s.num_workers;
  os << ",\"sleepers\":" << s.sleepers;
  os << ",\"wakeups\":" << s.wakeups;
  os << ",\"zero_transitions\":" << s.zero_transitions;
  os << ",\"tasks_run\":" << s.tasks_run;
  os << ",\"suspended\":" << s.suspended;
  os << ",\"resumable\":" << s.resumable;
  os << ",\"susp_age_ns\":{\"p50\":" << s.susp_age_p50_ns
     << ",\"p99\":" << s.susp_age_p99_ns << ",\"max\":" << s.susp_age_max_ns
     << '}';
  os << ",\"res_age_ns\":{\"p50\":" << s.res_age_p50_ns
     << ",\"p99\":" << s.res_age_p99_ns << ",\"max\":" << s.res_age_max_ns
     << '}';
  os << ",\"res_oldest\":{\"level\":" << s.res_oldest_level
     << ",\"age_ns\":" << s.res_oldest_age_ns << '}';
  os << ",\"io_armed\":" << s.io_armed;
  os << ",\"timers_pending\":" << s.timers_pending;
  os << ",\"workers\":[";
  for (int w = 0; w < s.num_workers && w < WdSample::kMaxWorkers; ++w) {
    if (w) os << ',';
    os << "{\"state\":\""
       << wd_worker_state_name(static_cast<WdWorkerState>(s.worker_state[w]))
       << "\",\"level\":" << static_cast<int>(s.worker_level[w]) << '}';
  }
  os << "],\"levels\":{";
  bool first = true;
  for (int p = 0; p < s.num_levels && p < WdSample::kMaxLevels; ++p) {
    if (s.pool_depth[p] == 0 && s.mug_depth[p] == 0 && s.census[p] == 0) {
      continue;  // most of the 64 levels are silent; keep bundles small
    }
    if (!first) os << ',';
    first = false;
    os << '"' << p << "\":{\"pool\":" << s.pool_depth[p]
       << ",\"mug\":" << s.mug_depth[p] << ",\"census\":" << s.census[p]
       << '}';
  }
  os << "}}";
}

}  // namespace

void write_flight_bundle(std::ostream& os, const FlightBundle& b) {
  os << "{\"flight_bundle\":1";
  os << ",\"reason\":\"" << json_escape(b.reason) << '"';
  os << ",\"detail\":\"" << json_escape(b.detail) << '"';
  os << ",\"build_flags\":\"" << json_escape(b.build_flags) << '"';
  os << ",\"scheduler\":\"" << json_escape(b.scheduler) << '"';
  os << ",\"pid\":" << ::getpid();
  os << ",\"inject_seed\":" << b.inject_seed;
  os << ",\"bundles_written\":" << b.bundles_written;
  os << ",\"trips\":{";
  for (int d = 0; d < kWdDetectorCount; ++d) {
    if (d) os << ',';
    os << '"' << wd_detector_name(static_cast<WdDetector>(d))
       << "\":" << b.trip_counts[d];
  }
  os << '}';
  os << ",\"trigger\":";
  write_sample(os, b.trigger);
  os << ",\"samples\":[";
  for (std::size_t i = 0; i < b.history.size(); ++i) {
    if (i) os << ',';
    write_sample(os, b.history[i]);
  }
  os << ']';
  if (b.metrics != nullptr) {
    // latency_json carries the per-level phase histograms and the worst-K
    // request timelines; the flat STAT text carries every counter.
    os << ",\"latency\":" << latency_json(*b.metrics);
    os << ",\"parallelism\":" << parallelism_json(*b.metrics);
    os << ",\"metrics_stat\":\"" << json_escape(b.metrics->text("", "\n"))
       << '"';
  }
  if (b.trace != nullptr) {
    // An embedded Chrome trace_event document — extract the "trace"
    // member and load it into chrome://tracing / Perfetto as-is.
    os << ",\"trace\":";
    b.trace->write_chrome_trace(os);
  }
  if (b.timeseries != nullptr) {
    // The windowed epoch ring (obs/timeseries.hpp): the seconds of
    // per-epoch latency/counter history preceding the trip.
    os << ",\"timeseries\":" << b.timeseries->json();
  }
  os << "}\n";
}

std::string flight_bundle_json(const FlightBundle& b) {
  std::ostringstream os;
  write_flight_bundle(os, b);
  return os.str();
}

// ---------------------------------------------------------------------------
// Reader: a minimal dependency-free JSON walk
// ---------------------------------------------------------------------------

namespace {

struct Cursor {
  const char* p;
  const char* end;
  std::string err;

  bool fail(const char* what) {
    if (err.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s at offset %zd", what,
                    static_cast<std::ptrdiff_t>(p - start));
      err = buf;
    }
    return false;
  }
  const char* start = nullptr;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return p < end ? *p : '\0';
  }
};

bool parse_value(Cursor& c);

bool parse_string(Cursor& c, std::string* out) {
  if (!c.consume('"')) return c.fail("expected string");
  while (c.p < c.end) {
    char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.p >= c.end) break;
      char esc = *c.p++;
      switch (esc) {
        case '"': if (out) *out += '"'; break;
        case '\\': if (out) *out += '\\'; break;
        case '/': if (out) *out += '/'; break;
        case 'b': if (out) *out += '\b'; break;
        case 'f': if (out) *out += '\f'; break;
        case 'n': if (out) *out += '\n'; break;
        case 'r': if (out) *out += '\r'; break;
        case 't': if (out) *out += '\t'; break;
        case 'u': {
          for (int i = 0; i < 4; ++i) {
            if (c.p >= c.end || !std::isxdigit(static_cast<unsigned char>(
                                    *c.p))) {
              return c.fail("bad \\u escape");
            }
            ++c.p;
          }
          if (out) *out += '?';  // codepoint identity not needed here
          break;
        }
        default: return c.fail("bad escape");
      }
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      return c.fail("raw control char in string");
    } else {
      if (out) *out += ch;
    }
  }
  return c.fail("unterminated string");
}

bool parse_number(Cursor& c, double* out) {
  c.skip_ws();
  const char* begin = c.p;
  if (c.p < c.end && *c.p == '-') ++c.p;
  if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p))) {
    return c.fail("expected number");
  }
  while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  if (c.p < c.end && *c.p == '.') {
    ++c.p;
    if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p))) {
      return c.fail("bad fraction");
    }
    while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p))) {
      ++c.p;
    }
  }
  if (c.p < c.end && (*c.p == 'e' || *c.p == 'E')) {
    ++c.p;
    if (c.p < c.end && (*c.p == '+' || *c.p == '-')) ++c.p;
    if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p))) {
      return c.fail("bad exponent");
    }
    while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p))) {
      ++c.p;
    }
  }
  if (out) *out = std::strtod(std::string(begin, c.p).c_str(), nullptr);
  return true;
}

bool parse_literal(Cursor& c, const char* lit) {
  c.skip_ws();
  for (const char* q = lit; *q; ++q) {
    if (c.p >= c.end || *c.p != *q) return c.fail("bad literal");
    ++c.p;
  }
  return true;
}

bool parse_object(Cursor& c) {
  if (!c.consume('{')) return c.fail("expected object");
  if (c.consume('}')) return true;
  for (;;) {
    if (!parse_string(c, nullptr)) return false;
    if (!c.consume(':')) return c.fail("expected ':'");
    if (!parse_value(c)) return false;
    if (c.consume(',')) continue;
    if (c.consume('}')) return true;
    return c.fail("expected ',' or '}'");
  }
}

bool parse_array(Cursor& c) {
  if (!c.consume('[')) return c.fail("expected array");
  if (c.consume(']')) return true;
  for (;;) {
    if (!parse_value(c)) return false;
    if (c.consume(',')) continue;
    if (c.consume(']')) return true;
    return c.fail("expected ',' or ']'");
  }
}

bool parse_value(Cursor& c) {
  switch (c.peek()) {
    case '{': return parse_object(c);
    case '[': return parse_array(c);
    case '"': return parse_string(c, nullptr);
    case 't': return parse_literal(c, "true");
    case 'f': return parse_literal(c, "false");
    case 'n': return parse_literal(c, "null");
    default: return parse_number(c, nullptr);
  }
}

// Parses the "trigger" object generically while capturing its t_ns.
bool parse_trigger(Cursor& c, std::uint64_t* t_ns) {
  if (!c.consume('{')) return c.fail("expected trigger object");
  if (c.consume('}')) return true;
  for (;;) {
    std::string key;
    if (!parse_string(c, &key)) return false;
    if (!c.consume(':')) return c.fail("expected ':'");
    if (key == "t_ns") {
      double v = 0;
      if (!parse_number(c, &v)) return false;
      *t_ns = static_cast<std::uint64_t>(v);
    } else {
      if (!parse_value(c)) return false;
    }
    if (c.consume(',')) continue;
    if (c.consume('}')) return true;
    return c.fail("expected ',' or '}'");
  }
}

bool parse_samples(Cursor& c, std::size_t* count) {
  if (!c.consume('[')) return c.fail("expected samples array");
  *count = 0;
  if (c.consume(']')) return true;
  for (;;) {
    if (!parse_value(c)) return false;
    ++*count;
    if (c.consume(',')) continue;
    if (c.consume(']')) return true;
    return c.fail("expected ',' or ']'");
  }
}

}  // namespace

ParsedFlightBundle parse_flight_bundle(const std::string& json) {
  ParsedFlightBundle out;
  Cursor c{json.data(), json.data() + json.size(), {}};
  c.start = json.data();

  bool saw_magic = false;
  if (!c.consume('{')) {
    c.fail("expected top-level object");
    out.error = c.err;
    return out;
  }
  if (!c.consume('}')) {
    for (;;) {
      std::string key;
      bool ok = true;
      if (!parse_string(c, &key)) {
        ok = false;
      } else if (!c.consume(':')) {
        ok = c.fail("expected ':'");
      } else if (key == "flight_bundle") {
        double v = 0;
        ok = parse_number(c, &v);
        saw_magic = ok && v == 1;
      } else if (key == "reason") {
        ok = parse_string(c, &out.reason);
      } else if (key == "detail") {
        ok = parse_string(c, &out.detail);
      } else if (key == "build_flags") {
        ok = parse_string(c, &out.build_flags);
      } else if (key == "scheduler") {
        ok = parse_string(c, &out.scheduler);
      } else if (key == "inject_seed") {
        double v = 0;
        ok = parse_number(c, &v);
        out.inject_seed = static_cast<std::uint64_t>(v);
      } else if (key == "trigger") {
        ok = parse_trigger(c, &out.trigger_t_ns);
      } else if (key == "samples") {
        ok = parse_samples(c, &out.num_samples);
      } else if (key == "latency" || key == "metrics_stat") {
        ok = parse_value(c);
        out.has_metrics = out.has_metrics || ok;
      } else if (key == "trace") {
        ok = parse_value(c);
        out.has_trace = ok;
      } else if (key == "timeseries") {
        ok = parse_value(c);
        out.has_timeseries = ok;
      } else if (key == "parallelism") {
        ok = parse_value(c);
        out.has_parallelism = ok;
      } else if (key == "pid" || key == "bundles_written" ||
                 key == "trips") {
        ok = parse_value(c);
      } else {
        // Forward compatibility: a bundle from a newer writer may carry
        // members this reader predates. Validate and skip the value, count
        // it, and warn once per key so the skew is visible in tool logs.
        ok = parse_value(c);
        if (ok) {
          ++out.unknown_keys;
          std::fprintf(stderr,
                       "flightrec: skipping unknown bundle member \"%s\" "
                       "(reader older than writer?)\n",
                       key.c_str());
        }
      }
      if (!ok) {
        out.error = c.err;
        return out;
      }
      if (c.consume(',')) continue;
      if (c.consume('}')) break;
      c.fail("expected ',' or '}'");
      out.error = c.err;
      return out;
    }
  }
  c.skip_ws();
  if (c.p != c.end) {
    c.fail("trailing garbage");
    out.error = c.err;
    return out;
  }
  if (!saw_magic) {
    out.error = "missing flight_bundle magic";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace icilk::obs
