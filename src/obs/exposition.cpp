#include "obs/exposition.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/spanprof.hpp"

namespace icilk::obs {

namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Emits one Prometheus summary family from a histogram: quantile series
/// plus _sum/_count. `labels` is the non-quantile label set ("level=\"1\""
/// or "level=\"1\",phase=\"queueing\""), without braces.
void summary_series(std::string& out, const char* name,
                    const std::string& labels, const load::Histogram& h,
                    std::uint64_t sum_ns) {
  for (const double q : kQuantiles) {
    appendf(out, "%s{%s,quantile=\"%g\"} %.9f\n", name, labels.c_str(), q,
            ns_to_s(h.percentile_ns(q)));
  }
  appendf(out, "%s_sum{%s} %.9f\n", name, labels.c_str(), ns_to_s(sum_ns));
  appendf(out, "%s_count{%s} %" PRIu64 "\n", name, labels.c_str(),
          h.count());
}

std::uint64_t hist_sum_ns(const load::Histogram& h) {
  // mean * count recovers the exact recorded sum (mean_ns is sum/count).
  return static_cast<std::uint64_t>(h.mean_ns() *
                                    static_cast<double>(h.count()));
}

}  // namespace

std::string prometheus_text(const MetricsRegistry& m, const TraceSink* sink,
                            const std::string& extra) {
  std::string out;
  out.reserve(4096);

  // Scheduler event counters, by level and kind.
  appendf(out,
          "# HELP icilk_events_total Scheduler events by priority level.\n"
          "# TYPE icilk_events_total counter\n");
  static constexpr EventKind kCounterKinds[] = {
      EventKind::kSteal,   EventKind::kMug,    EventKind::kAbandon,
      EventKind::kSuspend, EventKind::kResume,
  };
  for (int level = 0; level < m.num_levels(); ++level) {
    for (const EventKind k : kCounterKinds) {
      const std::uint64_t v = m.counter(k, level);
      if (v == 0) continue;
      appendf(out, "icilk_events_total{level=\"%d\",kind=\"%s\"} %" PRIu64
              "\n", level, event_name(k), v);
    }
  }

  // Request end-to-end latency and per-phase attribution.
  appendf(out,
          "# HELP icilk_request_latency_seconds End-to-end request latency "
          "by priority level.\n"
          "# TYPE icilk_request_latency_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    char labels[32];
    std::snprintf(labels, sizeof(labels), "level=\"%d\"", level);
    summary_series(out, "icilk_request_latency_seconds", labels, r->total_ns,
                   hist_sum_ns(r->total_ns));
  }
  appendf(out,
          "# HELP icilk_request_phase_seconds Request time attributed to "
          "each lifecycle phase (see DESIGN.md).\n"
          "# TYPE icilk_request_phase_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    for (int p = 0; p < kReqPhaseCount; ++p) {
      char labels[64];
      std::snprintf(labels, sizeof(labels), "level=\"%d\",phase=\"%s\"",
                    level, req_phase_name(static_cast<ReqPhase>(p)));
      summary_series(
          out, "icilk_request_phase_seconds", labels, r->phase_hist_ns[p],
          r->phase_sum_ns[p].load(std::memory_order_relaxed));
    }
  }

  // Work/span parallelism (obs/spanprof.hpp), when the profiler recorded
  // any requests.
  {
    bool any_sp = false;
    for (int level = 0; level < m.num_levels(); ++level) {
      const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
      if (s != nullptr && s->span_ns.count() != 0) {
        any_sp = true;
        break;
      }
    }
    if (any_sp) {
      struct Fam {
        const char* name;
        const char* help;
        const load::Histogram MetricsRegistry::SpLevelStats::* hist;
      };
      static constexpr Fam kFams[] = {
          {"icilk_request_work_seconds",
           "Per-request total task CPU time (T1).",
           &MetricsRegistry::SpLevelStats::work_ns},
          {"icilk_request_span_seconds",
           "Per-request critical path (Tinf), the serial floor.",
           &MetricsRegistry::SpLevelStats::span_ns},
          {"icilk_request_burdened_span_seconds",
           "Critical path including measured scheduler overhead.",
           &MetricsRegistry::SpLevelStats::bspan_ns},
      };
      for (const Fam& f : kFams) {
        appendf(out, "# HELP %s %s\n# TYPE %s summary\n", f.name, f.help,
                f.name);
        for (int level = 0; level < m.num_levels(); ++level) {
          const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
          if (s == nullptr || s->span_ns.count() == 0) continue;
          char labels[32];
          std::snprintf(labels, sizeof(labels), "level=\"%d\"", level);
          summary_series(out, f.name, labels, s->*(f.hist),
                         hist_sum_ns(s->*(f.hist)));
        }
      }
      // Parallelism is a ratio, not seconds: emit the quantiles directly
      // (the histogram stores work/span x1000).
      appendf(out,
              "# HELP icilk_request_parallelism Average parallelism "
              "(work/span) per request.\n"
              "# TYPE icilk_request_parallelism summary\n");
      for (int level = 0; level < m.num_levels(); ++level) {
        const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
        if (s == nullptr || s->par_milli.count() == 0) continue;
        for (const double q : kQuantiles) {
          appendf(out,
                  "icilk_request_parallelism{level=\"%d\",quantile=\"%g\"} "
                  "%.3f\n",
                  level, q,
                  static_cast<double>(s->par_milli.percentile_ns(q)) / 1e3);
        }
        appendf(out, "icilk_request_parallelism_count{level=\"%d\"} %" PRIu64
                "\n", level, s->par_milli.count());
      }
    }
  }

  // Promptness response and aging delay (the PR 1 histograms).
  appendf(out,
          "# HELP icilk_promptness_seconds Level nonempty -> first "
          "acquisition latency.\n"
          "# TYPE icilk_promptness_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const load::Histogram& h = m.promptness_hist(level);
    if (h.count() == 0) continue;
    char labels[32];
    std::snprintf(labels, sizeof(labels), "level=\"%d\"", level);
    summary_series(out, "icilk_promptness_seconds", labels, h,
                   hist_sum_ns(h));
  }
  appendf(out,
          "# HELP icilk_aging_seconds Deque resumable -> resumed delay.\n"
          "# TYPE icilk_aging_seconds summary\n");
  for (int level = 0; level < m.num_levels(); ++level) {
    const load::Histogram& h = m.aging_hist(level);
    if (h.count() == 0) continue;
    char labels[32];
    std::snprintf(labels, sizeof(labels), "level=\"%d\"", level);
    summary_series(out, "icilk_aging_seconds", labels, h, hist_sum_ns(h));
  }

  // I/O fast-path counters.
  appendf(out,
          "# HELP icilk_io_total Reactor fast-path events.\n"
          "# TYPE icilk_io_total counter\n");
  for (int s = 0; s < static_cast<int>(IoStat::kCount); ++s) {
    appendf(out, "icilk_io_total{stat=\"%s\"} %" PRIu64 "\n",
            io_stat_name(static_cast<IoStat>(s)),
            m.io_counter(static_cast<IoStat>(s)));
  }

  // Reactor instantaneous depths.
  appendf(out,
          "# HELP icilk_io_depth Reactor queue depths (armed ops, pending "
          "timers).\n"
          "# TYPE icilk_io_depth gauge\n");
  for (int g = 0; g < static_cast<int>(IoGauge::kCount); ++g) {
    appendf(out, "icilk_io_depth{queue=\"%s\"} %lld\n",
            io_gauge_name(static_cast<IoGauge>(g)),
            static_cast<long long>(m.io_gauge(static_cast<IoGauge>(g))));
  }

  // Watchdog sampled gauges + detector trip counts (only once a sampler
  // has written them; an idle registry stays quiet).
  if (m.wd_gauge(WdGauge::kSamples) != 0) {
    appendf(out,
            "# HELP icilk_watchdog Flight-recorder sampler gauges and "
            "detector trip counts.\n"
            "# TYPE icilk_watchdog gauge\n");
    for (int g = 0; g < static_cast<int>(WdGauge::kCount); ++g) {
      appendf(out, "icilk_watchdog{gauge=\"%s\"} %lld\n",
              wd_gauge_name(static_cast<WdGauge>(g)),
              static_cast<long long>(m.wd_gauge(static_cast<WdGauge>(g))));
    }
  }

  // Trace-ring overflow surfacing: silent drops would skew attribution.
  if (sink != nullptr) {
    appendf(out,
            "# HELP icilk_trace_ring_recorded_total Events ever written "
            "per trace ring.\n"
            "# TYPE icilk_trace_ring_recorded_total counter\n");
    const auto stats = sink->ring_stats();
    for (const auto& r : stats) {
      appendf(out, "icilk_trace_ring_recorded_total{ring=\"%s\"} %" PRIu64
              "\n", r.name.c_str(), r.recorded);
    }
    appendf(out,
            "# HELP icilk_trace_ring_dropped_total Events lost to ring "
            "wrap per trace ring.\n"
            "# TYPE icilk_trace_ring_dropped_total counter\n");
    for (const auto& r : stats) {
      appendf(out, "icilk_trace_ring_dropped_total{ring=\"%s\"} %" PRIu64
              "\n", r.name.c_str(), r.dropped);
    }
  }

  out += extra;
  return out;
}

std::string latency_json(const MetricsRegistry& m) {
  std::string out;
  out.reserve(2048);
  out += "{\"levels\":[";
  bool first_level = true;
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    if (!first_level) out += ',';
    first_level = false;
    appendf(out,
            "{\"level\":%d,\"count\":%" PRIu64
            ",\"total_us\":{\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f,"
            "\"max\":%.1f,\"mean\":%.1f},\"phases\":{",
            level, r->count.load(std::memory_order_relaxed),
            static_cast<double>(r->total_ns.percentile_ns(0.5)) / 1e3,
            static_cast<double>(r->total_ns.percentile_ns(0.9)) / 1e3,
            static_cast<double>(r->total_ns.percentile_ns(0.99)) / 1e3,
            static_cast<double>(r->total_ns.max_ns()) / 1e3,
            r->total_ns.mean_ns() / 1e3);
    for (int p = 0; p < kReqPhaseCount; ++p) {
      const load::Histogram& h = r->phase_hist_ns[p];
      appendf(out,
              "%s\"%s\":{\"count\":%" PRIu64 ",\"sum_us\":%.1f,"
              "\"p50\":%.1f,\"p99\":%.1f,\"max\":%.1f}",
              p == 0 ? "" : ",", req_phase_name(static_cast<ReqPhase>(p)),
              h.count(),
              static_cast<double>(
                  r->phase_sum_ns[p].load(std::memory_order_relaxed)) / 1e3,
              static_cast<double>(h.percentile_ns(0.5)) / 1e3,
              static_cast<double>(h.percentile_ns(0.99)) / 1e3,
              static_cast<double>(h.max_ns()) / 1e3);
    }
    out += "},\"worst\":[";
    bool first_worst = true;
    for (const ReqContext& rc : m.worst_requests(level)) {
      if (!first_worst) out += ',';
      first_worst = false;
      appendf(out,
              "{\"id\":%" PRIu64 ",\"total_us\":%.1f,\"hops_dropped\":%u,"
              "\"hops\":[",
              rc.id,
              static_cast<double>(rc.end_ns - rc.begin_ns) / 1e3,
              rc.hops_dropped);
      for (std::uint32_t i = 0; i < rc.nhops; ++i) {
        const ReqHop& h = rc.hops[i];
        appendf(out, "%s{\"t_us\":%.1f,\"phase\":\"%s\",\"where\":%d}",
                i == 0 ? "" : ",",
                static_cast<double>(h.t_ns - rc.begin_ns) / 1e3,
                req_phase_name(h.phase), static_cast<int>(h.where));
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string latency_stats_text(const MetricsRegistry& m,
                               const std::string& prefix,
                               const std::string& eol) {
  std::string out;
  char buf[512];
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::ReqLevelStats* r = m.req_level(level);
    if (r == nullptr || r->total_ns.count() == 0) continue;
    auto line = [&](const char* name, std::uint64_t v) {
      std::snprintf(buf, sizeof(buf), "STAT %sl%d_%s %" PRIu64, prefix.c_str(),
                    level, name, v);
      out += buf;
      out += eol;
    };
    line("req_count", r->count.load(std::memory_order_relaxed));
    line("req_p50_us", r->total_ns.percentile_ns(0.5) / 1000);
    line("req_p99_us", r->total_ns.percentile_ns(0.99) / 1000);
    line("req_max_us", r->total_ns.max_ns() / 1000);
    for (int p = 0; p < kReqPhaseCount; ++p) {
      const load::Histogram& h = r->phase_hist_ns[p];
      if (h.count() == 0) continue;
      const char* pn = req_phase_name(static_cast<ReqPhase>(p));
      std::snprintf(buf, sizeof(buf),
                    "STAT %sl%d_phase_%s_p50_us %" PRIu64, prefix.c_str(),
                    level, pn, h.percentile_ns(0.5) / 1000);
      out += buf;
      out += eol;
      std::snprintf(buf, sizeof(buf),
                    "STAT %sl%d_phase_%s_p99_us %" PRIu64, prefix.c_str(),
                    level, pn, h.percentile_ns(0.99) / 1000);
      out += buf;
      out += eol;
      std::snprintf(
          buf, sizeof(buf), "STAT %sl%d_phase_%s_sum_us %" PRIu64,
          prefix.c_str(), level, pn,
          r->phase_sum_ns[p].load(std::memory_order_relaxed) / 1000);
      out += buf;
      out += eol;
    }
    int rank = 0;
    for (const ReqContext& rc : m.worst_requests(level)) {
      std::string hops;
      for (std::uint32_t i = 0; i < rc.nhops; ++i) {
        const ReqHop& h = rc.hops[i];
        char hb[64];
        std::snprintf(hb, sizeof(hb), "%s%s@%d:+%" PRIu64 "us",
                      i == 0 ? "" : ",", req_phase_name(h.phase),
                      static_cast<int>(h.where),
                      (h.t_ns - rc.begin_ns) / 1000);
        hops += hb;
      }
      std::snprintf(buf, sizeof(buf),
                    "STAT %sl%d_worst%d id=%" PRIu64 " total_us=%" PRIu64
                    " hops=%s%s",
                    prefix.c_str(), level, rank, rc.id,
                    (rc.end_ns - rc.begin_ns) / 1000, hops.c_str(),
                    rc.hops_dropped != 0 ? ",..." : "");
      out += buf;
      out += eol;
      ++rank;
    }
  }
  return out;
}

std::string parallelism_json(const MetricsRegistry& m) {
  std::string out;
  out.reserve(1024);
  appendf(out,
          "{\"compiled_in\":%s,\"requests\":%" PRIu64
          ",\"work_ms\":%.3f,\"span_ms\":%.3f,\"levels\":[",
          hooks_compiled_in() ? "true" : "false", m.sp_total_requests(),
          static_cast<double>(m.sp_total_work_ns()) / 1e6,
          static_cast<double>(m.sp_total_span_ns()) / 1e6);
  bool first_level = true;
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
    if (s == nullptr || s->span_ns.count() == 0) continue;
    if (!first_level) out += ',';
    first_level = false;
    appendf(out,
            "{\"level\":%d,\"count\":%" PRIu64
            ",\"work_us\":{\"p50\":%.1f,\"p99\":%.1f,\"mean\":%.1f},"
            "\"span_us\":{\"p50\":%.1f,\"p99\":%.1f,\"mean\":%.1f},"
            "\"bspan_us\":{\"p50\":%.1f,\"p99\":%.1f},"
            "\"parallelism\":{\"p10\":%.3f,\"p50\":%.3f,\"p90\":%.3f},"
            "\"worst\":[",
            level, s->count.load(std::memory_order_relaxed),
            static_cast<double>(s->work_ns.percentile_ns(0.5)) / 1e3,
            static_cast<double>(s->work_ns.percentile_ns(0.99)) / 1e3,
            s->work_ns.mean_ns() / 1e3,
            static_cast<double>(s->span_ns.percentile_ns(0.5)) / 1e3,
            static_cast<double>(s->span_ns.percentile_ns(0.99)) / 1e3,
            s->span_ns.mean_ns() / 1e3,
            static_cast<double>(s->bspan_ns.percentile_ns(0.5)) / 1e3,
            static_cast<double>(s->bspan_ns.percentile_ns(0.99)) / 1e3,
            static_cast<double>(s->par_milli.percentile_ns(0.1)) / 1e3,
            static_cast<double>(s->par_milli.percentile_ns(0.5)) / 1e3,
            static_cast<double>(s->par_milli.percentile_ns(0.9)) / 1e3);
    bool first_worst = true;
    for (const MetricsRegistry::SpWorst& w : m.worst_parallelism(level)) {
      if (!first_worst) out += ',';
      first_worst = false;
      appendf(out,
              "{\"id\":%" PRIu64 ",\"work_us\":%.1f,\"span_us\":%.1f,"
              "\"bspan_us\":%.1f,\"par\":%.3f}",
              w.req_id, static_cast<double>(w.work_ns) / 1e3,
              static_cast<double>(w.span_ns) / 1e3,
              static_cast<double>(w.bspan_ns) / 1e3,
              static_cast<double>(w.par_milli) / 1e3);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string parallelism_stats_text(const MetricsRegistry& m,
                                   const std::string& prefix,
                                   const std::string& eol) {
  std::string out;
  char buf[256];
  for (int level = 0; level < m.num_levels(); ++level) {
    const MetricsRegistry::SpLevelStats* s = m.sp_level(level);
    if (s == nullptr || s->span_ns.count() == 0) continue;
    auto line = [&](const char* name, std::uint64_t v) {
      std::snprintf(buf, sizeof(buf), "STAT %sl%d_%s %" PRIu64,
                    prefix.c_str(), level, name, v);
      out += buf;
      out += eol;
    };
    line("par_count", s->count.load(std::memory_order_relaxed));
    line("work_p50_us", s->work_ns.percentile_ns(0.5) / 1000);
    line("work_p99_us", s->work_ns.percentile_ns(0.99) / 1000);
    line("span_p50_us", s->span_ns.percentile_ns(0.5) / 1000);
    line("span_p99_us", s->span_ns.percentile_ns(0.99) / 1000);
    line("bspan_p50_us", s->bspan_ns.percentile_ns(0.5) / 1000);
    line("bspan_p99_us", s->bspan_ns.percentile_ns(0.99) / 1000);
    line("par_p10_milli", s->par_milli.percentile_ns(0.1));
    line("par_p50_milli", s->par_milli.percentile_ns(0.5));
    line("par_p90_milli", s->par_milli.percentile_ns(0.9));
    int rank = 0;
    for (const MetricsRegistry::SpWorst& w : m.worst_parallelism(level)) {
      std::snprintf(buf, sizeof(buf),
                    "STAT %sl%d_leastpar%d id=%" PRIu64 " work_us=%" PRIu64
                    " span_us=%" PRIu64 " bspan_us=%" PRIu64 " par=%.3f",
                    prefix.c_str(), level, rank, w.req_id, w.work_ns / 1000,
                    w.span_ns / 1000, w.bspan_ns / 1000,
                    static_cast<double>(w.par_milli) / 1e3);
      out += buf;
      out += eol;
      ++rank;
    }
  }
  return out;
}

}  // namespace icilk::obs
