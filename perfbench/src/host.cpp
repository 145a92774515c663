#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace pb {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  info("check " + what + (ok ? " ok" : " FAILED"));
  if (!ok) ++checks_failed_;
}

void Report::print() const {
  for (const auto& l : info_) std::printf("# %s\n", l.c_str());
  std::string js = "{\"correct\": ";
  js += correct() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    // A non-finite value (no samples) is not valid JSON; report -1.
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (i) js += ", ";
    js += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
          m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string tail_line(const char* label, std::vector<double>& lat_ns) {
  const double n = static_cast<double>(lat_ns.size());
  char buf[256];
  const double p99 = quantile(lat_ns, 0.99);
  double q = 0.99;
  while (n * (1 - q) / 10 >= 10) q = 1 - (1 - q) / 10;  // 0.999, ...
  const double hi = quantile(lat_ns, q);
  std::snprintf(buf, sizeof(buf),
                "tail %s samples=%.0f p99_ms=%.4f (%.0f beyond) "
                "p%.6g_ms=%.4f (%.0f beyond)",
                label, n, p99 / 1e6, std::floor(n * 0.01), q * 100,
                hi / 1e6, std::floor(n * (1 - q)));
  return buf;
}

void Slice::merge(const Slice& o) {
  seconds += o.seconds;
  server_cpu_s += o.server_cpu_s;
  completed += o.completed;
  within_limit += o.within_limit;
  lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
  top_ns.insert(top_ns.end(), o.top_ns.begin(), o.top_ns.end());
  bottom_ns.insert(bottom_ns.end(), o.bottom_ns.begin(), o.bottom_ns.end());
}

SliceClock SliceClock::read() {
  SliceClock c;
  c.steal = StealClock::read();
  c.proc_cpu_s = process_cpu_s();
  c.gen_cpu_s = thread_cpu_s();
  return c;
}

void SliceClock::close(const SliceClock& a, const SliceClock& b, Slice& s) {
  s.steal_frac = StealClock::frac(a.steal, b.steal);
  s.server_cpu_s = (b.proc_cpu_s - a.proc_cpu_s) - (b.gen_cpu_s - a.gen_cpu_s);
}

void Window::init(double secs, std::size_t requests) {
  seconds = secs;
  attempted = requests;
  const auto n = static_cast<std::size_t>(std::ceil(secs * 1e9 / kSliceNs));
  slices.assign(std::max<std::size_t>(n, 1), Slice{});
  // Reserved up front, so the benchmark's own memory (part of rss_mb) is
  // the same from run to run.
  const std::size_t per_slice = requests / slices.size() * 5 / 4 + 64;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    Slice& s = slices[k];
    s.seconds = std::min(1.0, secs - static_cast<double>(k));
    s.lat_ns.reserve(per_slice);
    s.top_ns.reserve(per_slice);
    s.bottom_ns.reserve(per_slice);
  }
  late_ns.reserve(requests);
}

Slice& Window::slice_of(std::uint64_t due_ns) {
  const std::uint64_t k = due_ns > t0 ? (due_ns - t0) / kSliceNs : 0;
  return slices[std::min<std::size_t>(k, slices.size() - 1)];
}

Slice Window::kept(std::size_t* count) const {
  std::vector<const Slice*> order;
  for (const Slice& s : slices) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(), [](const Slice* a, const Slice* b) {
    return a->steal_frac < b->steal_frac;
  });
  std::size_t n = 0;
  while (n < order.size() && order[n]->steal_frac <= kMaxSliceSteal) ++n;
  n = std::max(n, (order.size() + 1) / 2);
  Slice out;
  for (std::size_t i = 0; i < n; ++i) out.merge(*order[i]);
  if (count != nullptr) *count = n;
  return out;
}

void end_to_end_metrics(Report& r, Window& w, double setup_s) {
  const double rss_mb = peak_rss_mb();  // before the merges below
  std::size_t kept_n = 0;
  Slice k = w.kept(&kept_n);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host steal_frac=%.6f slices_kept=%zu/%zu (steal <= %.2f)",
                w.steal_frac, kept_n, w.slices.size(), kMaxSliceSteal);
  r.info(buf);
  std::snprintf(buf, sizeof(buf), "load late_p50_us=%.3f busy_frac=%.4f",
                quantile(w.late_ns, 0.5) / 1e3, w.gen_busy_s / w.seconds);
  r.info(buf);
  r.info(tail_line("kept", k.lat_ns));
  std::snprintf(buf, sizeof(buf),
                "window attempted=%llu completed=%llu failed=%llu "
                "seconds=%.3f kept_within_limit=%llu kept_seconds=%.3f",
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.completed),
                static_cast<unsigned long long>(w.failed), w.seconds,
                static_cast<unsigned long long>(k.within_limit), k.seconds);
  r.info(buf);
  r.metric("setup_s", setup_s, "s");
  r.metric("p50_ms", quantile(k.lat_ns, 0.5) / 1e6, "ms");
  r.metric("p90_ms", quantile(k.lat_ns, 0.9) / 1e6, "ms");
  r.metric("top_p50_ms", quantile(k.top_ns, 0.5) / 1e6, "ms");
  r.metric("bottom_p50_ms", quantile(k.bottom_ns, 0.5) / 1e6, "ms");
  r.metric("cpu_us_per_req", k.cpu_us_per_req(), "us");
  r.metric("goodput_rps", static_cast<double>(k.within_limit) / k.seconds,
           "1/s");
  r.metric("rss_mb", rss_mb, "MiB");
}

double setup_median(Report& r, std::vector<double> reps) {
  std::string line = "setup reps_s";
  for (const double x : reps) line += " " + std::to_string(x);
  r.info(line);
  return quantile(reps, 0.5);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int online_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

StealClock StealClock::read() {
  StealClock s;
  s.at_ns = now_ns();
  std::ifstream f("/proc/stat");
  std::string line;
  if (std::getline(f, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t v[8] = {};
    for (auto& x : v) in >> x;  // user nice system idle iowait irq softirq steal
    s.steal_ticks = v[7];
  }
  return s;
}

double StealClock::frac(const StealClock& a, const StealClock& b) {
  const double window_s = static_cast<double>(b.at_ns - a.at_ns) * 1e-9;
  if (window_s <= 0) return 0;
  const double ticks = static_cast<double>(b.steal_ticks - a.steal_ticks);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) /
         (window_s * online_cores());
}

}  // namespace pb
