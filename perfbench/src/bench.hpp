// Shared pieces of the perfbench binary: options, the run report, sample
// statistics, and readers for process CPU, memory and host steal time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/clock.hpp"

namespace pb {

using icilk::now_ns;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One run's result: the final JSON line plus `#`-prefixed info lines that
/// record the host and the ungated tail next to the metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& line) { info_.push_back(line); }
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return checks_failed_ == 0; }

  /// Prints the info lines, then the result JSON as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  int checks_failed_ = 0;
};

/// Quantile with linear interpolation between order statistics (the
/// definition numpy and R call type 7). Sorts `v` in place; 0 when empty.
double quantile(std::vector<double>& v, double q);

/// The highest of p99, p99.9, p99.99, ... that still has at least ten
/// samples beyond it, formatted with the sample counts.
std::string tail_line(const char* label, std::vector<double>& lat_ns);

/// Spins until the steady clock reads `due_ns` or later.
inline void spin_until(std::uint64_t due_ns) {
  while (now_ns() < due_ns) __builtin_ia32_pause();
}

/// Process-wide CPU time (user + system, all threads), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Cumulative steal ticks from /proc/stat and when they were read.
struct StealClock {
  std::uint64_t steal_ticks = 0;
  std::uint64_t at_ns = 0;
  static StealClock read();
  /// Share of the host's cores the hypervisor took between `a` and `b`.
  static double frac(const StealClock& a, const StealClock& b);
};

int online_cores();

/// One second of a measured window: its latencies, server CPU and host
/// steal. Requests belong to the slice their due time falls in.
struct Slice {
  double seconds = 0;       ///< scheduled length
  double steal_frac = 0;    ///< share of the cores the hypervisor took
  double server_cpu_s = 0;  ///< process CPU minus the generator thread
  std::uint64_t completed = 0;
  std::uint64_t within_limit = 0;  ///< completed correctly within the limit
  std::vector<double> lat_ns;      ///< every completed request
  std::vector<double> top_ns;      ///< the workload's first request class
  std::vector<double> bottom_ns;   ///< the workload's last request class

  void merge(const Slice& o);
  double cpu_us_per_req() const {
    return completed == 0 ? 0 : server_cpu_s * 1e6 / static_cast<double>(completed);
  }
};

inline constexpr std::uint64_t kSliceNs = 1'000'000'000;

/// Slices in which the hypervisor stole more than this share of the cores
/// are left out of the latency, CPU and goodput metrics: in them the run
/// measured the host. Steal is read from /proc/stat, independently of the
/// metrics it filters.
inline constexpr double kMaxSliceSteal = 0.01;

/// Clock readings at a slice boundary (taken on the generator thread).
struct SliceClock {
  StealClock steal;
  double proc_cpu_s = 0, gen_cpu_s = 0;
  static SliceClock read();
  /// Fills the host and CPU fields of `s` for the interval a..b.
  static void close(const SliceClock& a, const SliceClock& b, Slice& s);
};

/// One measured window of an open-loop workload. Latencies are measured
/// from each request's due time, so a stall also charges the requests
/// queued behind it.
struct Window {
  double seconds = 0;        ///< scheduled length (first to last due time)
  std::uint64_t t0 = 0;      ///< due time of offset 0
  std::uint64_t attempted = 0, completed = 0, failed = 0;
  std::vector<Slice> slices;
  std::vector<double> late_ns;  ///< generator lateness, every request
  double gen_busy_s = 0;        ///< generator time not spent waiting
  double steal_frac = 0;        ///< whole window

  /// Sizes `slices` for `seconds`, with their scheduled lengths.
  void init(double seconds, std::size_t requests);
  Slice& slice_of(std::uint64_t due_ns);
  /// The slices the metrics rest on, merged: those with steal at most
  /// kMaxSliceSteal, or the half with the least steal if fewer remain.
  Slice kept(std::size_t* count = nullptr) const;
};

/// Adds the end-to-end metrics of `w` (and the ungated tail and host info
/// lines) to `r`.
void end_to_end_metrics(Report& r, Window& w, double setup_s);

/// Records every set-up repetition and returns their median.
double setup_median(Report& r, std::vector<double> reps);

/// Keeps a computed value observable so timed calls are not optimised out.
inline void keep(std::size_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// Deterministic 64-bit mixer (splitmix64 finaliser).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace pb
