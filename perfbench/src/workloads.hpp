// The benchmark's workloads. Each entry point runs one workload end to end
// (set-up, measured window, checks) and returns the filled report.
#pragma once

#include "bench.hpp"
#include "probes.hpp"

namespace pb {

/// mc_read / mc_write: minicached over loopback.
Report run_mc(const Options& o);
/// email: the in-process email server.
Report run_email(const Options& o);

/// mc_read's store configuration, keys, values and request bytes, for the
/// kv probes of workloads that have no store of their own.
KvInputs mc_read_kv_inputs(std::uint64_t seed);

/// Poisson arrival offsets (ns from the window start) at `rps` over
/// `seconds`, drawn from `seed`.
std::vector<std::uint64_t> poisson_offsets(double rps, double seconds,
                                           std::uint64_t seed);

/// Thread and connection budget, printed with every run: server workers,
/// I/O threads, the generator thread, connections.
inline constexpr int kWorkers = 2;
inline constexpr int kMcIoThreads = 1;
inline constexpr int kMcConnections = 4;

/// Untraced runs set up this many times and report the median set-up
/// time; the last server set up is the one measured.
inline constexpr int kSetupReps = 5;

/// A traced run measures two back-to-back windows of half the run length
/// each, untraced then traced, so tracing's own cost can be reported.
inline double window_seconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

}  // namespace pb
