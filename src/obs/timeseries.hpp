// Windowed time-series telemetry: epoch-sliced latency digests, counter
// deltas, and scheduler gauges over a bounded ring of recent windows.
//
// Every other observability surface (MetricsRegistry, /metrics, /latency,
// flight bundles) reports cumulative-since-start aggregates, which average
// a burst away: a 30s run with a 5s burst in the middle shows one blended
// p99. This module adds the time axis. A background ticker closes an
// epoch (default 1s) by
//
//   * digesting the per-priority request-latency histograms that
//     accumulated during the window (p50/p99/max + completion count —
//     i.e. per-level throughput),
//   * snapshotting DELTAS of the MetricsRegistry scheduler counters
//     (steals / mugs / abandons / resumes / I/O submits+completes) against
//     the previous epoch's totals, and
//   * pulling instantaneous scheduler gauges (active-level bitfield,
//     per-level pool + mugging depth, sleepers, reactor armed ops and
//     pending timers) through the same sample callback the watchdog uses,
//
// then pushes the digest into a ring of the last N epochs. The ring is
// exposed as JSON (`/timeseries` on the metrics endpoint), as a
// `stats icilk timeseries` STAT group, and embedded in watchdog flight
// bundles so a trip carries the preceding seconds of windowed history.
//
// Hot-path cost model (mirrors watchdog / reqtrace):
//   * ICILK_HOOKS=OFF (-DICILK_HOOKS_ENABLED=0): the
//     ts_note_request hook below inlines to nothing and the runtime never
//     instantiates a TimeSeries; no hot-path object references a
//     timeseries symbol (scripts/soak.sh hooksoff proves it with nm, plus
//     probe==baseline in bench/micro_timeseries). The class itself stays
//     compiled — tests and tools drive it with synthetic samples.
//   * Compiled in + enabled: per COMPLETED request (never the spawn/steal
//     fast path), two loads of the active-slot index, an in-flight
//     inc/dec pair guarding the slot, and one lock-free Histogram record
//     (the same log-linear buckets as src/load/histogram.hpp). The ticker
//     itself is a background thread doing one digest pass per epoch.
//
// Epoch slicing uses two slot arrays of per-level histograms: recorders
// index slots_[active_]; the ticker flips active_ and digests the now
// inactive slot. Recorders hold a per-slot in-flight count around the
// histogram record (increment, re-check the flip, record, decrement) and
// the ticker waits for the retired slot to quiesce before digesting, so
// a sample that races the flip lands in either the closing epoch or the
// next one (a one-epoch attribution blur) but is NEVER lost — the
// record-vs-tick test asserts exact conservation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/clock.hpp"
#include "load/histogram.hpp"
#include "obs/trace.hpp"     // EventKind (which counters we delta)
#include "obs/watchdog.hpp"  // WdSample (the shared gauge snapshot shape)

#include "obs/hooks.hpp"

namespace icilk::obs {

class MetricsRegistry;

// ---------------------------------------------------------------------------
// One closed epoch
// ---------------------------------------------------------------------------

/// Digest of one closed window: plain data, fixed size, copyable.
struct TsEpoch {
  static constexpr int kMaxLevels = 64;

  std::uint64_t seq = 0;          ///< 0-based epoch number since start()
  std::uint64_t t_ns = 0;         ///< now_ns() when the epoch closed
  std::uint64_t duration_ns = 0;  ///< actual window width (ticker jitter)

  /// Per-priority latency digest of requests that COMPLETED this epoch.
  /// count/duration is the per-level completion throughput.
  struct LevelLat {
    std::uint64_t count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t max_ns = 0;
  };
  LevelLat lat[kMaxLevels];

  // Scheduler counter deltas over the window (summed across levels, from
  // MetricsRegistry::counter_total; all zero when no registry is wired).
  std::uint64_t steals = 0;
  std::uint64_t mugs = 0;
  std::uint64_t abandons = 0;
  std::uint64_t resumes = 0;
  std::uint64_t io_submits = 0;
  std::uint64_t io_completes = 0;

  // Work/span profiler deltas over the window (from the registry's
  // cumulative spanprof totals; all zero when no registry is wired or the
  // profiler is off): requests measured, total work, total span. Per-epoch
  // work/duration is the window's task-CPU utilization numerator.
  std::uint64_t sp_reqs = 0;
  std::uint64_t sp_work_ns = 0;
  std::uint64_t sp_span_ns = 0;

  // Instantaneous gauges at epoch close (from the sample callback; all
  // zero when none is wired).
  std::uint64_t bitfield = 0;
  std::int32_t num_levels = 0;
  std::uint32_t pool_depth[kMaxLevels] = {};
  std::uint32_t mug_depth[kMaxLevels] = {};
  std::int32_t sleepers = 0;
  std::int64_t io_armed = 0;
  std::int64_t timers_pending = 0;
};

// ---------------------------------------------------------------------------
// The timeseries itself
// ---------------------------------------------------------------------------

/// Epoch ticker + histogram slots + digest ring. Always compiled (the
/// compile-out contract is about the ts_note_request hot-path hook; this
/// is a cold background object the runtime simply never creates when the
/// subsystem is off). Thread-safe: any number of recorders, the ticker,
/// and endpoint readers may run concurrently.
class TimeSeries {
 public:
  struct Config {
    /// Window width. 1s matches the client-side per-epoch RESULT rows of
    /// bench/fig_burst so scripts/tsreport.py can join the two axes.
    int epoch_ms = 1000;
    /// Retained epochs (the ring /timeseries and flight bundles expose).
    int epochs = 120;

    /// Optional: counter deltas are computed against this registry.
    MetricsRegistry* metrics = nullptr;
    /// Optional: fills the gauge snapshot at each epoch close. The
    /// runtime binds the same filler the watchdog uses
    /// (Runtime::wd_fill_sample); tests may synthesize samples.
    std::function<void(WdSample&)> sample_fn;
    /// Active scheduling policy name (stamped into the JSON document).
    std::string scheduler;
  };

  explicit TimeSeries(Config cfg);
  ~TimeSeries();  // stops the ticker thread, frees the slot histograms

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Starts the background epoch ticker. Idempotent.
  void start();
  /// Stops and joins the ticker. Idempotent; safe with recorders live.
  void stop();
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Records one completed request into the current epoch's slot. Called
  /// through the ts_note_request hook below; lock-free.
  void record(int level, std::uint64_t latency_ns) noexcept;

  /// Closes the current epoch synchronously on the calling thread (tests
  /// drive the ring deterministically with this; the ticker thread calls
  /// the same path).
  void tick_once();

  std::uint64_t epochs_closed() const noexcept {
    return epochs_closed_.load(std::memory_order_relaxed);
  }
  /// Copy of the retained ring, oldest first.
  std::vector<TsEpoch> epochs() const;
  /// Most recent closed epoch (zeroed when none closed yet).
  TsEpoch latest() const;

  // ---- exposition ----

  /// Full JSON document: config header + the ring, oldest first (the
  /// /timeseries endpoint body; also embedded in flight bundles).
  /// `max_epochs` > 0 bounds the document to the NEWEST that many epochs
  /// (the /timeseries?n=K window); 0 means the whole ring.
  std::string json(std::size_t max_epochs = 0) const;
  /// "STAT <prefix>ts_<name> <value>" lines for the latest epoch (the
  /// `stats icilk timeseries` group; eol is "\r\n" there).
  std::string stats_text(const std::string& prefix,
                         const std::string& eol) const;

  const Config& config() const noexcept { return cfg_; }

 private:
  /// Per-level histogram bank for one epoch slot. Histograms allocate
  /// lazily on first record at that level (most of the 64 levels never
  /// serve requests; eager allocation would be 2 x 64 x 20KB of memset).
  struct Slot {
    std::atomic<load::Histogram*> lv[TsEpoch::kMaxLevels] = {};
    /// Recorders currently inside record() on this slot; the ticker
    /// waits for 0 after retiring the slot so the digest-and-reset pass
    /// never races (and never drops) a straggler sample.
    std::atomic<std::uint32_t> inflight{0};
  };

  void loop();
  load::Histogram* slot_hist(Slot& s, int level) noexcept;
  void digest_into(TsEpoch& e, Slot& s, std::uint64_t now,
                   std::uint64_t open_ns);

  Config cfg_;
  std::mutex life_mu_;  ///< serializes start/stop (never held with mu_)
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::condition_variable stop_cv_;  ///< wakes the ticker early on stop()
  std::mutex stop_mu_;

  Slot slots_[2];
  std::atomic<std::uint32_t> active_{0};

  // Ring + delta memory. A plain mutex is fine — the ticker runs at ~1Hz
  // and readers are stats endpoints, never the scheduler hot path.
  mutable std::mutex mu_;
  std::vector<TsEpoch> ring_;  // capacity cfg_.epochs
  std::size_t ring_next_ = 0;  // next write slot
  std::size_t ring_size_ = 0;  // valid entries
  std::uint64_t epoch_open_ns_ = 0;  ///< when the current window opened
  /// Previous cumulative counter totals (delta baseline), indexed by the
  /// EventKind values digest_into deltas.
  std::uint64_t prev_counts_[static_cast<int>(EventKind::kCount)] = {};
  /// Spanprof cumulative-total baselines (same delta discipline).
  std::uint64_t prev_sp_reqs_ = 0;
  std::uint64_t prev_sp_work_ = 0;
  std::uint64_t prev_sp_span_ = 0;

  std::atomic<std::uint64_t> epochs_closed_{0};
};

// ---------------------------------------------------------------------------
// Hot-path hook
// ---------------------------------------------------------------------------

#if ICILK_HOOKS_ENABLED

/// Folds a completed request into the current epoch. The runtime calls
/// this beside MetricsRegistry::record_request; `ts` is null when the
/// subsystem is compiled in but not enabled for this runtime.
inline void ts_note_request(TimeSeries* ts, int level,
                            std::uint64_t latency_ns) noexcept {
  if (ts != nullptr) ts->record(level, latency_ns);
}

#else  // !ICILK_HOOKS_ENABLED

inline void ts_note_request(TimeSeries*, int, std::uint64_t) noexcept {}

#endif  // ICILK_HOOKS_ENABLED

}  // namespace icilk::obs
