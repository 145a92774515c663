#include "obs/timeseries.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "concurrent/spinlock.hpp"  // cpu_relax
#include "obs/flightrec.hpp"        // json_escape
#include "obs/metrics.hpp"

namespace icilk::obs {

namespace {

// The cumulative counters an epoch deltas (summed across levels).
constexpr EventKind kDeltaKinds[] = {
    EventKind::kSteal,    EventKind::kMug,        EventKind::kAbandon,
    EventKind::kResume,   EventKind::kIoSubmit,   EventKind::kIoComplete,
};

void assign_delta(TsEpoch& e, EventKind k, std::uint64_t d) {
  switch (k) {
    case EventKind::kSteal: e.steals = d; break;
    case EventKind::kMug: e.mugs = d; break;
    case EventKind::kAbandon: e.abandons = d; break;
    case EventKind::kResume: e.resumes = d; break;
    case EventKind::kIoSubmit: e.io_submits = d; break;
    case EventKind::kIoComplete: e.io_completes = d; break;
    default: break;
  }
}

}  // namespace

TimeSeries::TimeSeries(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.epoch_ms < 1) cfg_.epoch_ms = 1;
  if (cfg_.epochs < 1) cfg_.epochs = 1;
  ring_.resize(static_cast<std::size_t>(cfg_.epochs));
  epoch_open_ns_ = now_ns();
  if (cfg_.metrics != nullptr) {
    // Baseline the delta memory so the first epoch reports only activity
    // since construction, not since process start.
    for (EventKind k : kDeltaKinds) {
      prev_counts_[static_cast<int>(k)] = cfg_.metrics->counter_total(k);
    }
    prev_sp_reqs_ = cfg_.metrics->sp_total_requests();
    prev_sp_work_ = cfg_.metrics->sp_total_work_ns();
    prev_sp_span_ = cfg_.metrics->sp_total_span_ns();
  }
}

TimeSeries::~TimeSeries() {
  stop();
  for (Slot& s : slots_) {
    for (auto& h : s.lv) {
      delete h.load(std::memory_order_acquire);
    }
  }
}

void TimeSeries::start() {
  std::lock_guard<std::mutex> lk(life_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> rl(mu_);
    epoch_open_ns_ = now_ns();
  }
  thread_ = std::thread([this] { loop(); });
  running_.store(true, std::memory_order_release);
}

void TimeSeries::stop() {
  std::lock_guard<std::mutex> lk(life_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> sl(stop_mu_);
    stop_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void TimeSeries::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.epoch_ms), [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    tick_once();
  }
}

load::Histogram* TimeSeries::slot_hist(Slot& s, int level) noexcept {
  load::Histogram* h = s.lv[level].load(std::memory_order_acquire);
  if (h != nullptr) return h;
  auto* fresh = new load::Histogram();
  load::Histogram* expected = nullptr;
  if (s.lv[level].compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;  // lost the race; use the winner
  return expected;
}

void TimeSeries::record(int level, std::uint64_t latency_ns) noexcept {
  if (level < 0 || level >= TsEpoch::kMaxLevels) return;
  // Slot entry protocol: announce in-flight, then re-check that the slot
  // was not retired by a concurrent flip. A recorder that loses the race
  // retries on the new active slot; the ticker waits for in-flight == 0
  // before digesting, so no sample is ever wiped by the reset pass.
  for (;;) {
    const std::uint32_t idx = active_.load(std::memory_order_acquire);
    Slot& s = slots_[idx & 1];
    s.inflight.fetch_add(1, std::memory_order_acquire);
    if (active_.load(std::memory_order_acquire) == idx) {
      slot_hist(s, level)->record(latency_ns);
      s.inflight.fetch_sub(1, std::memory_order_release);
      return;
    }
    s.inflight.fetch_sub(1, std::memory_order_release);
  }
}

void TimeSeries::tick_once() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint32_t old = active_.load(std::memory_order_relaxed);
  active_.store(old ^ 1, std::memory_order_release);
  Slot& s = slots_[old & 1];
  // Quiesce: stragglers that entered the retired slot before the flip
  // finish their (nanosecond-scale) record; late arrivals re-check the
  // flip and move to the new slot.
  while (s.inflight.load(std::memory_order_acquire) != 0) {
    cpu_relax();
  }
  const std::uint64_t now = now_ns();

  TsEpoch e;
  e.seq = epochs_closed_.load(std::memory_order_relaxed);
  e.t_ns = now;
  e.duration_ns = now > epoch_open_ns_ ? now - epoch_open_ns_ : 0;
  digest_into(e, s, now, epoch_open_ns_);
  epoch_open_ns_ = now;

  ring_[ring_next_] = e;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_size_ < ring_.size()) ++ring_size_;
  epochs_closed_.fetch_add(1, std::memory_order_relaxed);
}

void TimeSeries::digest_into(TsEpoch& e, Slot& s, std::uint64_t /*now*/,
                             std::uint64_t /*open_ns*/) {
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    load::Histogram* h = s.lv[p].load(std::memory_order_acquire);
    if (h == nullptr) continue;
    const std::uint64_t n = h->count();
    if (n != 0) {
      e.lat[p].count = n;
      e.lat[p].p50_ns = h->percentile_ns(0.50);
      e.lat[p].p99_ns = h->percentile_ns(0.99);
      e.lat[p].max_ns = h->max_ns();
    }
    h->reset();
  }
  if (cfg_.metrics != nullptr) {
    for (EventKind k : kDeltaKinds) {
      const std::uint64_t cur = cfg_.metrics->counter_total(k);
      std::uint64_t& prev = prev_counts_[static_cast<int>(k)];
      assign_delta(e, k, cur >= prev ? cur - prev : 0);
      prev = cur;
    }
    const std::uint64_t reqs = cfg_.metrics->sp_total_requests();
    const std::uint64_t work = cfg_.metrics->sp_total_work_ns();
    const std::uint64_t span = cfg_.metrics->sp_total_span_ns();
    e.sp_reqs = reqs >= prev_sp_reqs_ ? reqs - prev_sp_reqs_ : 0;
    e.sp_work_ns = work >= prev_sp_work_ ? work - prev_sp_work_ : 0;
    e.sp_span_ns = span >= prev_sp_span_ ? span - prev_sp_span_ : 0;
    prev_sp_reqs_ = reqs;
    prev_sp_work_ = work;
    prev_sp_span_ = span;
  }
  if (cfg_.sample_fn) {
    WdSample ws;
    ws.t_ns = e.t_ns;  // fillers compute census ages relative to this
    cfg_.sample_fn(ws);
    e.bitfield = ws.bitfield;
    e.num_levels = ws.num_levels;
    for (int p = 0; p < TsEpoch::kMaxLevels && p < WdSample::kMaxLevels; ++p) {
      e.pool_depth[p] = ws.pool_depth[p];
      e.mug_depth[p] = ws.mug_depth[p];
    }
    e.sleepers = ws.sleepers;
    e.io_armed = ws.io_armed;
    e.timers_pending = ws.timers_pending;
  }
}

std::vector<TsEpoch> TimeSeries::epochs() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TsEpoch> out;
  out.reserve(ring_size_);
  const std::size_t cap = ring_.size();
  const std::size_t first = (ring_next_ + cap - ring_size_) % cap;
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(first + i) % cap]);
  }
  return out;
}

TsEpoch TimeSeries::latest() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_size_ == 0) return TsEpoch{};
  const std::size_t cap = ring_.size();
  return ring_[(ring_next_ + cap - 1) % cap];
}

namespace {

void write_epoch(std::ostream& os, const TsEpoch& e) {
  os << "{\"seq\":" << e.seq;
  os << ",\"t_ns\":" << e.t_ns;
  os << ",\"duration_ns\":" << e.duration_ns;
  os << ",\"steals\":" << e.steals << ",\"mugs\":" << e.mugs
     << ",\"abandons\":" << e.abandons << ",\"resumes\":" << e.resumes;
  os << ",\"io_submits\":" << e.io_submits
     << ",\"io_completes\":" << e.io_completes;
  os << ",\"sp_reqs\":" << e.sp_reqs << ",\"sp_work_ns\":" << e.sp_work_ns
     << ",\"sp_span_ns\":" << e.sp_span_ns;
  os << ",\"sleepers\":" << e.sleepers << ",\"io_armed\":" << e.io_armed
     << ",\"timers_pending\":" << e.timers_pending;
  char hexbuf[24];
  std::snprintf(hexbuf, sizeof hexbuf, "0x%llx",
                static_cast<unsigned long long>(e.bitfield));
  os << ",\"bitfield\":\"" << hexbuf << '"';
  os << ",\"levels\":{";
  bool first = true;
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    const auto& l = e.lat[p];
    if (l.count == 0 && e.pool_depth[p] == 0 && e.mug_depth[p] == 0) {
      continue;  // most of the 64 levels are silent; keep documents small
    }
    if (!first) os << ',';
    first = false;
    os << '"' << p << "\":{\"count\":" << l.count
       << ",\"p50_ns\":" << l.p50_ns << ",\"p99_ns\":" << l.p99_ns
       << ",\"max_ns\":" << l.max_ns << ",\"pool\":" << e.pool_depth[p]
       << ",\"mug\":" << e.mug_depth[p] << '}';
  }
  os << "}}";
}

}  // namespace

std::string TimeSeries::json(std::size_t max_epochs) const {
  std::vector<TsEpoch> eps = epochs();
  if (max_epochs != 0 && eps.size() > max_epochs) {
    // Keep the NEWEST max_epochs (the ring is oldest-first).
    eps.erase(eps.begin(),
              eps.begin() + static_cast<std::ptrdiff_t>(eps.size() -
                                                        max_epochs));
  }
  std::ostringstream os;
  os << "{\"timeseries\":1";
  os << ",\"compiled_in\":" << (hooks_compiled_in() ? "true" : "false");
  os << ",\"scheduler\":\"" << json_escape(cfg_.scheduler) << '"';
  os << ",\"epoch_ms\":" << cfg_.epoch_ms;
  os << ",\"capacity\":" << cfg_.epochs;
  os << ",\"epochs_closed\":" << epochs_closed();
  os << ",\"epochs\":[";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (i) os << ',';
    write_epoch(os, eps[i]);
  }
  os << "]}\n";
  return os.str();
}

std::string TimeSeries::stats_text(const std::string& prefix,
                                   const std::string& eol) const {
  const TsEpoch e = latest();
  std::string out;
  char buf[160];
  auto stat = [&](const char* name, long long v) {
    std::snprintf(buf, sizeof buf, "STAT %sts_%s %lld", prefix.c_str(), name,
                  v);
    out += buf;
    out += eol;
  };
  stat("compiled_in", hooks_compiled_in() ? 1 : 0);
  stat("epoch_ms", cfg_.epoch_ms);
  stat("epochs_closed", static_cast<long long>(epochs_closed()));
  stat("last_duration_us", static_cast<long long>(e.duration_ns / 1000));
  stat("last_steals", static_cast<long long>(e.steals));
  stat("last_mugs", static_cast<long long>(e.mugs));
  stat("last_abandons", static_cast<long long>(e.abandons));
  stat("last_resumes", static_cast<long long>(e.resumes));
  stat("last_io_submits", static_cast<long long>(e.io_submits));
  stat("last_io_completes", static_cast<long long>(e.io_completes));
  stat("last_sp_reqs", static_cast<long long>(e.sp_reqs));
  stat("last_sp_work_us", static_cast<long long>(e.sp_work_ns / 1000));
  stat("last_sp_span_us", static_cast<long long>(e.sp_span_ns / 1000));
  stat("last_sleepers", e.sleepers);
  stat("last_io_armed", static_cast<long long>(e.io_armed));
  stat("last_timers_pending", static_cast<long long>(e.timers_pending));
  char name[32];
  for (int p = 0; p < TsEpoch::kMaxLevels; ++p) {
    const auto& l = e.lat[p];
    if (l.count == 0) continue;
    std::snprintf(name, sizeof name, "l%d_count", p);
    stat(name, static_cast<long long>(l.count));
    std::snprintf(name, sizeof name, "l%d_p50_us", p);
    stat(name, static_cast<long long>(l.p50_ns / 1000));
    std::snprintf(name, sizeof name, "l%d_p99_us", p);
    stat(name, static_cast<long long>(l.p99_ns / 1000));
    std::snprintf(name, sizeof name, "l%d_max_us", p);
    stat(name, static_cast<long long>(l.max_ns / 1000));
  }
  return out;
}

}  // namespace icilk::obs
