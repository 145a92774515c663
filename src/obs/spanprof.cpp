#include "obs/spanprof.hpp"

#if ICILK_HOOKS_ENABLED

#include <atomic>

#include "concurrent/clock.hpp"

namespace icilk::obs {

namespace {

/// The armed strand: which acc this OS thread is charging, and the
/// strand-clock (TSC) reading at the last flush. Only ever touched through the
/// out-of-line functions below, so fiber code can never cache a stale
/// thread's slot across a park (the reqtrace noipa discipline).
struct SpStrand {
  SpanAcc* acc = nullptr;
  std::uint64_t start_ns = 0;
  bool precise = false;  ///< thread-CPU clock instead of TSC wall
};

thread_local SpStrand tls_strand;

std::uint64_t sp_read_clock(const SpStrand& s) noexcept {
  return s.precise ? now_cpu_ns() : now_strand_ns();
}

/// Burden EWMA in ns, alpha = 1/8, seeded lazily by the first sample.
/// One process-wide estimator: scheduler overhead is a property of the
/// host + build, not of any single runtime instance.
std::atomic<std::uint64_t> g_burden_ewma{0};

}  // namespace

void sp_dispatch(SpanAcc* acc, bool enabled, bool precise) noexcept {
  SpStrand& s = tls_strand;
  s.acc = enabled ? acc : nullptr;
  s.precise = precise;
  if (s.acc != nullptr) s.start_ns = sp_read_clock(s);
}

void sp_undispatch() noexcept {
  SpStrand& s = tls_strand;
  if (s.acc != nullptr) {
    const std::uint64_t now = sp_read_clock(s);
    const std::uint64_t e = now - s.start_ns;
    s.acc->work += e;
    s.acc->depth += e;
    s.acc->bdepth += e;
    s.acc = nullptr;
  }
}

SpanAcc* sp_strand_now() noexcept {
  SpStrand& s = tls_strand;
  if (s.acc == nullptr) return nullptr;
  const std::uint64_t now = sp_read_clock(s);
  const std::uint64_t e = now - s.start_ns;
  s.start_ns = now;
  s.acc->work += e;
  s.acc->depth += e;
  s.acc->bdepth += e;
  return s.acc;
}

void sp_note_overhead(std::uint64_t delay_ns) noexcept {
  std::uint64_t prev = g_burden_ewma.load(std::memory_order_relaxed);
  const std::uint64_t next =
      prev == 0 ? delay_ns : prev - (prev >> 3) + (delay_ns >> 3);
  // Racy losers just drop a sample; the EWMA doesn't care.
  g_burden_ewma.store(next, std::memory_order_relaxed);
  (void)prev;
}

std::uint64_t sp_overhead_est() noexcept {
  return g_burden_ewma.load(std::memory_order_relaxed);
}

}  // namespace icilk::obs

#endif  // ICILK_HOOKS_ENABLED
