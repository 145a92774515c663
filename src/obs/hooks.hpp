// The one compile-out switch for every observability and fault-injection
// hook: trace rings, request tracing, the watchdog, the sampling profiler,
// the time-series ticker, the work/span profiler and the inject
// crosspoints.
//
// Configuring with -DICILK_HOOKS=OFF defines ICILK_HOOKS_ENABLED=0, and
// every hook site in the scheduler, deque, runtime and reactor folds to
// nothing (scripts/soak.sh hooksoff proves the hot-path objects are
// nm-clean and that bench/micro_obs_hooks' hook rows cost the baseline).
// The classes themselves stay compiled, so every surface still answers,
// reporting `compiled_in` false.
//
// Builds that include these headers without the top-level CMakeLists.txt
// (perfbench/ builds ../src directly) get the default: hooks on.
#pragma once

#if !defined(ICILK_HOOKS_ENABLED)
#define ICILK_HOOKS_ENABLED 1
#endif

namespace icilk::obs {

/// True when the hooks were compiled in (ICILK_HOOKS=ON, the default).
constexpr bool hooks_compiled_in() noexcept {
  return ICILK_HOOKS_ENABLED != 0;
}

}  // namespace icilk::obs
