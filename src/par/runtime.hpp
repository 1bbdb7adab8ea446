#pragma once
// Process-wide threading configuration and the shared worker pool.
//
// Thread-count resolution order (first match wins):
//   1. set_max_threads(n) with n >= 1 — the CLI's --threads flag;
//   2. the LENS_THREADS environment variable (an integer in [1, kMaxThreads];
//      any other value is ignored);
//   3. std::thread::hardware_concurrency() (at least 1).
//
// global_pool() lazily builds one ThreadPool of max_threads() workers and
// rebuilds it when the configured count changes. Reconfiguring between
// parallel sections is safe; reconfiguring while a parallel_for is in
// flight is not (nothing in this repo does that).

#include <cstddef>

#include "par/thread_pool.hpp"

namespace lens::par {

/// Largest thread budget accepted: far above the core count of any machine
/// this runs on, and small enough that a typo cannot start millions of OS
/// threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// std::thread::hardware_concurrency(), never less than 1.
std::size_t hardware_threads();

/// Resolved thread budget per the order above.
std::size_t max_threads();

/// Override the thread budget (0 clears the override, restoring
/// LENS_THREADS / hardware detection). Callers keep n <= kMaxThreads; the
/// CLI rejects a larger --threads.
void set_max_threads(std::size_t n);

/// The shared pool, sized to max_threads().
ThreadPool& global_pool();

}  // namespace lens::par
