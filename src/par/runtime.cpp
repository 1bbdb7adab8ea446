#include "par/runtime.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

namespace lens::par {

namespace {

std::size_t g_override = 0;  // 0 = no override
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

std::size_t env_threads() {
  const char* env = std::getenv("LENS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  try {
    const long value = std::stol(env);
    if (value >= 1 && static_cast<unsigned long>(value) <= kMaxThreads) {
      return static_cast<std::size_t>(value);
    }
  } catch (const std::exception&) {
    // Malformed LENS_THREADS: fall through to hardware detection.
  }
  return 0;
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t max_threads() {
  if (g_override > 0) return g_override;
  if (const std::size_t n = env_threads(); n > 0) return n;
  return hardware_threads();
}

void set_max_threads(std::size_t n) { g_override = n; }

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const std::size_t want = max_threads();
  if (!g_pool || g_pool->size() != want) {
    g_pool.reset();  // join the old workers before spawning the new pool
    g_pool = std::make_unique<ThreadPool>(want);
  }
  return *g_pool;
}

}  // namespace lens::par
