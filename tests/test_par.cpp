// Tests for the lens::par threading layer: pool lifecycle, the
// parallel_for/parallel_map determinism + exception contracts, and the
// end-to-end guarantee that a NAS search is bit-identical at 1 vs 4 threads
// for every SearchStrategy.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>

#include "core/nas.hpp"
#include "par/parallel.hpp"
#include "par/probe.hpp"
#include "par/runtime.hpp"
#include "par/substream.hpp"
#include "par/thread_pool.hpp"
#include "perf/predictor.hpp"

namespace lens {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  // The waiter's predicate can turn true before the last task has locked
  // `mutex` to notify, so the test may return while a worker is still
  // inside notify_one. Declared before the pool, the counter, mutex and
  // condvar outlive it: the pool's destructor joins every worker first.
  std::atomic<int> count{0};
  std::mutex mutex;
  std::condition_variable done;
  par::ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      if (count.fetch_add(1) + 1 == 16) {
        std::lock_guard<std::mutex> lock(mutex);
        done.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(10), [&] { return count == 16; }));
}

TEST(ThreadPool, ShutdownDrainsPendingWork) {
  std::atomic<int> completed{0};
  {
    par::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++completed;
      });
    }
    // Destructor runs with most tasks still queued.
  }
  EXPECT_EQ(completed, 32);
}

TEST(ThreadPool, SizeClampsToAtLeastOneWorker) {
  par::ThreadPool clamped(0);
  EXPECT_EQ(clamped.size(), 1u);
  std::atomic<bool> ran{false};
  clamped.submit([&] { ran = true; });
  for (int spins = 0; !ran && spins < 5000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    par::parallel_for(pool, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelMap, OrderedResultsMatchSerial) {
  par::ThreadPool pool(4);
  const std::vector<double> out =
      par::parallel_map(pool, 257, [](std::size_t i) { return 1.0 / (1.0 + i); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 1.0 / (1.0 + i));  // bitwise, not approximate
  }
}

TEST(ParallelMap, PropagatesExceptions) {
  par::ThreadPool pool(4);
  EXPECT_THROW(par::parallel_map(pool, 64,
                                 [](std::size_t i) -> int {
                                   if (i == 37) throw std::runtime_error("boom");
                                   return static_cast<int>(i);
                                 }),
               std::runtime_error);
  // The pool survives a failed section and keeps working.
  const std::vector<int> ok =
      par::parallel_map(pool, 8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(ok[7], 7);
}

TEST(ParallelFor, RethrowsLowestChunkError) {
  par::ThreadPool pool(4);
  try {
    par::parallel_for(pool, 100, [](std::size_t i) {
      if (i == 10) throw std::runtime_error("first");
      if (i == 90) throw std::logic_error("last");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // lowest failing chunk wins
  }
}

TEST(ParallelFor, NestedSectionsRunInline) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  par::parallel_for(pool, 8, [&](std::size_t outer) {
    // Inside a worker: the nested loop must fall back to inline execution
    // instead of deadlocking on the occupied pool.
    par::parallel_for(pool, 8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ChunkRange, PartitionsContiguouslyWithBalancedSizes) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 100u, 1001u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 5u, 7u, 13u, 64u}) {
      if (chunks > n) continue;
      const std::size_t base = n / chunks;
      const std::size_t extra = n % chunks;
      std::size_t expected_begin = 0;
      for (std::size_t k = 0; k < chunks; ++k) {
        const auto [begin, end] = par::chunk_range(n, chunks, k);
        EXPECT_EQ(begin, expected_begin) << "n=" << n << " chunks=" << chunks << " k=" << k;
        EXPECT_EQ(end - begin, base + (k < extra ? 1 : 0));
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);  // last chunk ends exactly at n
    }
  }
}

TEST(ChunkRange, NoOverflowNearSizeMax) {
  // The legacy `n * k / chunks` boundary form wrapped for n near
  // 2^64 / chunks, silently shrinking (or reordering) chunks. The
  // division-first form must partition even n == SIZE_MAX exactly.
  for (const std::size_t n :
       {std::numeric_limits<std::size_t>::max(),
        std::numeric_limits<std::size_t>::max() - 5,
        std::numeric_limits<std::size_t>::max() / 2 + 3}) {
    for (const std::size_t chunks : {2u, 3u, 7u, 16u}) {
      const std::size_t base = n / chunks;
      const std::size_t extra = n % chunks;
      std::size_t expected_begin = 0;
      for (std::size_t k = 0; k < chunks; ++k) {
        const auto [begin, end] = par::chunk_range(n, chunks, k);
        EXPECT_EQ(begin, expected_begin) << "n=" << n << " chunks=" << chunks << " k=" << k;
        EXPECT_GT(end, begin);  // a wrapped boundary would invert the range
        EXPECT_EQ(end - begin, base + (k < extra ? 1 : 0));
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(Substream, SeedsAreDeterministic) {
  EXPECT_EQ(par::substream_seed(42, 7), par::substream_seed(42, 7));
  EXPECT_NE(par::substream_seed(42, 7), par::substream_seed(42, 8));
  EXPECT_NE(par::substream_seed(42, 7), par::substream_seed(43, 7));
}

TEST(Substream, AvoidsXorDerivationCollisions) {
  // The banned `seed ^ index` derivation collides whenever seed1 ^ index1
  // == seed2 ^ index2 — e.g. (1, 2) and (3, 0) — handing two "independent"
  // substreams the same mt19937_64 stream. The splitmix64 mix must keep
  // every such pair distinct.
  EXPECT_NE(par::substream_seed(1, 2), par::substream_seed(3, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seen.insert(par::substream_seed(seed, index));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);  // no collisions across the grid
}

TEST(ParallelFor, OversubscribedChunksCoverEveryIndexOnce) {
  // chunks > workers: the FIFO queue drains 13 chunks through 2 threads.
  par::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(101);
  par::parallel_for_chunked(pool, hits.size(), 13, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, ChunkCountNeverAffectsResults) {
  // The determinism contract, sharpened: results depend only on the index,
  // never on how many chunks the range was split into.
  par::ThreadPool pool(4);
  const std::size_t n = 257;
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = 1.0 / (1.0 + static_cast<double>(i));
  for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u, 64u, 257u}) {
    std::vector<double> out(n);
    par::parallel_for_chunked(pool, n, chunks,
                              [&](std::size_t i) { out[i] = 1.0 / (1.0 + static_cast<double>(i)); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], reference[i]) << "chunks=" << chunks << " i=" << i;
    }
  }
}

TEST(ParallelFor, UnevenLoadStillBitIdentical) {
  // A straggler workload: index 0 is ~100x heavier than the rest. With
  // oversubscribed chunks the heavy chunk overlaps the light ones; the
  // output must stay bit-identical to the serial loop regardless.
  const std::size_t n = 64;
  const auto body = [](std::size_t i) {
    const std::size_t spins = i == 0 ? 20000 : 200;
    double acc = static_cast<double>(i);
    for (std::size_t s = 0; s < spins; ++s) acc += 1.0 / (1.0 + acc);
    return acc;
  };
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = body(i);
  for (const std::size_t threads : {2u, 3u, 7u, 8u}) {
    par::ThreadPool pool(threads);
    std::vector<double> out(n);
    par::parallel_for(pool, n, [&](std::size_t i) { out[i] = body(i); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], serial[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ScalingProbe, GreedyMakespanOverlapsStragglerChunks) {
  // Synthetic section: one 8 ms straggler plus seven 1 ms chunks. Greedy
  // in-order list scheduling on 2 workers runs the straggler on one worker
  // while the other drains the rest — makespan 8, not the serialized 15.
  par::ScalingProbe probe;
  probe.add_section({8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(probe.work_ms(), 15.0);
  EXPECT_DOUBLE_EQ(probe.makespan_ms(1), 15.0);
  EXPECT_DOUBLE_EQ(probe.makespan_ms(2), 8.0);
  EXPECT_DOUBLE_EQ(probe.makespan_ms(8), 8.0);  // bounded below by the straggler
  EXPECT_DOUBLE_EQ(probe.modeled_speedup(2), 15.0 / 8.0);
}

TEST(ScalingProbe, BarrierBetweenSectionsLimitsOverlap) {
  par::ScalingProbe probe;
  probe.add_section({2.0, 2.0});
  probe.add_section({2.0, 2.0});
  EXPECT_EQ(probe.sections(), 2u);
  EXPECT_EQ(probe.chunks(), 4u);
  // Sections cannot overlap each other: makespan(2) = 2 + 2, not 8 / 2.
  EXPECT_DOUBLE_EQ(probe.makespan_ms(2), 4.0);
  EXPECT_DOUBLE_EQ(probe.modeled_speedup(2), 2.0);
}

TEST(ScalingProbe, RecordsParallelForSectionsWhileActive) {
  par::ThreadPool pool(2);
  {
    par::ScalingProbe probe;
    EXPECT_EQ(par::ScalingProbe::active(), &probe);
    par::parallel_for(pool, 64, [](std::size_t) {});
    EXPECT_EQ(probe.sections(), 1u);
    EXPECT_EQ(probe.chunks(), pool.size() * par::kChunksPerThread);
    EXPECT_GE(probe.work_ms(), 0.0);
  }
  EXPECT_EQ(par::ScalingProbe::active(), nullptr);  // scope restores
}

TEST(Runtime, MaxThreadsOverride) {
  const std::size_t before = par::max_threads();
  EXPECT_GE(before, 1u);
  par::set_max_threads(3);
  EXPECT_EQ(par::max_threads(), 3u);
  EXPECT_EQ(par::global_pool().size(), 3u);
  par::set_max_threads(0);
  EXPECT_EQ(par::max_threads(), before);
}

TEST(Runtime, ThreadBudgetIsBounded) {
  // Reads the resolved budget only; no pool is built at the bound.
  const char* saved = std::getenv("LENS_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  setenv("LENS_THREADS", std::to_string(par::kMaxThreads + 1).c_str(), 1);
  EXPECT_EQ(par::max_threads(), par::hardware_threads());  // ignored, as a malformed value
  setenv("LENS_THREADS", std::to_string(par::kMaxThreads).c_str(), 1);
  EXPECT_EQ(par::max_threads(), par::kMaxThreads);
  if (saved == nullptr) {
    unsetenv("LENS_THREADS");
  } else {
    setenv("LENS_THREADS", restore.c_str(), 1);
  }
}

// --- End-to-end determinism: 1-thread vs 4-thread searches are bit-identical.

core::NasResult run_search(core::SearchStrategy strategy, std::size_t threads) {
  par::set_max_threads(threads);
  perf::DeviceSimulator simulator(perf::jetson_tx2_gpu());
  perf::SimulatorOracle oracle(simulator);
  comm::CommModel comm(comm::WirelessTechnology::kWifi, 5.0);
  core::DeploymentEvaluator evaluator(oracle, comm);
  core::SearchSpace space;
  core::SurrogateAccuracyModel accuracy;

  core::NasConfig config;
  config.strategy = strategy;
  config.mobo.num_initial = 6;
  config.mobo.num_iterations = 6;
  config.mobo.pool_size = 32;
  config.mobo.seed = 7;
  config.nsga2.population = 8;
  config.nsga2.generations = 2;
  config.nsga2.seed = 7;
  config.tu_mbps = 3.0;

  core::NasDriver driver(space, evaluator, accuracy, config);
  core::NasResult result = driver.run();
  par::set_max_threads(0);
  return result;
}

void expect_identical(const core::NasResult& a, const core::NasResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].genotype, b.history[i].genotype) << "candidate " << i;
    EXPECT_EQ(a.history[i].name, b.history[i].name);
    // Bitwise equality, not EXPECT_NEAR: the determinism contract.
    EXPECT_EQ(a.history[i].error_percent, b.history[i].error_percent);
    EXPECT_EQ(a.history[i].latency_ms, b.history[i].latency_ms);
    EXPECT_EQ(a.history[i].energy_mj, b.history[i].energy_mj);
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  const auto& pa = a.front.points();
  const auto& pb = b.front.points();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].id, pb[i].id);
    EXPECT_EQ(pa[i].objectives, pb[i].objectives);
  }
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.unique_evaluations, b.unique_evaluations);
}

TEST(Determinism, MoboSearchIdenticalAcrossThreadCounts) {
  expect_identical(run_search(core::SearchStrategy::kMobo, 1),
                   run_search(core::SearchStrategy::kMobo, 4));
}

TEST(Determinism, MoboSearchIdenticalAcrossThreadSweep) {
  // Chunk counts scale with the pool (kChunksPerThread per worker), so every
  // thread count here exercises a different chunks-per-section layout —
  // including prime counts that never divide the index space evenly. All of
  // them must reproduce the 1-thread search bit-for-bit.
  const core::NasResult reference = run_search(core::SearchStrategy::kMobo, 1);
  for (const std::size_t threads : {2u, 3u, 7u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(reference, run_search(core::SearchStrategy::kMobo, threads));
  }
}

TEST(Determinism, Nsga2SearchIdenticalAcrossThreadCounts) {
  expect_identical(run_search(core::SearchStrategy::kNsga2, 1),
                   run_search(core::SearchStrategy::kNsga2, 4));
}

TEST(Determinism, RandomSearchIdenticalAcrossThreadCounts) {
  expect_identical(run_search(core::SearchStrategy::kRandom, 1),
                   run_search(core::SearchStrategy::kRandom, 4));
}

TEST(NasCache, DuplicateGenotypesAreServedFromCache) {
  // Random search with a tiny space-free budget cannot guarantee dupes, so
  // check the accounting invariant instead: hits + unique == history.
  const core::NasResult result = run_search(core::SearchStrategy::kNsga2, 2);
  EXPECT_EQ(result.cache_hits + result.unique_evaluations, result.history.size());
}

}  // namespace
}  // namespace lens
