// Scheduler hot-path tests: the per-worker slab/freelist task pool, the
// steal-some batch path, the steal policies, and the idle backoff's
// empty-victim pre-filter (DESIGN.md §8).
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/task_pool.h"
#include "prof/prof.h"
#include "support/chase_lev_deque.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace {

// --- TaskPool ----------------------------------------------------------------

TEST(TaskPool, RecyclesSlotAfterOwnerRelease) {
  hc::TaskPool pool;
  pool.bind_owner();
  hc::Task* a = pool.acquire([] {}, nullptr);
  EXPECT_EQ(a->pool, &pool);
  pool.release(a);
  // Same-thread release goes to the private freelist; the next acquire must
  // reuse the slot rather than bump-allocating.
  hc::Task* b = pool.acquire([] {}, nullptr);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  EXPECT_EQ(pool.freelist_hits(), 1u);
  EXPECT_EQ(pool.freelist_misses(), 1u);  // only the very first acquire
  pool.release(b);
}

TEST(TaskPool, BurstGrowsSlabsOnceThenReuses) {
  constexpr int kBurst = 1000;
  hc::TaskPool pool;
  pool.bind_owner();
  std::vector<hc::Task*> live;
  live.reserve(kBurst);
  std::set<void*> distinct;
  for (int i = 0; i < kBurst; ++i) {
    hc::Task* t = pool.acquire([] {}, nullptr);
    live.push_back(t);
    distinct.insert(t);
  }
  EXPECT_EQ(distinct.size(), std::size_t(kBurst));
  const std::uint64_t slabs = pool.slab_count();
  EXPECT_GE(slabs, std::uint64_t(kBurst) / hc::TaskPool::kSlabTasks);
  for (hc::Task* t : live) pool.release(t);
  // Second burst of the same size: freelist serves everything, no new slabs.
  for (int i = 0; i < kBurst; ++i) live[std::size_t(i)] = pool.acquire([] {}, nullptr);
  EXPECT_EQ(pool.slab_count(), slabs);
  EXPECT_EQ(pool.freelist_hits(), std::uint64_t(kBurst));
  for (hc::Task* t : live) pool.release(t);
}

TEST(TaskPool, RemoteFreeReturnsSlotToOwner) {
  hc::TaskPool pool;
  pool.bind_owner();
  hc::Task* a = pool.acquire([] {}, nullptr);
  std::thread other([&] { pool.release(a); });
  other.join();
  EXPECT_EQ(pool.remote_frees(), 1u);
  // The owner's next acquire drains the remote stack and reuses the slot.
  hc::Task* b = pool.acquire([] {}, nullptr);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  EXPECT_EQ(pool.freelist_hits(), 1u);
  pool.release(b);
}

TEST(TaskPool, DestroyTaskFallsBackToHeapForPoollessTasks) {
  // Tasks built off the spawn path (external threads) have pool == nullptr
  // and must still retire safely through the single retirement function.
  auto* t = new hc::Task([] {}, nullptr);
  EXPECT_EQ(t->pool, nullptr);
  hc::destroy_task(t);  // plain delete; ASan would flag a mismatch
}

// The acceptance criterion for lazy allocation: after a warmup burst, the
// spawn path allocates almost nothing — nearly every acquire is a freelist
// hit. Run at one worker and at two, where a thief frees remotely.
TEST(TaskPool, SpawnPathHitsFreelistInSteadyState) {
  constexpr int kRounds = 20;
  constexpr int kBurst = 1000;
  for (int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    hc::Runtime rt({.num_workers = workers});
    std::atomic<std::uint64_t> ran{0};
    std::uint64_t misses_after_warmup = 0;
    rt.launch([&] {
      auto burst = [&] {
        hc::finish([&] {
          for (int i = 0; i < kBurst; ++i) {
            hc::async([&] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      };
      burst();  // warmup: populates slabs
      misses_after_warmup = rt.task_pool_stats().freelist_misses;
      for (int r = 1; r < kRounds; ++r) burst();
    });
    EXPECT_EQ(ran.load(), std::uint64_t(kRounds) * kBurst);
    hc::Runtime::TaskPoolStats s = rt.task_pool_stats();
    if (workers == 1) {
      // Every free is the owner's own, and finish() returning means every
      // task's slot was recycled (run_task retires before dec), so rounds
      // 2..N never bump-allocate.
      EXPECT_EQ(s.freelist_misses, misses_after_warmup);
    } else {
      // A thief's frees reach the owner's remote stack, possibly after the
      // owner's next miss. acquire() misses only when its private list and
      // its remote stack are both empty, i.e. when every slot it ever made
      // is live, and at most one burst is live at a time.
      EXPECT_LE(s.freelist_misses, std::uint64_t(kBurst));
    }
    EXPECT_EQ(s.freelist_hits + s.freelist_misses,
              std::uint64_t(kRounds) * kBurst);
    double hit_rate = double(s.freelist_hits) /
                      double(s.freelist_hits + s.freelist_misses);
    EXPECT_GE(hit_rate, 0.95);
  }
}

// --- steal_some on the deque -------------------------------------------------

TEST(StealSome, TakesOldestFirstAndLeavesRestForOwner) {
  support::ChaseLevDeque<std::size_t> dq;
  for (std::size_t i = 1; i <= 10; ++i) dq.push(i);
  std::size_t buf[4] = {};
  EXPECT_EQ(dq.steal_some(buf, 4), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(buf[i], i + 1);  // FIFO end
  EXPECT_EQ(dq.pop().value(), 10u);  // owner keeps the LIFO end
  EXPECT_EQ(dq.size_approx(), 5u);
}

TEST(StealSome, TakeMoreThanDepthDrainsWithoutError) {
  support::ChaseLevDeque<std::size_t> dq;
  for (std::size_t i = 1; i <= 3; ++i) dq.push(i);
  std::size_t buf[16] = {};
  EXPECT_EQ(dq.steal_some(buf, 16), 3u);
  EXPECT_EQ(dq.steal_some(buf, 16), 0u);
  EXPECT_FALSE(dq.pop().has_value());
}

// Exactly-once delivery under concurrent owner pops and batched thieves: the
// core safety property the per-element-CAS formulation of steal_some keeps
// (a single range CAS would not — see chase_lev_deque.h).
TEST(StealSome, ConcurrentBatchesDeliverEveryItemExactlyOnce) {
  constexpr std::size_t kItems = 20000;
  constexpr int kThieves = 3;
  support::ChaseLevDeque<std::size_t> dq;
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<std::size_t> counted{0};
  auto mark = [&](std::size_t v) {
    seen[v].fetch_add(1, std::memory_order_relaxed);
    counted.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      std::size_t buf[8];
      while (counted.load(std::memory_order_relaxed) < kItems) {
        std::size_t got = dq.steal_some(buf, 1 + std::size_t(t) * 3);
        for (std::size_t i = 0; i < got; ++i) mark(buf[i]);
        if (got == 0) std::this_thread::yield();
      }
    });
  }
  // Owner: push everything, popping a few along the way, then drain.
  for (std::size_t i = 0; i < kItems; ++i) {
    dq.push(i);
    if (i % 5 == 4) {
      if (auto v = dq.pop()) mark(*v);
    }
  }
  while (counted.load(std::memory_order_relaxed) < kItems) {
    if (auto v = dq.pop()) mark(*v);
    else std::this_thread::yield();
  }
  for (auto& th : thieves) th.join();
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// --- steal policies on the real runtime -------------------------------------

// Every worker takes the configured policy, every task runs once, and
// telemetry records one task-granularity sample per task.
void run_burst_under_policy(hc::StealPolicy policy) {
  constexpr int kTasks = 20000;
  hc::RuntimeConfig cfg;
  cfg.num_workers = 4;
  cfg.steal = policy;
  hc::Runtime rt(cfg);
  for (int w = 0; w < rt.num_workers(); ++w) {
    EXPECT_EQ(rt.worker(w).steal_policy(), policy);
  }
  auto& granularity = support::MetricsRegistry::global().histogram(
      "sched.task_granularity_ns");
  const std::uint64_t before = granularity.count();
  std::vector<std::atomic<int>> hits(kTasks);
  prof::set_telemetry(true);
  rt.launch([&] {
    hc::finish([&] {
      for (int i = 0; i < kTasks; ++i) {
        hc::async([&hits, i] {
          hits[std::size_t(i)].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  });
  prof::set_telemetry(false);
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[std::size_t(i)].load(), 1)
        << "task " << i << " under policy " << hc::steal_policy_name(policy);
  }
  EXPECT_EQ(rt.total_tasks_executed(), std::uint64_t(kTasks) + 1);  // + root
  EXPECT_EQ(granularity.count() - before, rt.total_tasks_executed());
}

TEST(StealPolicy, EveryTaskRunsExactlyOnceUnderOne) {
  run_burst_under_policy(hc::StealPolicy::kOne);
}
TEST(StealPolicy, EveryTaskRunsExactlyOnceUnderHalf) {
  EXPECT_EQ(hc::RuntimeConfig{}.steal, hc::StealPolicy::kHalf);  // default
  run_burst_under_policy(hc::StealPolicy::kHalf);
}

// --- idle behavior -----------------------------------------------------------

// Idle workers must not probe empty victims: the relaxed depth pre-filter
// keeps steal_attempts at zero while the runtime has no work, so parked-and-
// backing-off workers stop hammering everyone else's deque tops.
TEST(IdleBackoff, EmptyRuntimeNeverProbesVictimDeques) {
  hc::Runtime rt({.num_workers = 4});
  rt.launch([] {});  // root task spawns nothing
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(rt.total_steal_attempts(), 0u);
  // The workers did scan (and fail) rounds while idling.
  EXPECT_GT(rt.total_failed_steal_rounds(), 0u);
}

// --- victim-selection RNG ----------------------------------------------------

TEST(XorShift64, DeterministicPerSeedAndInBounds) {
  support::XorShift64 a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
  support::XorShift64 d(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(d.next_below(13), 13u);
  }
  EXPECT_EQ(d.next_below(0), 0u);
  // Seed 0 must not lock the generator into the all-zero state.
  support::XorShift64 z(0);
  EXPECT_NE(z.next(), z.next());
}

}  // namespace
