#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/place.h"
#include "core/runtime.h"
#include "support/rng.h"
#include "support/trace.h"

namespace {

TEST(Runtime, LaunchRunsRoot) {
  hc::Runtime rt({.num_workers = 1});
  bool ran = false;
  rt.launch([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(Runtime, AsyncOutsideLaunchThrows) {
  EXPECT_THROW(hc::async([] {}), std::logic_error);
}

TEST(Runtime, FinishWaitsForChildren) {
  hc::Runtime rt({.num_workers = 2});
  std::atomic<int> count{0};
  rt.launch([&] {
    hc::finish([&] {
      for (int i = 0; i < 100; ++i) {
        hc::async([&] { count.fetch_add(1); });
      }
    });
    EXPECT_EQ(count.load(), 100);
  });
}

TEST(Runtime, FinishWaitsForTransitiveChildren) {
  hc::Runtime rt({.num_workers = 2});
  std::atomic<int> count{0};
  rt.launch([&] {
    hc::finish([&] {
      hc::async([&] {
        hc::async([&] {
          hc::async([&] { count.fetch_add(1); });
          count.fetch_add(1);
        });
        count.fetch_add(1);
      });
    });
    EXPECT_EQ(count.load(), 3);
  });
}

TEST(Runtime, NestedFinishScopes) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    std::atomic<int> inner{0}, outer{0};
    hc::finish([&] {
      hc::async([&] {
        hc::finish([&] {
          for (int i = 0; i < 10; ++i) hc::async([&] { inner.fetch_add(1); });
        });
        EXPECT_EQ(inner.load(), 10);  // inner finish drained here
        outer.fetch_add(1);
      });
      hc::async([&] { outer.fetch_add(1); });
    });
    EXPECT_EQ(outer.load(), 2);
  });
}

TEST(Runtime, LaunchIsSerialToCaller) {
  hc::Runtime rt({.num_workers = 2});
  int x = 0;
  rt.launch([&] { x = 1; });
  EXPECT_EQ(x, 1);
  rt.launch([&] { x = 2; });
  EXPECT_EQ(x, 2);
}

TEST(Runtime, TaskExceptionPropagatesFromFinish) {
  hc::Runtime rt({.num_workers = 2});
  EXPECT_THROW(rt.launch([&] {
    hc::finish([&] {
      hc::async([] { throw std::runtime_error("task boom"); });
    });
  }),
               std::runtime_error);
}

TEST(Runtime, FinishDrainsEvenWhenBodyThrows) {
  hc::Runtime rt({.num_workers = 2});
  std::atomic<int> done{0};
  try {
    rt.launch([&] {
      hc::finish([&] {
        for (int i = 0; i < 32; ++i) hc::async([&] { done.fetch_add(1); });
        throw std::logic_error("body boom");
      });
    });
    FAIL() << "expected throw";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(done.load(), 32);  // quiescence before propagation
}

TEST(Runtime, ParallelForCoversRangeExactlyOnce) {
  hc::Runtime rt({.num_workers = 3});
  std::vector<std::atomic<int>> hits(1000);
  rt.launch([&] {
    hc::parallel_for(0, hits.size(), 16,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runtime, ParallelForEmptyAndTinyRanges) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    int hits = 0;
    hc::parallel_for(5, 5, 4, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits, 0);
    std::atomic<int> one{0};
    hc::parallel_for(0, 1, 0, [&](std::size_t) { one.fetch_add(1); });
    EXPECT_EQ(one.load(), 1);
  });
}

TEST(Runtime, WorkIsActuallyStolen) {
  hc::Runtime rt({.num_workers = 4});
  std::atomic<int> dummy{0};
  rt.launch([&] {
    hc::finish([&] {
      for (int i = 0; i < 2000; ++i) {
        hc::async([&] { dummy.fetch_add(1); });
      }
    });
  });
  EXPECT_EQ(dummy.load(), 2000);
  EXPECT_EQ(rt.total_tasks_executed(), 2001u);  // 2000 asyncs + root
}

TEST(Runtime, ManyRuntimesCoexist) {
  // The smpi substrate runs one Runtime per rank thread; they must not
  // share scheduler state.
  std::vector<std::thread> threads;
  std::atomic<int> total{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      hc::Runtime rt({.num_workers = 2});
      rt.launch([&] {
        hc::finish([&] {
          for (int i = 0; i < 50; ++i) hc::async([&] { total.fetch_add(1); });
        });
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 150);
}

TEST(Runtime, SequentialLaunchesReuseWorkers) {
  hc::Runtime rt({.num_workers = 2});
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n{0};
    rt.launch([&] {
      hc::finish([&] {
        for (int i = 0; i < 20; ++i) hc::async([&] { n.fetch_add(1); });
      });
    });
    EXPECT_EQ(n.load(), 20);
  }
}

// --- places / HPT -------------------------------------------------------------

TEST(Runtime, ParkedWorkerNeverMissesAWakeup) {
  // An external thread injects tasks one at a time into a 1-worker runtime,
  // after seeded pauses of 0-400 us: around the spin window, so injections
  // land on a polling worker, on a parked one and on one just parking. Idle
  // parks have no timeout, so one lost wake-up hangs this test until
  // ctest's timeout fails it. Prints the inject-to-start latencies.
  constexpr int kInjections = 4000;
  hc::Runtime rt({.num_workers = 1});
  support::XorShift64 rng(0x5EEDu);
  std::vector<std::uint64_t> wake_ns;
  wake_ns.reserve(kInjections);
  for (int i = 0; i < kInjections; ++i) {
    const std::uint64_t until =
        support::trace::now_ns() + 1000u * rng.next_below(401);
    while (support::trace::now_ns() < until) {
    }
    std::uint64_t started = 0;
    const std::uint64_t t0 = support::trace::now_ns();
    rt.launch([&] { started = support::trace::now_ns(); });
    ASSERT_GE(started, t0);
    wake_ns.push_back(started - t0);
  }
  std::sort(wake_ns.begin(), wake_ns.end());
  auto at = [&](double q) {
    return double(wake_ns[std::size_t(q * double(wake_ns.size() - 1))]) / 1e3;
  };
  std::printf("inject-to-start over %d injections: p50 %.1f us, p99.9 %.1f us, "
              "max %.1f us\n",
              kInjections, at(0.5), at(0.999), at(1.0));
}

TEST(Places, SingleLevelDefault) {
  hc::PlaceTree tree(0, 2);
  EXPECT_EQ(tree.size(), 1);
  EXPECT_TRUE(tree.root()->is_leaf());
  EXPECT_EQ(tree.leaves().size(), 1u);
}

TEST(Places, TreeShape) {
  hc::PlaceTree tree(2, 2);  // root + 2 + 4
  EXPECT_EQ(tree.size(), 7);
  EXPECT_EQ(tree.leaves().size(), 4u);
  EXPECT_EQ(tree.leaves()[0]->parent()->parent(), tree.root());
}

TEST(Places, AsyncAtRunsAtTaskLevel) {
  hc::RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.place_depth = 1;
  cfg.place_fanout = 2;
  hc::Runtime rt(cfg);
  std::atomic<int> hits{0};
  rt.launch([&] {
    hc::finish([&] {
      for (hc::Place* leaf : rt.places()->leaves()) {
        for (int i = 0; i < 10; ++i) {
          hc::async_at(leaf, [&] { hits.fetch_add(1); });
        }
      }
    });
  });
  EXPECT_EQ(hits.load(), 20);
}

TEST(Places, WorkerLeafAssignmentRoundRobin) {
  hc::PlaceTree tree(1, 2);
  tree.assign_workers(4);
  EXPECT_EQ(tree.leaf_for_worker(0), tree.leaf_for_worker(2));
  EXPECT_EQ(tree.leaf_for_worker(1), tree.leaf_for_worker(3));
  EXPECT_NE(tree.leaf_for_worker(0), tree.leaf_for_worker(1));
}

}  // namespace
