#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/ddf.h"
#include "support/rng.h"
#include "support/spin.h"

namespace {

TEST(Ddf, PutThenGet) {
  hc::Ddf<int> d;
  EXPECT_FALSE(d.satisfied());
  d.put(17);
  EXPECT_TRUE(d.satisfied());
  EXPECT_EQ(d.get(), 17);
}

TEST(Ddf, GetBeforePutThrows) {
  hc::Ddf<int> d;
  EXPECT_THROW(d.get(), hc::PrematureGet);
}

TEST(Ddf, DoublePutThrows) {
  hc::Ddf<int> d;
  d.put(1);
  EXPECT_THROW(d.put(2), hc::SingleAssignmentViolation);
  EXPECT_EQ(d.get(), 1);  // first value survives
}

TEST(Ddf, NonTrivialPayload) {
  hc::Ddf<std::string> d;
  d.put(std::string(1000, 'q'));
  EXPECT_EQ(d.get().size(), 1000u);
}

TEST(Ddf, AwaitAlreadySatisfied) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto d = hc::ddf_create<int>();
    d->put(5);
    int got = 0;
    hc::finish([&] {
      hc::async_await([&, d] { got = d->get(); }, d);
    });
    EXPECT_EQ(got, 5);
  });
}

TEST(Ddf, AwaitBlocksUntilPut) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto d = hc::ddf_create<int>();
    std::atomic<int> got{-1};
    hc::finish([&] {
      hc::async_await([&, d] { got.store(d->get()); }, d);
      hc::async([d] { d->put(99); });
    });
    EXPECT_EQ(got.load(), 99);
  });
}

TEST(Ddf, AndListWaitsForAll) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto a = hc::ddf_create<int>(), b = hc::ddf_create<int>(),
         c = hc::ddf_create<int>();
    std::atomic<int> sum{0};
    hc::finish([&] {
      hc::async_await(std::vector<hc::DdfBase*>{a.get(), b.get(), c.get()},
                      [&, a, b, c] { sum = a->get() + b->get() + c->get(); });
      hc::async([a] { a->put(1); });
      hc::async([b] { b->put(2); });
      hc::async([c] { c->put(4); });
    });
    EXPECT_EQ(sum.load(), 7);
  });
}

TEST(Ddf, OrListFiresExactlyOnce) {
  hc::Runtime rt({.num_workers = 3});
  rt.launch([&] {
    auto a = hc::ddf_create<int>(), b = hc::ddf_create<int>();
    std::atomic<int> fires{0};
    hc::finish([&] {
      hc::async_await_any(std::vector<hc::DdfBase*>{a.get(), b.get()},
                          [&] { fires.fetch_add(1); });
      // Both puts race; the token bit must admit exactly one release
      // (paper Fig. 12).
      hc::async([a] { a->put(1); });
      hc::async([b] { b->put(2); });
    });
    EXPECT_EQ(fires.load(), 1);
  });
}

TEST(Ddf, OrListAlreadySatisfiedInput) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto a = hc::ddf_create<int>(), b = hc::ddf_create<int>();
    a->put(1);
    std::atomic<int> fires{0};
    hc::finish([&] {
      hc::async_await_any(std::vector<hc::DdfBase*>{a.get(), b.get()},
                          [&] { fires.fetch_add(1); });
    });
    EXPECT_EQ(fires.load(), 1);
    b->put(2);  // late put on the other input must be harmless
  });
}

TEST(Ddf, PipelineChain) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    constexpr int kDepth = 200;
    std::vector<hc::DdfPtr<int>> links;
    for (int i = 0; i <= kDepth; ++i) links.push_back(hc::ddf_create<int>());
    hc::finish([&] {
      for (int i = 0; i < kDepth; ++i) {
        hc::async_await([&, i] { links[i + 1]->put(links[i]->get() + 1); },
                        links[std::size_t(i)]);
      }
      links[0]->put(0);
    });
    EXPECT_EQ(links[kDepth]->get(), kDepth);
  });
}

TEST(Ddf, WideFanout) {
  hc::Runtime rt({.num_workers = 4});
  rt.launch([&] {
    auto src = hc::ddf_create<int>();
    std::atomic<int> sum{0};
    hc::finish([&] {
      for (int i = 0; i < 500; ++i) {
        hc::async_await([&, src] { sum.fetch_add(src->get()); }, src);
      }
      hc::async([src] { src->put(3); });
    });
    EXPECT_EQ(sum.load(), 1500);
  });
}

TEST(Ddf, DiamondDependencies) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto top = hc::ddf_create<int>(), l = hc::ddf_create<int>(),
         r = hc::ddf_create<int>(), bottom = hc::ddf_create<int>();
    hc::finish([&] {
      hc::async_await([=] { l->put(top->get() * 2); }, top);
      hc::async_await([=] { r->put(top->get() * 3); }, top);
      hc::async_await(std::vector<hc::DdfBase*>{l.get(), r.get()},
                      [=] { bottom->put(l->get() + r->get()); });
      top->put(1);
    });
    EXPECT_EQ(bottom->get(), 5);
  });
}

TEST(Ddf, ConcurrentPutRaceOneWins) {
  // Two racing put attempts: exactly one must succeed, the other must see
  // SingleAssignmentViolation, and waiters observe a consistent value.
  for (int round = 0; round < 20; ++round) {
    hc::Ddf<int> d;
    std::atomic<int> errors{0};
    std::thread t1([&] {
      try {
        d.put(1);
      } catch (const hc::SingleAssignmentViolation&) {
        errors.fetch_add(1);
      }
    });
    std::thread t2([&] {
      try {
        d.put(2);
      } catch (const hc::SingleAssignmentViolation&) {
        errors.fetch_add(1);
      }
    });
    t1.join();
    t2.join();
    EXPECT_EQ(errors.load(), 1);
    int v = d.get();
    EXPECT_TRUE(v == 1 || v == 2);
  }
}

class DdfFanoutWidth : public ::testing::TestWithParam<int> {};

TEST_P(DdfFanoutWidth, AndListOfWidthN) {
  const int n = GetParam();
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    std::vector<hc::DdfPtr<int>> deps;
    std::vector<hc::DdfBase*> raw;
    for (int i = 0; i < n; ++i) {
      deps.push_back(hc::ddf_create<int>());
      raw.push_back(deps.back().get());
    }
    std::atomic<long long> sum{0};
    hc::finish([&] {
      hc::async_await(raw, [&, deps] {
        long long s = 0;
        for (auto& d : deps) s += d->get();
        sum.store(s);
      });
      for (int i = 0; i < n; ++i) {
        hc::async([d = deps[std::size_t(i)], i] { d->put(i); });
      }
    });
    EXPECT_EQ(sum.load(), (long long)n * (n - 1) / 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Widths, DdfFanoutWidth,
                         ::testing::Values(1, 2, 3, 8, 33, 128));

// One seeded round of DDTs with 1-5 inputs, on both sides of
// AndFrame::kInline. The frame lives in the task's pool slot and nobody
// holds a reference to it, so every thread that parks, advances or drops a
// frame must leave it alone afterwards: under ASan a later touch lands in a
// poisoned slot (task_pool.h), under TSan it is a race.
//   - Inputs are put in a seeded order, by computation tasks spawned between
//     the DDTs and by a producer thread (scheduling as the communication
//     worker does) that starts while the DDTs are still being registered.
//   - About one DDT in four is doomed: its input k is never put. Every input
//     before k is, so the frame ends parked on k, and the producer destroys
//     k there while the finish scope is still draining (the abandon path).
//     Inputs after k are put or left unput by the seed.
// Every other DDT must run exactly once and see its inputs' values; a
// doomed one must never run, and the finish must still return.
void frame_lifetime_round(std::uint64_t seed) {
  constexpr int kDdts = 64;
  constexpr int kMaxInputs = 5;
  support::Xoshiro256 rng(seed);
  struct Ddt {
    std::vector<std::unique_ptr<hc::Ddf<int>>> in;
    int doomed_at = -1;  // the input never put, or -1
    long want = 0;
    std::atomic<int> runs{0};
    std::atomic<long> got{0};
  };
  std::vector<Ddt> ddts(kDdts);
  struct Put {
    hc::Ddf<int>* d;
    int value;
  };
  std::vector<Put> puts;
  for (int i = 0; i < kDdts; ++i) {
    Ddt& t = ddts[std::size_t(i)];
    const int n = 1 + int(rng.next_below(kMaxInputs));
    if (rng.next_below(4) == 0) t.doomed_at = int(rng.next_below(std::uint64_t(n)));
    for (int j = 0; j < n; ++j) {
      t.in.push_back(std::make_unique<hc::Ddf<int>>());
      const int v = i * 8 + j;
      t.want += v;
      const bool before_k = t.doomed_at < 0 || j < t.doomed_at;
      if (before_k || (j > t.doomed_at && rng.next_below(2) == 0)) {
        puts.push_back({t.in.back().get(), v});
      }
    }
  }
  for (std::size_t i = puts.size(); i > 1; --i) {
    std::swap(puts[i - 1], puts[rng.next_below(i)]);
  }
  // Each put goes to the producer or to a task spawned after DDT `after`.
  std::vector<Put> producer_puts;
  std::vector<std::vector<Put>> task_puts(kDdts);
  for (const Put& p : puts) {
    if (rng.next_below(2) == 0) {
      producer_puts.push_back(p);
    } else {
      task_puts[rng.next_below(kDdts)].push_back(p);
    }
  }

  hc::Runtime rt({.num_workers = 3});
  std::atomic<bool> go{false}, spawned{false};
  std::atomic<std::size_t> puts_done{0};
  std::thread producer([&] {
    rt.register_producer();
    while (!go.load(std::memory_order_acquire)) support::cpu_relax();
    for (const Put& p : producer_puts) {
      p.d->put(p.value);
      puts_done.fetch_add(1, std::memory_order_acq_rel);
    }
    // Once every DDT is registered and every put has returned, each doomed
    // frame is parked on its input k.
    while (!spawned.load(std::memory_order_acquire) ||
           puts_done.load(std::memory_order_acquire) < puts.size()) {
      std::this_thread::yield();
    }
    for (Ddt& t : ddts) {
      if (t.doomed_at >= 0) t.in[std::size_t(t.doomed_at)].reset();
    }
  });
  rt.launch([&] {
    hc::finish([&] {
      go.store(true, std::memory_order_release);
      for (int i = 0; i < kDdts; ++i) {
        Ddt& t = ddts[std::size_t(i)];
        std::vector<hc::DdfBase*> deps;
        for (auto& d : t.in) deps.push_back(d.get());
        hc::async_await(deps, [&t] {
          long sum = 0;
          for (auto& d : t.in) sum += d->get();
          t.got.store(sum, std::memory_order_relaxed);
          t.runs.fetch_add(1, std::memory_order_relaxed);
        });
        for (const Put& p : task_puts[std::size_t(i)]) {
          hc::async([p, &puts_done] {
            p.d->put(p.value);
            puts_done.fetch_add(1, std::memory_order_acq_rel);
          });
        }
      }
      spawned.store(true, std::memory_order_release);
    });
  });
  producer.join();
  for (int i = 0; i < kDdts; ++i) {
    const Ddt& t = ddts[std::size_t(i)];
    if (t.doomed_at >= 0) {
      EXPECT_EQ(t.runs.load(), 0) << "seed " << seed << " ddt " << i;
    } else {
      EXPECT_EQ(t.runs.load(), 1) << "seed " << seed << " ddt " << i;
      EXPECT_EQ(t.got.load(), t.want) << "seed " << seed << " ddt " << i;
    }
  }
}

TEST(Ddf, AndFrameLifetimeUnderRacingPutsAndDrops) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) frame_lifetime_round(seed);
}

}  // namespace
