#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/chase_lev_deque.h"
#include "support/flags.h"
#include "support/mpsc_queue.h"
#include "support/rng.h"
#include "support/sha1.h"
#include "support/spin.h"
#include "support/metrics.h"

// Heap allocations in this binary, counted by replacing the global operator
// new as alloc_test does, so a test can assert that a path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

// --- SHA-1 (FIPS 180-1 test vectors) ---------------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(support::Sha1::hex(support::Sha1::hash("", 0)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(support::Sha1::hex(support::Sha1::hash("abc", 3)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, LongerVector) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(support::Sha1::hex(support::Sha1::hash(msg, 56)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  support::Sha1 h;
  std::vector<char> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(support::Sha1::hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog etc etc";
  auto one = support::Sha1::hash(msg.data(), msg.size());
  support::Sha1 h;
  for (char c : msg) h.update(&c, 1);
  EXPECT_EQ(one, h.finish());
}

TEST(Sha1, BlockBoundaryLengths) {
  // Lengths straddling the 55/56/63/64 padding edges.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    std::string msg(len, 'x');
    auto d1 = support::Sha1::hash(msg.data(), msg.size());
    support::Sha1 h;
    h.update(msg.data(), len / 2);
    h.update(msg.data() + len / 2, len - len / 2);
    EXPECT_EQ(d1, h.finish()) << "len=" << len;
  }
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, SplitMixDeterministic) {
  support::SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, MixIsStateless) {
  EXPECT_EQ(support::SplitMix64::mix(123), support::SplitMix64::mix(123));
  EXPECT_NE(support::SplitMix64::mix(123), support::SplitMix64::mix(124));
}

TEST(Rng, XoshiroUniformRange) {
  support::Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  support::Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, XoshiroSeedsDiffer) {
  support::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

// --- Chase-Lev deque ---------------------------------------------------------

TEST(ChaseLev, LifoOwnerOrder) {
  support::ChaseLevDeque<int*> dq;
  int vals[3] = {1, 2, 3};
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.pop().value(), &vals[2]);
  EXPECT_EQ(dq.pop().value(), &vals[1]);
  EXPECT_EQ(dq.pop().value(), &vals[0]);
  EXPECT_FALSE(dq.pop().has_value());
}

TEST(ChaseLev, FifoStealOrder) {
  support::ChaseLevDeque<int*> dq;
  int vals[3] = {1, 2, 3};
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.steal().value(), &vals[0]);
  EXPECT_EQ(dq.steal().value(), &vals[1]);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  support::ChaseLevDeque<int*> dq(4);
  std::vector<int> vals(1000);
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.size_approx(), 1000u);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(dq.pop().value(), &vals[i]);
}

TEST(ChaseLev, ConcurrentStealersReceiveEachItemOnce) {
  support::ChaseLevDeque<std::intptr_t> dq;
  constexpr std::intptr_t kN = 20000;
  std::atomic<std::intptr_t> sum{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> done_pushing{false};
  auto thief = [&] {
    while (!done_pushing.load() || consumed.load() < kN) {
      if (auto v = dq.steal()) {
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
      if (consumed.load() >= kN) break;
    }
  };
  std::thread t1(thief), t2(thief);
  std::intptr_t expect = 0;
  for (std::intptr_t i = 1; i <= kN; ++i) {
    dq.push(i);
    expect += i;
  }
  done_pushing.store(true);
  // Owner helps drain.
  while (consumed.load() < kN) {
    if (auto v = dq.pop()) {
      sum.fetch_add(*v);
      consumed.fetch_add(1);
    }
  }
  t1.join();
  t2.join();
  EXPECT_EQ(sum.load(), expect);
}

// --- MPSC queue ---------------------------------------------------------------

struct MpscItem : support::MpscNode {
  int v = 0;
};

TEST(Mpsc, FifoSingleProducer) {
  support::MpscQueue<MpscItem> q;
  std::vector<MpscItem> items(100);
  for (int i = 0; i < 100; ++i) {
    items[std::size_t(i)].v = i;
    q.push(&items[std::size_t(i)]);
  }
  for (int i = 0; i < 100; ++i) {
    MpscItem* it = q.pop();
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(it->v, i);
  }
  EXPECT_EQ(q.pop(), nullptr);
  // Popped elements carry no stale link: the queue takes them again.
  q.push(&items[7]);
  q.push(&items[3]);
  EXPECT_EQ(q.pop(), &items[7]);
  EXPECT_EQ(q.pop(), &items[3]);
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(Mpsc, EmptyApprox) {
  support::MpscQueue<MpscItem> q;
  MpscItem a, b;
  EXPECT_TRUE(q.empty_approx());
  q.push(&a);
  EXPECT_FALSE(q.empty_approx());
  q.push(&b);
  EXPECT_EQ(q.pop(), &a);
  EXPECT_FALSE(q.empty_approx());
  EXPECT_EQ(q.pop(), &b);  // the last element leaves through the stub
  EXPECT_TRUE(q.empty_approx());
}

TEST(Mpsc, MultiProducerDeliversAll) {
  // Three producers push disjoint items: each must come out exactly once,
  // in push order per producer.
  support::MpscQueue<MpscItem> q;
  constexpr int kPerThread = 5000;
  std::vector<MpscItem> items(3 * kPerThread);
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&q, &items, p] {
      for (int i = 0; i < kPerThread; ++i) {
        MpscItem& it = items[std::size_t(p * kPerThread + i)];
        it.v = p * kPerThread + i;
        q.push(&it);
      }
    });
  }
  std::set<int> seen;
  int last[3] = {-1, -1, -1};
  while (int(seen.size()) < 3 * kPerThread) {
    if (MpscItem* it = q.pop()) {
      EXPECT_TRUE(seen.insert(it->v).second);
      int p = it->v / kPerThread;
      EXPECT_GT(it->v, last[p]);
      last[p] = it->v;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(seen.size(), std::size_t(3 * kPerThread));
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty_approx());
}

// --- Metrics registry -------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogram) {
  support::MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.counter("a.count").add(4);  // same entry by name
  reg.gauge("a.level").set(2.5);
  auto& h = reg.histogram("a.lat");
  for (double x : {1.0, 2.0, 3.0}) h.add(x);
  EXPECT_EQ(reg.counter_value("a.count"), 7u);
  EXPECT_TRUE(reg.has_counter("a.count"));
  EXPECT_FALSE(reg.has_counter("nope"));
  std::string text = reg.dump();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("a.level"), std::string::npos);
  EXPECT_NE(text.find("a.lat"), std::string::npos);
}

TEST(Metrics, MergeAcrossRegistries) {
  // Models per-rank registries folded into one at teardown.
  support::MetricsRegistry r0, r1;
  r0.counter("tasks").add(10);
  r1.counter("tasks").add(32);
  r1.counter("only_r1").add(5);
  r0.gauge("watermark").set(1.0);
  r1.gauge("watermark").set(4.0);
  r0.histogram("lat").add(100.0);
  r1.histogram("lat").add(300.0);
  r0.merge(r1);
  EXPECT_EQ(r0.counter_value("tasks"), 42u);
  EXPECT_EQ(r0.counter_value("only_r1"), 5u);
  EXPECT_DOUBLE_EQ(r0.gauge("watermark").value(), 4.0);  // latest wins
  std::string text = r0.dump();
  EXPECT_NE(text.find("count=2"), std::string::npos);
}

using Histogram = support::MetricsRegistry::Histogram;

TEST(Metrics, HistogramBucketsTileTheLine) {
  // Every bucket holds exactly the values [lower, lower + width), and the
  // next bucket starts where it ends.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const double lo = Histogram::bucket_lower(i);
    const double w = Histogram::bucket_width(i);
    ASSERT_EQ(Histogram::bucket_of(lo), i) << "lower of " << i;
    ASSERT_EQ(Histogram::bucket_of(std::nextafter(lo + w, 0.0)), i)
        << "top of " << i;
    ASSERT_EQ(Histogram::bucket_lower(i + 1), lo + w) << "after " << i;
    // Resolution: from 16 on, one bucket is at most 1/16 of its values.
    if (lo >= 16) {
      ASSERT_LE(w / lo, 1.0 / 16) << i;
    }
  }
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_of(1e30), Histogram::kBuckets - 1);
}

TEST(Metrics, HistogramSmallIntegersAreExact) {
  // Below 2^5 every integer has its own bucket, so percentiles are exact.
  support::MetricsRegistry reg;
  auto& h = reg.histogram("small");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  for (int i = 1; i <= 20; ++i) h.add(double(i));
  EXPECT_EQ(h.count(), 20u);
  EXPECT_EQ(h.sum(), 210.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 20.0);
  EXPECT_EQ(h.mean(), 10.5);
  EXPECT_EQ(h.percentile(0), 1.0);
  EXPECT_EQ(h.percentile(50), 10.0);  // nearest rank: the 10th of 20
  EXPECT_EQ(h.percentile(95), 19.0);
  EXPECT_EQ(h.percentile(100), 20.0);
  EXPECT_NEAR(h.stddev(), 5.916, 0.001);  // sample stddev of 1..20
  h.merge(h);  // self-merge is a no-op
  EXPECT_EQ(h.count(), 20u);
}

// 4 threads feed 10^7 seeded, log-uniform samples from 1 ns to 1 s into one
// registry histogram at once. count, sum, min and max must come out exact,
// p50 and p99 within one bucket of the sorted samples, and no add after the
// first may touch the heap.
TEST(Metrics, HistogramIsExactBoundedAndLockFreeUnderThreads) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 2500000;
  // Thread t adds all[t * kPerThread, (t + 1) * kPerThread).
  std::vector<std::uint32_t> all(kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    support::Xoshiro256 rng(std::uint64_t(1000 + t));
    for (std::size_t i = 0; i < kPerThread; ++i) {
      all[std::size_t(t) * kPerThread + i] =
          std::uint32_t(std::exp(rng.next_double() * std::log(1e9)));
    }
  }
  support::MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  h.add(1.0);  // the first add; the exact set below includes it

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.add(double(all[std::size_t(t) * kPerThread + i]));
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  const std::uint64_t news_before = g_news.load();
  go.store(true);
  for (auto& th : ts) th.join();
  EXPECT_EQ(g_news.load(), news_before) << "a histogram add allocated";

  all.push_back(1);
  std::sort(all.begin(), all.end());
  std::uint64_t sum = 0;
  for (std::uint32_t x : all) sum += x;
  EXPECT_EQ(h.count(), all.size());
  EXPECT_EQ(h.sum(), double(sum));  // every partial sum is an exact double
  EXPECT_EQ(h.min(), double(all.front()));
  EXPECT_EQ(h.max(), double(all.back()));
  for (double p : {50.0, 99.0}) {
    const auto rank = std::size_t(std::ceil(p / 100 * double(all.size())));
    const auto exact = double(all[rank - 1]);
    const auto got = Histogram::bucket_of(h.percentile(p));
    const auto want = Histogram::bucket_of(exact);
    EXPECT_LE(got > want ? got - want : want - got, 1u)
        << "p" << p << ": " << h.percentile(p) << " vs exact " << exact;
  }
}

TEST(Metrics, CountersAreThreadSafe) {
  support::MetricsRegistry reg;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&reg] {
      for (int i = 0; i < 10000; ++i) reg.counter("hits").add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(reg.counter_value("hits"), 40000u);
}

// --- Flags ------------------------------------------------------------------------

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "--gamma"};
  support::Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get_int("beta", 0), 7);
  EXPECT_TRUE(f.get_bool("gamma", false));
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_EQ(f.get("alpha", ""), "3");
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 3.0);
  f.reject_unread();  // every flag given was read: no exit
}

TEST(Flags, UnreadFlagIsAnError) {
  const char* argv[] = {"prog", "--alpha=3", "--alpah=4", "--has"};
  support::Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_TRUE(f.has("has"));
  EXPECT_EXIT(f.reject_unread(), testing::ExitedWithCode(2),
              "^flags: unknown flag --alpah\n$");
}

// --- Spin ------------------------------------------------------------------------

TEST(Spin, LockExcludesConcurrentIncrements) {
  support::SpinLock mu;
  long long counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::lock_guard<support::SpinLock> lk(mu);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(Spin, TryLock) {
  support::SpinLock mu;
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

}  // namespace
