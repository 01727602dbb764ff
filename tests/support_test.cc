#include <algorithm>
#include <atomic>
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
#include "support/spsc_ring.h"
#include "support/stats.h"

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

// --- SPSC ring ------------------------------------------------------------------

TEST(Spsc, PushPopRoundTrip) {
  support::SpscRing<int> r(8);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(r.try_push(i));
    EXPECT_FALSE(r.try_push(99));  // full
    int v;
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(r.try_pop(v));
      EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(r.try_pop(v));  // empty
  }
}

TEST(Spsc, ConcurrentStream) {
  support::SpscRing<int> r(64);
  constexpr int kN = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kN;) {
      if (r.try_push(i)) ++i;
    }
  });
  long long sum = 0;
  for (int got = 0; got < kN;) {
    int v;
    if (r.try_pop(v)) {
      EXPECT_EQ(v, got);
      sum += v;
      ++got;
    }
  }
  producer.join();
  EXPECT_EQ(sum, (long long)kN * (kN - 1) / 2);
}

// --- Stats ---------------------------------------------------------------------

TEST(Stats, WelfordMeanAndStddev) {
  support::Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, PercentilesInterpolate) {
  support::Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(double(i));
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_NEAR(p.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.1);
}

TEST(Stats, FormatNs) {
  EXPECT_EQ(support::format_ns(500), "500.0 ns");
  EXPECT_EQ(support::format_ns(2500), "2.50 us");
  EXPECT_EQ(support::format_ns(3.5e6), "3.50 ms");
  EXPECT_EQ(support::format_ns(2.25e9), "2.250 s");
}

TEST(Stats, MergeMatchesSingleStream) {
  // Chan et al. parallel combine must agree with feeding one Stats directly.
  support::Stats whole, left, right;
  for (int i = 0; i < 50; ++i) {
    double x = 3.0 * i - 20.0;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmptySides) {
  support::Stats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);  // adopt
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Stats, PercentilesPartialSelectionMatchesSortedPath) {
  // The first few queries use nth_element partial selection; repeated
  // queries trip a full sort. Both paths must return identical values.
  std::vector<double> xs;
  support::Xoshiro256 rng(11);
  for (int i = 0; i < 999; ++i) xs.push_back(double(rng.next_below(10000)));
  support::Percentiles sorted;
  for (double x : xs) sorted.add(x);
  for (int i = 0; i < 10; ++i) (void)sorted.percentile(50);  // force the sort
  for (double q : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    support::Percentiles fresh;  // every query hits the selection path
    fresh.reserve(xs.size());
    for (double x : xs) fresh.add(x);
    EXPECT_DOUBLE_EQ(fresh.percentile(q), sorted.percentile(q)) << "q=" << q;
  }
}

TEST(Stats, PercentilesMerge) {
  support::Percentiles a, b, whole;
  for (int i = 1; i <= 60; ++i) {
    ((i % 3 == 0) ? a : b).add(double(i));
    whole.add(double(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (double q : {0.0, 25.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(Stats, PercentilesSelfMergeDoubles) {
  support::Percentiles p;
  for (int i = 1; i <= 10; ++i) p.add(double(i));
  p.merge(p);
  EXPECT_EQ(p.count(), 20u);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 10.0);
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
