// hc-prof tests: deterministic state attribution, the probe's gating, the
// wall-clock sampler on parked and polling threads, histogram merge across
// workers/ranks, plus the trace.dropped overflow counter.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "hcmpi/context.h"
#include "prof/prof.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/observe.h"
#include "support/trace.h"

namespace {

// Restores the gates around each scenario so tests compose.
struct ProfGuard {
  ~ProfGuard() {
    prof::set_enabled(false);
    prof::set_telemetry(false);
    support::trace::set_enabled(false);
    prof::reset();
  }
};

TEST(ProfState, DeterministicAttribution) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  prof::register_thread("attr-test");

  prof::enter_state(prof::State::kTaskBody);
  for (int i = 0; i < 5; ++i) prof::sample_all();
  prof::enter_state(prof::State::kStealAttempt);
  for (int i = 0; i < 3; ++i) prof::sample_all();
  prof::enter_state(prof::State::kIdle);
  for (int i = 0; i < 2; ++i) prof::sample_all();
  prof::enter_state(prof::State::kUnattributed);

  auto reports = prof::report();
  const prof::ThreadReport* mine = nullptr;
  for (const auto& r : reports) {
    if (r.name == "attr-test") mine = &r;
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->samples[int(prof::State::kTaskBody)], 5u);
  EXPECT_EQ(mine->samples[int(prof::State::kStealAttempt)], 3u);
  EXPECT_EQ(mine->samples[int(prof::State::kIdle)], 2u);
  EXPECT_EQ(mine->total_samples(), 10u);

  prof::unregister_thread();
}

TEST(ProfState, ScopedStateNestsAndRestores) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  prof::register_thread("scoped-test");

  prof::enter_state(prof::State::kTaskBody);
  {
    prof::Probe steal(prof::State::kStealAttempt);
    prof::sample_all();
    {
      prof::Probe deque(prof::State::kDequeOp);
      prof::sample_all();
    }
    prof::sample_all();  // back to steal after the inner scope
  }
  prof::sample_all();  // back to task body

  auto* p = prof::thread_profile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->samples[int(prof::State::kStealAttempt)].load(), 2u);
  EXPECT_EQ(p->samples[int(prof::State::kDequeOp)].load(), 1u);
  EXPECT_EQ(p->samples[int(prof::State::kTaskBody)].load(), 1u);

  prof::unregister_thread();
}

TEST(ProfState, DisabledHooksAreNoOps) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(false);
  prof::register_thread("disabled-test");
  {
    prof::Probe p(prof::State::kTaskBody);  // gate off: no transition
    prof::sample_all();  // samples only live profiles; state stays 0
  }
  auto* p = prof::thread_profile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->samples[int(prof::State::kTaskBody)].load(), 0u);
  EXPECT_EQ(p->samples[int(prof::State::kUnattributed)].load(), 1u);
  prof::unregister_thread();
}

// Each gate bit drives only its own hook: telemetry alone records no ring
// event, tracing alone adds no histogram sample, and with every bit clear
// the state register is left alone.
TEST(ProfProbe, EachBitGatesOnlyItsHook) {
  ProfGuard guard;
  prof::reset();
  prof::register_thread("probe-test");
  support::MetricsRegistry reg;
  auto& h = reg.histogram("probe.lat");
  support::trace::Ring ring(64);
  auto edge = [&] {
    prof::Probe p(prof::State::kTaskBody, &ring);
    const std::uint64_t t0 = p.stamp(support::trace::Ev::kTaskStart, 1);
    p.instant(support::trace::Ev::kTaskSpawn, 1);
    p.sample(h, t0, p.stamp(support::trace::Ev::kTaskEnd, 1));
    p.sample(h, 3.0);
    prof::sample_all();  // attributes one sample to the state inside
  };
  auto* me = prof::thread_profile();
  ASSERT_NE(me, nullptr);

  prof::set_telemetry(true);
  edge();
  EXPECT_EQ(ring.recorded(), 0u) << "telemetry alone recorded a ring event";
  EXPECT_EQ(h.count(), 2u);

  prof::set_telemetry(false);
  support::trace::set_enabled(true);
  edge();
  EXPECT_EQ(ring.recorded(), 3u);  // start, spawn, end
  EXPECT_EQ(h.count(), 2u) << "tracing alone added a histogram sample";
  support::trace::set_enabled(false);

  edge();
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(me->samples[int(prof::State::kTaskBody)].load(), 0u)
      << "a probe switched state with every bit clear";
  EXPECT_EQ(me->samples[int(prof::State::kUnattributed)].load(), 3u);

  prof::set_enabled(true);
  edge();
  EXPECT_EQ(me->samples[int(prof::State::kTaskBody)].load(), 1u);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(h.count(), 2u);
  prof::unregister_thread();
}

// write_report must surface a failed close: /dev/full takes a small buffered
// write and then fails the flush inside fclose.
TEST(ProfReport, WriteReportFailsWhenCloseFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  prof::register_thread("report-test");
  prof::enter_state(prof::State::kTaskBody);
  prof::sample_all();  // a non-empty collapsed-stack body
  prof::enter_state(prof::State::kUnattributed);

  EXPECT_FALSE(prof::write_report("/dev/full"));
  prof::unregister_thread();
}

TEST(ProfState, ExportAndFlamegraphFormats) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  prof::register_thread("export-test");
  prof::enter_state(prof::State::kTaskBody);
  for (int i = 0; i < 4; ++i) prof::sample_all();
  prof::enter_state(prof::State::kUnattributed);

  std::string collapsed = prof::collapsed_stacks();
  EXPECT_NE(collapsed.find("export-test;task body 4"), std::string::npos)
      << collapsed;

  support::MetricsRegistry reg;
  prof::export_metrics(reg);
  EXPECT_EQ(reg.counter_value("prof.samples.task_body"), 4u);

  prof::unregister_thread();
}

TEST(ProfSampler, DefaultConfigCollectsSamples) {
  ProfGuard guard;
  prof::reset();
  prof::register_thread("sampled-main");
  ASSERT_TRUE(prof::start());
  EXPECT_TRUE(prof::running());
  EXPECT_FALSE(prof::start({}));  // already running

  prof::enter_state(prof::State::kTaskBody);
  volatile long acc = 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(200);
  std::uint64_t have = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int k = 0; k < 100000; ++k) acc = acc + k;
    have = prof::thread_profile()->samples[int(prof::State::kTaskBody)].load();
    if (have > 3) break;
  }
  prof::stop();
  EXPECT_FALSE(prof::running());
  EXPECT_GT(have, 0u);
  prof::unregister_thread();
}

// The profile of the live thread named `name`; all zero when there is none.
prof::ThreadReport live_report(const std::string& name) {
  for (const auto& r : prof::report()) {
    if (r.live && r.name == name) return r;
  }
  return {};
}

// Samples until the live thread `name` is seen idle (5 s at most), then
// zeroes every count. A thread woken while the host is loaded may wait for
// a CPU before it parks again; the counting starts once it has.
void reset_once_idle(const std::string& name) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    prof::reset();
    prof::sample_all();
    if (live_report(name).samples[int(prof::State::kIdle)] != 0 ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  prof::reset();
}

// The sampler reads the wall clock, so a parked thread takes samples too:
// while one of two workers runs a 200 ms task, the other parks, idle.
TEST(ProfSampler, ParkedWorkerSamplesAsIdle) {
  ProfGuard guard;
  prof::reset();
  ASSERT_TRUE(prof::start());  // 997 Hz
  std::string other;
  {
    hc::Runtime rt({.num_workers = 2});
    rt.launch([&] {
      const std::string busy = prof::thread_profile()->name;
      other = busy == "worker-0" ? "worker-1" : "worker-0";
      reset_once_idle(other);  // the launch woke it
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
  prof::stop();
  const auto reports = prof::report();
  auto it = std::find_if(reports.begin(), reports.end(),
                         [&](const auto& r) { return r.name == other; });
  ASSERT_NE(it, reports.end()) << "no profile for " << other;
  const std::uint64_t total = it->total_samples();
  const std::uint64_t idle = it->samples[int(prof::State::kIdle)];
  EXPECT_GE(total, 20u) << prof::summary();
  EXPECT_GE(4 * idle, 3 * total) << prof::summary();
}

// A communication worker with nothing to do parks, and its park is idle
// time, not comm progress.
TEST(ProfState, ParkedCommWorkerIsIdle) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  smpi::World::run(1, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    reset_once_idle("comm-worker");  // once it has parked
    for (int i = 0; i < 10; ++i) prof::sample_all();
    const prof::ThreadReport comm_worker = live_report("comm-worker");
    EXPECT_EQ(comm_worker.samples[int(prof::State::kIdle)], 10u);
    EXPECT_EQ(comm_worker.samples[int(prof::State::kCommProgress)], 0u);
  });
}

// A waiter's idle polls are idle time. Each wait_until call's deadline is
// 150 us out, inside the 200 us spin window, so the waiter polls and never
// parks.
TEST(ProfState, PollingWaiterIsIdle) {
  ProfGuard guard;
  prof::reset();
  prof::set_enabled(true);
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    prof::register_thread("poller");
    support::EventCount ec;
    while (!stop.load(std::memory_order_relaxed)) {
      hc::wait_until("poll", [] { return false; }, ec, nullptr,
                     support::trace::now_ns() + 150'000);
    }
    prof::unregister_thread();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  prof::ThreadReport r;
  while ((r = live_report("poller")).total_samples() < 50 &&
         std::chrono::steady_clock::now() < deadline) {
    prof::sample_all();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true);
  waiter.join();
  ASSERT_GE(r.total_samples(), 50u) << prof::summary();
  EXPECT_LT(2 * r.samples[int(prof::State::kUnattributed)], r.total_samples())
      << prof::summary();
}

// Threads that took no sample leave no profile behind: runtimes come and go
// while the sampler is off, and the registry stays the same size.
TEST(ProfState, ThreadWithoutSamplesLeavesNoProfile) {
  ProfGuard guard;
  prof::reset();
  const std::size_t before = prof::report().size();
  for (int i = 0; i < 100; ++i) {
    hc::Runtime rt({.num_workers = 2});
  }
  EXPECT_EQ(prof::report().size(), before);
}

// Histogram merge: per-worker / per-rank registries fold into one and the
// percentiles reflect the union of the sample sets.
TEST(Metrics, HistogramMergeAcrossWorkersAndRanks) {
  support::MetricsRegistry rank0, rank1, merged;
  // rank0's two workers see 1..100, rank1's worker sees 1001..1100.
  for (int i = 1; i <= 50; ++i) rank0.histogram("lat").add(i);
  for (int i = 51; i <= 100; ++i) rank0.histogram("lat").add(i);
  for (int i = 1001; i <= 1100; ++i) rank1.histogram("lat").add(i);

  merged.merge(rank0);
  merged.merge(rank1);

  const auto& h = merged.histogram("lat");
  EXPECT_EQ(h.count(), 200u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1100);
  EXPECT_EQ(h.sum(), 5050 + 105050);
  // Percentiles resolve to one bucket. The median is the 100th sample (100,
  // the top of rank0's range); p90 the 180th (1080, inside rank1's).
  using H = support::MetricsRegistry::Histogram;
  auto buckets_apart = [](double a, double b) {
    std::size_t x = H::bucket_of(a), y = H::bucket_of(b);
    return x > y ? x - y : y - x;
  };
  EXPECT_LE(buckets_apart(h.percentile(50), 100), 1u) << h.percentile(50);
  EXPECT_LE(buckets_apart(h.percentile(90), 1080), 1u) << h.percentile(90);
  // Counters add across ranks.
  rank0.counter("msgs").add(7);
  rank1.counter("msgs").add(5);
  merged.merge(rank0);
  merged.merge(rank1);
  EXPECT_EQ(merged.counter_value("msgs"), 12u);
}

// The ring overflow counter (trace.dropped): wrap a tiny ring and check the
// drop count lands in the registry for --metrics / Chrome-trace metadata.
TEST(TraceDropped, CountsRingOverwrites) {
  std::uint64_t before =
      support::MetricsRegistry::global().counter_value("trace.dropped");
  {
    support::trace::Ring ring(8);
    support::trace::set_enabled(true);
    for (int i = 0; i < 20; ++i) {
      prof::Probe(&ring).instant(support::trace::Ev::kTaskStart,
                                 std::uint32_t(i));
    }
    support::trace::set_enabled(false);
  }
  std::uint64_t after =
      support::MetricsRegistry::global().counter_value("trace.dropped");
  EXPECT_EQ(after - before, 12u);
}

TEST(Observe, ObservabilityFlagPartition) {
  EXPECT_TRUE(support::is_observability_flag("--trace=t.json"));
  EXPECT_TRUE(support::is_observability_flag("--metrics"));
  EXPECT_TRUE(support::is_observability_flag("--metrics-json=m.json"));
  EXPECT_TRUE(support::is_observability_flag("--prof-hz=997"));
  EXPECT_TRUE(support::is_observability_flag("--prof-out=p.json"));
  EXPECT_TRUE(support::is_observability_flag("--fault-drop-rate=0.1"));
  EXPECT_FALSE(support::is_observability_flag("--benchmark_filter=BM_Task"));
  EXPECT_FALSE(support::is_observability_flag("--workers=4"));
  EXPECT_FALSE(support::is_observability_flag("--steal=one"));
  EXPECT_FALSE(support::is_observability_flag("trace"));
}

}  // namespace
