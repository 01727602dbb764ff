// Observability layer: event rings, trace export, and the instrumentation
// threaded through the runtime / hcmpi / dddf layers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/runtime.h"
#include "dddf/space.h"
#include "hcmpi/context.h"
#include "prof/prof.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

namespace trace = support::trace;

// Tests toggle the process-wide gate; keep each test self-contained.
struct TraceGateGuard {
  TraceGateGuard() {
    trace::set_enabled(false);
    trace::Collector::global().clear();
  }
  ~TraceGateGuard() {
    trace::set_enabled(false);
    trace::Collector::global().clear();
  }
};

// --- ring semantics ---------------------------------------------------------

TEST(TraceRing, DisabledRecordIsDropped) {
  TraceGateGuard guard;
  trace::Ring ring(16);
  prof::Probe(&ring).instant(trace::Ev::kTaskSpawn, 1, 2);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, EnabledRecordLands) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  trace::Ring ring(16);
  prof::Probe(&ring).instant(trace::Ev::kTaskSpawn, 7, 99);
  auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, trace::Ev::kTaskSpawn);
  EXPECT_EQ(evs[0].a, 7u);
  EXPECT_EQ(evs[0].b, 99u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  trace::Ring ring(17);
  EXPECT_EQ(ring.capacity(), 32u);
}

TEST(TraceRing, OverflowDropsOldest) {
  TraceGateGuard guard;
  trace::Ring ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.emit(trace::Ev::kTaskSpawn, /*ts_ns=*/i, std::uint32_t(i), i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);  // 20 recorded - 8 resident
  auto evs = ring.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest-first and exactly the newest 8 (12..19) survive.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].b, 12 + i);
  }
}

TEST(TraceRing, SnapshotConcurrentWithProducerNeverTears) {
  TraceGateGuard guard;
  trace::Ring ring(64);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // a and b carry the same sequence number: a torn slot would show a
      // mismatch between the two fields.
      ring.emit(trace::Ev::kTaskSpawn, i, std::uint32_t(i & 0xffffffff), i);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (const trace::Event& e : ring.snapshot()) {
      ASSERT_EQ(e.a, std::uint32_t(e.b & 0xffffffff));
      ASSERT_EQ(e.ts_ns, e.b);
    }
  }
  stop.store(true);
  producer.join();
}

// --- worker instrumentation -------------------------------------------------

TEST(TraceRuntime, WorkersRecordTaskSpans) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  {
    hc::Runtime rt({.num_workers = 2});
    rt.set_trace_pid(5);
    rt.launch([] {
      hc::finish([] {
        for (int i = 0; i < 16; ++i) {
          hc::async([] {});
        }
      });
    });
  }  // ~Runtime flushes rings into the collector
  auto tracks = trace::Collector::global().tracks();
  ASSERT_FALSE(tracks.empty());
  std::uint64_t starts = 0, ends = 0, spawns = 0;
  for (const auto& t : tracks) {
    EXPECT_EQ(t.pid, 5);
    for (const auto& e : t.events) {
      starts += e.kind == trace::Ev::kTaskStart;
      ends += e.kind == trace::Ev::kTaskEnd;
      spawns += e.kind == trace::Ev::kTaskSpawn;
    }
  }
  EXPECT_EQ(starts, ends);
  EXPECT_GE(starts, 16u);  // 16 asyncs + the root task
  EXPECT_GE(spawns, 16u);
}

TEST(TraceRuntime, StealCountersExposed) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([] {
    hc::finish([] {
      for (int i = 0; i < 64; ++i) {
        hc::async([] {
          volatile int x = 0;
          for (int k = 0; k < 500; ++k) x = x + k;
        });
      }
    });
  });
  auto per_worker = rt.worker_counters();
  ASSERT_GE(per_worker.size(), 2u);
  std::uint64_t exec = 0;
  for (const auto& wc : per_worker) exec += wc.tasks_executed;
  EXPECT_GE(exec, 64u);
  // The aggregate equals the per-worker breakdown's sum.
  std::uint64_t attempts = 0;
  for (const auto& wc : per_worker) attempts += wc.steal_attempts;
  EXPECT_EQ(rt.total_steal_attempts(), attempts);
}

TEST(TraceRuntime, RuntimeExportsMetrics) {
  support::MetricsRegistry reg;
  {
    hc::Runtime rt({.num_workers = 2});
    rt.launch([] {
      hc::finish([] {
        for (int i = 0; i < 8; ++i) hc::async([] {});
      });
    });
    rt.export_metrics(reg);
  }
  EXPECT_GE(reg.counter_value("hc.tasks_executed"), 8u);
  EXPECT_TRUE(reg.has_counter("hc.steal_attempts"));
}

// --- hcmpi comm-task lifecycle ----------------------------------------------

TEST(TraceHcmpi, MetricsMergeAcrossRanks) {
  // Each rank exports into its own registry; merging models the bench
  // harness folding per-rank registries into one dump.
  constexpr int kRanks = 2;
  std::vector<support::MetricsRegistry> regs(kRanks);
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      int me = ctx.rank(), peer = 1 - me;
      int out = me, in = -1;
      hcmpi::RequestHandle s = ctx.isend(&out, sizeof out, peer, 0);
      hcmpi::RequestHandle r = ctx.irecv(&in, sizeof in, peer, 0);
      ctx.wait(s);
      ctx.wait(r);
      EXPECT_EQ(in, peer);
      ctx.barrier();
    });
    ctx.export_metrics(regs[std::size_t(ctx.rank())]);
  });
  support::MetricsRegistry merged;
  for (const auto& r : regs) merged.merge(r);
  // 2 p2p tasks per rank = 4 total submissions minimum.
  EXPECT_GE(merged.counter_value("hcmpi.comm_tasks_submitted"), 4u);
  EXPECT_GE(merged.counter_value("hcmpi.p2p_completions"), 4u);
  EXPECT_GT(merged.counter_value("hcmpi.poll_loop_iterations"), 0u);
  // Merged value is the sum of the per-rank values.
  std::uint64_t per_rank_sum = 0;
  for (const auto& r : regs) {
    per_rank_sum += r.counter_value("hcmpi.comm_tasks_submitted");
  }
  EXPECT_EQ(merged.counter_value("hcmpi.comm_tasks_submitted"), per_rank_sum);
}

TEST(TraceHcmpi, LifecycleEventsCoverAllTransitions) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      int me = ctx.rank(), peer = 1 - me;
      for (int i = 0; i < 4; ++i) {  // reuse drives AVAILABLE via recycling
        int out = me, in = -1;
        hcmpi::RequestHandle s = ctx.isend(&out, sizeof out, peer, i);
        hcmpi::RequestHandle r = ctx.irecv(&in, sizeof in, peer, i);
        ctx.wait(s);
        ctx.wait(r);
      }
    });
  });
  std::uint64_t allocated = 0, prescribed = 0, active = 0, completed = 0,
                 available = 0;
  for (const auto& t : trace::Collector::global().tracks()) {
    for (const auto& e : t.events) {
      allocated += e.kind == trace::Ev::kCommAllocated;
      prescribed += e.kind == trace::Ev::kCommPrescribed;
      active += e.kind == trace::Ev::kCommActive;
      completed += e.kind == trace::Ev::kCommCompleted;
      available += e.kind == trace::Ev::kCommAvailable;
    }
  }
  EXPECT_GT(allocated, 0u);
  EXPECT_GT(prescribed, 0u);
  EXPECT_GT(active, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_GT(available, 0u);  // released slots re-entered the pool
  EXPECT_EQ(allocated, prescribed);  // every p2p task was submitted
}

// --- exporter ---------------------------------------------------------------

// Minimal structural JSON scan: balanced braces/brackets outside strings.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

// The registry's JSON export is balanced, and each section holds exactly
// the entries written.
TEST(Metrics, DumpJsonParsesBack) {
  support::MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.depth").set(2.5);
  for (int i = 1; i <= 100; ++i) reg.histogram("c.lat").add(i);

  const std::string json = reg.dump_json();
  auto has = [&](const char* fragment) {
    return json.find(fragment) != std::string::npos;
  };
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_TRUE(has("\"counters\": {\n    \"a.count\": 3\n  }")) << json;
  EXPECT_TRUE(has("\"gauges\": {\n    \"b.depth\": 2.5\n  }")) << json;
  EXPECT_TRUE(has("\"hists\": {\n    \"c.lat\": {\"count\": 100, ")) << json;
  EXPECT_TRUE(has("\"sum\": 5050, ")) << json;
}

TEST(TraceExport, ChromeJsonContainsLifecycleSpans) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      int me = ctx.rank(), peer = 1 - me;
      int out = me, in = -1;
      hcmpi::RequestHandle s = ctx.isend(&out, sizeof out, peer, 0);
      hcmpi::RequestHandle r = ctx.irecv(&in, sizeof in, peer, 0);
      ctx.wait(s);
      ctx.wait(r);
      hc::finish([] {
        for (int i = 0; i < 4; ++i) hc::async([] {});
      });
    });
  });
  trace::set_enabled(false);
  std::string json = trace::chrome_trace_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Comm-task lifecycle spans for each Fig. 10 state transition.
  for (const char* state : {"ALLOCATED", "PRESCRIBED", "ACTIVE", "COMPLETED"}) {
    EXPECT_NE(json.find(state), std::string::npos) << state;
  }
  // Worker task spans and thread/process naming metadata.
  EXPECT_NE(json.find("\"name\":\"task\""), std::string::npos);
  EXPECT_NE(json.find("comm-worker"), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  // Both ranks appear as distinct pids.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(TraceExport, WriteFileRoundTrip) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  trace::Ring ring(8);
  ring.emit(trace::Ev::kTaskStart, trace::now_ns(), 0, 0);
  ring.emit(trace::Ev::kTaskEnd, trace::now_ns(), 0, 0);
  trace::Collector::global().add_track(
      {0, 0, "worker-0", ring.snapshot(), 0});
  std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  ASSERT_TRUE(trace::write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(body, trace::chrome_trace_json());
  EXPECT_TRUE(json_balanced(body));
}

TEST(TraceExport, DddfEventsReachTrace) {
  TraceGateGuard guard;
  trace::set_enabled(true);
  // The registry is process-wide and never cleared (hot sites cache its
  // entries), so the transport byte counts are compared as deltas.
  auto& reg = support::MetricsRegistry::global();
  const std::uint64_t sent0 = reg.counter_value("dddf.bytes_sent");
  const std::uint64_t recv0 = reg.counter_value("dddf.bytes_received");
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    dddf::Space space(ctx, {
        .home = [](dddf::Guid g) { return int(g % 2); },
        .size = [](dddf::Guid) { return sizeof(int); },
    });
    ctx.run([&] {
      int me = ctx.rank(), peer = 1 - me;
      hc::finish([&] {
        space.put_value<int>(dddf::Guid(me), 100 + me);
        space.async_await({dddf::Guid(peer)}, [&space, peer] {
          EXPECT_EQ(space.get_value<int>(dddf::Guid(peer)), 100 + peer);
        });
      });
      space.finalize();
    });
  });
  bool get_issued = false, served = false, data = false;
  for (const auto& t : trace::Collector::global().tracks()) {
    // A wrapped ring loses its oldest events, the early kDddfGetIssued
    // among them; name the track that overflowed.
    EXPECT_EQ(t.dropped, 0u) << t.name << " of rank " << t.pid
                             << " overflowed its ring";
    for (const auto& e : t.events) {
      get_issued |= e.kind == trace::Ev::kDddfGetIssued;
      served |= e.kind == trace::Ev::kDddfServed;
      data |= e.kind == trace::Ev::kDddfData;
    }
  }
  EXPECT_TRUE(get_issued);
  EXPECT_TRUE(served);
  EXPECT_TRUE(data);
  // Teardown exported transport byte counts into the global registry.
  const std::uint64_t sent = reg.counter_value("dddf.bytes_sent") - sent0;
  const std::uint64_t recv = reg.counter_value("dddf.bytes_received") - recv0;
  EXPECT_GE(sent, 2 * sizeof(int));
  EXPECT_EQ(sent, recv);
}

}  // namespace
