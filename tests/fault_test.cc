// hc-fault: deterministic injection schedules, exactly-once delivery under
// injection on the in-memory channel, request deadlines, the stall watchdog
// and the deadlined finalize barrier.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "dddf/space.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "smpi/world.h"
#include "support/metrics.h"

namespace {

// Every test arms process-global injection state; make sure none of it
// leaks into the next test (or into the other suites in a chaos run —
// reset() reloads HCMPI_FAULT, restoring whatever ctest configured).
struct FaultGuard {
  ~FaultGuard() {
    fault::record_schedule(false);
    fault::reset();
  }
};

std::uint64_t counter(const std::string& name) {
  return support::MetricsRegistry::global().counter_value(name);
}

dddf::SpaceConfig cyclic(int ranks) {
  return {
      .home = [ranks](dddf::Guid g) { return int(g % dddf::Guid(ranks)); },
      .size = [](dddf::Guid) { return std::size_t(64); },
  };
}

// ---------------------------------------------------------------------------
// The plan itself
// ---------------------------------------------------------------------------

std::vector<fault::Record> draw_interleaved(std::uint64_t seed, bool swap) {
  fault::reset();
  fault::Config cfg;
  cfg.seed = seed;
  cfg.drop_p = 0.3;
  cfg.dup_p = 0.2;
  cfg.delay_p = 0.25;
  cfg.delay_us = 7;
  fault::configure(cfg);
  fault::record_schedule(true);
  // Two threads drawing on distinct channels: the OS interleaving differs
  // run to run, the canonical schedule must not.
  auto draw01 = [] { for (int i = 0; i < 32; ++i) fault::decide(0, 1); };
  auto draw10 = [] { for (int i = 0; i < 32; ++i) fault::decide(1, 0); };
  std::thread a(swap ? draw10 : draw01);
  std::thread b(swap ? draw01 : draw10);
  a.join();
  b.join();
  std::vector<fault::Record> s = fault::schedule();
  fault::record_schedule(false);
  fault::reset();
  return s;
}

TEST(FaultPlan, SameSeedSameScheduleAcrossInterleavings) {
  FaultGuard guard;
  std::vector<fault::Record> first = draw_interleaved(42, false);
  std::vector<fault::Record> second = draw_interleaved(42, true);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 64u);
  EXPECT_NE(draw_interleaved(43, false), first);  // the seed matters
}

TEST(FaultPlan, AckLaneIsIndependentOfPayloadLane) {
  FaultGuard guard;
  fault::Config cfg;
  cfg.seed = 5;
  cfg.drop_p = 0.5;
  fault::configure(cfg);
  // Same (src, dst), different lanes: sequences advance independently.
  fault::Decision p0 = fault::decide(0, 1, fault::kPayloadLane);
  fault::Decision a0 = fault::decide(0, 1, fault::kAckLane);
  fault::Decision p1 = fault::decide(0, 1, fault::kPayloadLane);
  EXPECT_EQ(p0.seq + 1, p1.seq);
  EXPECT_EQ(a0.seq, p0.seq);  // the ack lane starts its own numbering
}

TEST(FaultPlan, EnvConfigParses) {
  FaultGuard guard;
  ::setenv("HCMPI_FAULT",
           "seed=7,drop_p=0.25,delay_p=0.5,delay_us=42,dup_p=0.125,"
           "kill_rank=2@5,watchdog_ms=40,finalize_timeout_ms=500",
           1);
  fault::configure_from_env();
  ::unsetenv("HCMPI_FAULT");
  const fault::Config& c = fault::config();
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.drop_p, 0.25);
  EXPECT_DOUBLE_EQ(c.delay_p, 0.5);
  EXPECT_EQ(c.delay_us, 42u);
  EXPECT_DOUBLE_EQ(c.dup_p, 0.125);
  EXPECT_EQ(c.kill_rank, 2);
  EXPECT_EQ(c.kill_after, 5u);
  EXPECT_EQ(c.watchdog_ms, 40u);
  EXPECT_EQ(c.finalize_timeout_ms, 500u);
  EXPECT_TRUE(fault::enabled());
}

// ---------------------------------------------------------------------------
// smpi: injected faults on the thread-mode wire are lateness only
// ---------------------------------------------------------------------------

TEST(SmpiFault, DropsAndDupsRecoveredExactlyOnce) {
  FaultGuard guard;
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.2;
  cfg.dup_p = 0.2;
  cfg.delay_p = 0.05;
  cfg.delay_us = 50;
  fault::configure(cfg);
  std::uint64_t drops0 = counter("fault.injected.drop");
  std::uint64_t retries0 = counter("retry.count");
  constexpr int kMsgs = 100;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    int peer = 1 - comm.rank();
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) comm.send(&i, sizeof i, peer, 7);
    }
    // FIFO order and exactly-once payloads despite drops and duplicates.
    if (comm.rank() == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        smpi::Status st;
        comm.recv(&v, sizeof v, peer, 7, &st);
        ASSERT_EQ(v, i);
        ASSERT_EQ(st.error, smpi::ErrorCode::kOk);
      }
      EXPECT_FALSE(comm.iprobe(smpi::kAnySource, smpi::kAnyTag));
    }
  });
  // p=0.2 over 100+ deterministic draws: the seed-1 schedule injects.
  EXPECT_GT(counter("fault.injected.drop"), drops0);
  EXPECT_GT(counter("retry.count"), retries0);
}

TEST(SmpiFault, SameSeedSameWorkloadSameSchedule) {
  FaultGuard guard;
  auto run_once = [] {
    fault::reset();
    fault::Config cfg;
    cfg.seed = 11;
    cfg.drop_p = 0.15;
    cfg.dup_p = 0.1;
    fault::configure(cfg);
    fault::record_schedule(true);
    smpi::World::run(2, [&](smpi::Comm& comm) {
      int peer = 1 - comm.rank();
      for (int i = 0; i < 50; ++i) {
        int out = comm.rank() * 1000 + i, in = -1;
        comm.sendrecv(&out, sizeof out, peer, 3, &in, sizeof in, peer, 3);
        EXPECT_EQ(in, peer * 1000 + i);
      }
    });
    std::vector<fault::Record> s = fault::schedule();
    fault::record_schedule(false);
    return s;
  };
  std::vector<fault::Record> first = run_once();
  std::vector<fault::Record> second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-for-byte identical injection schedule
}

TEST(SmpiFault, KilledRankReportsRankDead) {
  FaultGuard guard;
  fault::Config cfg;
  cfg.kill_rank = 1;
  cfg.kill_after = 0;  // dark from the first wire decision
  fault::configure(cfg);
  smpi::World::run(2, [&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int x = 9;
      smpi::Request req = comm.isend(&x, sizeof x, 1, 0);
      EXPECT_EQ(req->status.error, smpi::ErrorCode::kRankDead);
      EXPECT_EQ(req->status.count_bytes, 0u);
    }
    // Rank 1 is fail-stopped: it must not expect the message.
  });
}

// ---------------------------------------------------------------------------
// hcmpi + DDDF kernels under injection: results identical to a clean run
// ---------------------------------------------------------------------------

TEST(HcmpiFault, CollectivesAndP2pSurviveDrops) {
  FaultGuard guard;
  fault::Config cfg;
  cfg.seed = 2;
  cfg.drop_p = 0.1;
  cfg.dup_p = 0.1;
  fault::configure(cfg);
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      for (int round = 0; round < 5; ++round) {
        int in = ctx.rank() + 1, out = 0;
        ctx.allreduce(&in, &out, 1, hcmpi::Datatype::kInt,
                      hcmpi::Op::kSum);
        EXPECT_EQ(out, 3);
        int msg = round * 10 + ctx.rank(), got = -1;
        hcmpi::RequestHandle s =
            ctx.isend(&msg, sizeof msg, 1 - ctx.rank(), round);
        hcmpi::RequestHandle r =
            ctx.irecv(&got, sizeof got, 1 - ctx.rank(), round);
        ctx.waitall({s, r});
        EXPECT_EQ(got, round * 10 + (1 - ctx.rank()));
      }
    });
  });
}

TEST(DddfFault, ChainSurvivesDrops) {
  // In thread mode smpi delivery is an in-memory channel: a drop there is a
  // sender-side backoff and retry, never a lost or doubled message.
  FaultGuard guard;
  fault::Config cfg;
  cfg.seed = 3;
  cfg.drop_p = 0.1;
  cfg.dup_p = 0.1;
  fault::configure(cfg);
  std::uint64_t drops0 = counter("fault.injected.drop");
  const int ranks = 3, depth = 12;
  std::atomic<int> final_value{-1};
  std::atomic<std::uint64_t> transfers{0};
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(ranks));
    ctx.run([&] {
      hc::finish([&] {
        for (int k = 0; k < depth; ++k) {
          if (int(dddf::Guid(k) % ranks) != ctx.rank()) continue;
          if (k == 0) {
            space.put_value<int>(0, 1);
          } else {
            dddf::Guid prev = dddf::Guid(k - 1);
            space.async_await({prev}, [&space, prev, k] {
              space.put_value<int>(dddf::Guid(k),
                                   space.get_value<int>(prev) + 1);
            });
          }
        }
      });
      space.finalize();
      dddf::Guid last = dddf::Guid(depth - 1);
      if (space.is_home(last)) final_value.store(space.get_value<int>(last));
      transfers.fetch_add(space.data_messages_sent());
    });
  });
  EXPECT_EQ(final_value.load(), depth);
  // Exactly one DATA record per (guid, consumer) pair even though the wire
  // dropped and retried.
  EXPECT_EQ(transfers.load(), std::uint64_t(depth - 1));
  EXPECT_GT(counter("fault.injected.drop"), drops0);
}

// ---------------------------------------------------------------------------
// Request deadlines, the watchdog, and the deadlined finalize barrier
// ---------------------------------------------------------------------------

TEST(TimeoutFault, ExpiredRequestCompletesWithTimeoutStatus) {
  // No injection armed: the deadline API stands on its own.
  std::uint64_t timeouts0 = counter("request.timeout.count");
  smpi::World::run(1, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      int buf = 0;
      hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 777);
      r->set_timeout(20000, /*raise=*/false);  // 20 ms; nobody ever sends
      hcmpi::Status st;
      ctx.wait(r, &st);
      EXPECT_EQ(st.error, smpi::ErrorCode::kTimeout);
    });
  });
  EXPECT_EQ(counter("request.timeout.count"), timeouts0 + 1);
}

TEST(TimeoutFault, TimeoutSetAfterTheCommWorkerParksStillFires) {
  // The communication worker parks with no timer while the irecv has no
  // deadline; set_timeout must ring it so that it re-reads deadlines.
  smpi::World::run(1, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      int buf = 0;
      hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 781);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      r->set_timeout(20000, /*raise=*/false);  // 20 ms; nobody ever sends
      ASSERT_TRUE(hcmpi::Context::block_until_deadline(r, 1000))
          << "no timeout within 1 s of set_timeout";
      EXPECT_EQ(r->get().error, smpi::ErrorCode::kTimeout);
    });
  });
}

TEST(TimeoutFault, RaisePolicyThrowsThroughFinish) {
  smpi::World::run(1, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      int buf = 0;
      EXPECT_THROW(
          hc::finish([&] {
            hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 778);
            r->set_timeout(10000);  // default raise policy
          }),
          hcmpi::RequestTimeout);
    });
  });
}

TEST(WatchdogFault, FiresOnStalledCommWorkerAndDumps) {
  FaultGuard guard;
  fault::Config cfg;
  cfg.watchdog_ms = 40;
  fault::configure(cfg);
  std::uint64_t fired0 = counter("watchdog.fired");
  testing::internal::CaptureStderr();
  smpi::World::run(1, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(1));  // contributes a diagnostic dumper
    ctx.run([&] {
      int buf = 0;
      hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 779);
      // Nothing matches: the comm worker sits on one ACTIVE task with no
      // lifecycle transitions until the watchdog barks.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      EXPECT_TRUE(ctx.cancel(r));
    });
  });
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_GE(counter("watchdog.fired"), fired0 + 1);
  EXPECT_NE(err.find("watchdog"), std::string::npos);
  EXPECT_NE(err.find("irecv"), std::string::npos);
  EXPECT_NE(err.find("dddf.space"), std::string::npos);
}

TEST(WatchdogFault, RecycledSlotDumpsNoStaleP2pFields) {
  // A collective stalls in a comm-task slot whose previous incarnation was
  // a point-to-point message. Its watchdog line must not show that
  // message's peer, tag and size: a collective carries none of them.
  FaultGuard guard;
  fault::Config cfg;
  cfg.watchdog_ms = 40;
  fault::configure(cfg);
  testing::internal::CaptureStderr();
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      std::vector<char> out(384, 'x'), in(384);
      const int peer = 1 - ctx.rank();
      ctx.waitall({ctx.isend(out.data(), out.size(), peer, 4242),
                   ctx.irecv(in.data(), in.size(), peer, 4242)});
      // Both p2p slots are back in the pool; the barrier reuses one. Rank
      // 1 joins late, so rank 0's barrier sits queued past the watchdog.
      if (ctx.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
      ctx.barrier();
    });
  });
  std::string err = testing::internal::GetCapturedStderr();
  ASSERT_NE(err.find("queued collectives (1)"), std::string::npos) << err;
  EXPECT_EQ(err.find("peer=1 "), std::string::npos) << err;
  EXPECT_EQ(err.find("tag=4242"), std::string::npos) << err;
  EXPECT_EQ(err.find("bytes=384"), std::string::npos) << err;
}

TEST(BarrierFault, MpiFinalizeTimeoutNamesMissingRanks) {
  std::atomic<bool> threw{false};
  std::vector<int> missing;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    ctx.run([&] {
      if (ctx.rank() == 0) {
        try {
          space.finalize(/*timeout_ms=*/150);
        } catch (const dddf::BarrierTimeout& e) {
          threw.store(true);
          missing = e.missing();
        }
      } else {
        // Rank 1 never reaches finalize while rank 0's deadline runs out.
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
    });
  });
  EXPECT_TRUE(threw.load());
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], 1);
}

}  // namespace
