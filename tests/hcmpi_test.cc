#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/ddf.h"
#include "hcmpi/context.h"
#include "hcmpi/phaser_bridge.h"
#include "prof/prof.h"
#include "smpi/world.h"
#include "support/metrics.h"

namespace {

// Helper: run `body(ctx)` on `ranks` ranks, each with an HCMPI context.
void run_hcmpi(int ranks, int workers,
               const std::function<void(hcmpi::Context&)>& body) {
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = workers});
    ctx.run([&] { body(ctx); });
  });
}

TEST(Hcmpi, SendRecvBlocking) {
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 31337;
      ctx.send(&v, sizeof v, 1, 1);
    } else {
      int got = 0;
      hcmpi::Status st;
      ctx.recv(&got, sizeof got, 0, 1, &st);
      EXPECT_EQ(got, 31337);
      EXPECT_EQ(hcmpi::Context::get_count(st, hcmpi::Datatype::kInt), 1);
    }
  });
}

TEST(Hcmpi, FinishImplementsBlockingRecv) {
  // Paper Fig. 3: a finish around HCMPI_Irecv implements HCMPI_Recv.
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 8;
      // The send buffer must stay live until the communication task
      // completes (standard MPI rule) — scope it with a finish.
      hc::finish([&] { ctx.isend(&v, sizeof v, 1, 2); });
    } else {
      int got = 0;
      hc::finish([&] { ctx.irecv(&got, sizeof got, 0, 2); });
      EXPECT_EQ(got, 8);  // guaranteed complete after finish
    }
  });
}

TEST(Hcmpi, AwaitModelRunsTaskOnArrival) {
  // Paper Fig. 4: async AWAIT(r) IN(recv_buf) { read recv_buf }.
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 55;
      ctx.send(&v, sizeof v, 1, 3);
    } else {
      int buf = 0;
      std::atomic<int> seen{0};
      hc::finish([&] {
        hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 3);
        hc::async_await({r.get()}, [&] { seen.store(buf); });
      });
      EXPECT_EQ(seen.load(), 55);
    }
  });
}

TEST(Hcmpi, WaitAndStatusModel) {
  // Paper Fig. 5: Irecv + Wait + Get_count.
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<int> vals{1, 2, 3, 4, 5};
      ctx.send(vals.data(), vals.size() * sizeof(int), 1, 4);
    } else {
      std::vector<int> buf(16, 0);
      hcmpi::RequestHandle r =
          ctx.irecv(buf.data(), buf.size() * sizeof(int), 0, 4);
      hcmpi::Status st;
      ctx.wait(r, &st);
      EXPECT_EQ(hcmpi::Context::get_count(st, hcmpi::Datatype::kInt), 5);
      EXPECT_EQ(buf[4], 5);
    }
  });
}

TEST(Hcmpi, WaitallAndTestall) {
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    constexpr int kN = 16;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kN; ++i) ctx.send(&i, sizeof i, 1, 10 + i);
    } else {
      std::vector<int> bufs(kN, -1);
      std::vector<hcmpi::RequestHandle> rs;
      for (int i = 0; i < kN; ++i) {
        rs.push_back(ctx.irecv(&bufs[std::size_t(i)], sizeof(int), 0, 10 + i));
      }
      ctx.waitall(rs);
      EXPECT_TRUE(ctx.testall(rs));
      for (int i = 0; i < kN; ++i) EXPECT_EQ(bufs[std::size_t(i)], i);
    }
  });
}

TEST(Hcmpi, WaitanyPicksTheArrivedOne) {
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 0) {
      int v = 3;
      ctx.send(&v, sizeof v, 1, 21);
    } else {
      int a = 0, b = 0;
      std::vector<hcmpi::RequestHandle> rs{
          ctx.irecv(&a, sizeof a, 0, 20),  // never sent
          ctx.irecv(&b, sizeof b, 0, 21)};
      hcmpi::Status st;
      int idx = ctx.waitany(rs, &st);
      EXPECT_EQ(idx, 1);
      EXPECT_EQ(b, 3);
      EXPECT_TRUE(ctx.cancel(rs[0]));
    }
  });
}

TEST(Hcmpi, WaitanyOnNullHandlesReturnsMinusOne) {
  // MPI_Waitany on a list with no active request returns MPI_UNDEFINED; a
  // wait on it would never end. A regression fails here instead of hanging:
  // the call runs on its own thread, abandoned after 5 s.
  run_hcmpi(1, 1, [](hcmpi::Context& ctx) {
    const std::vector<hcmpi::RequestHandle> none(3);
    auto* f = new std::future<int>(
        std::async(std::launch::async, [&] { return ctx.waitany(none); }));
    ASSERT_EQ(f->wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "waitany on null handles is still blocked after 5 s";
    EXPECT_EQ(f->get(), -1);
    delete f;
  });
}

TEST(Hcmpi, CancelNeverMatchedRecv) {
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    if (ctx.rank() == 1) {
      int buf = 0;
      hcmpi::RequestHandle r = ctx.irecv(&buf, sizeof buf, 0, 1000);
      EXPECT_TRUE(ctx.cancel(r));
      hcmpi::Status st;
      EXPECT_TRUE(ctx.test(r, &st));
      EXPECT_TRUE(st.cancelled);
    }
  });
}

TEST(Hcmpi, CancelRacingArrivalHasOneOutcome) {
  // Each round, rank 0 sends on tag = round while rank 1 posts the matching
  // irecv and cancels it at once, so the cancel races the arrival. Either
  // the cancel wins and a second receive gets the value, or the first
  // receive holds it, uncancelled. Rank 1 checks everything itself, so the
  // test holds across processes too. Prints how many cancels won.
  constexpr int kRounds = 500;
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    int won = 0;
    for (int round = 0; round < kRounds; ++round) {
      ctx.barrier();  // start both sides of the race together
      if (ctx.rank() == 0) {
        ctx.send(&round, sizeof round, 1, round);
        continue;
      }
      int got = -1;
      hcmpi::RequestHandle r = ctx.irecv(&got, sizeof got, 0, round);
      const bool cancelled = ctx.cancel(r);
      hcmpi::Status st;
      ASSERT_TRUE(ctx.test(r, &st)) << "round " << round;
      ASSERT_EQ(st.cancelled, cancelled) << "round " << round;
      if (cancelled) {
        ++won;
        int again = -1;
        ctx.recv(&again, sizeof again, 0, round);
        ASSERT_EQ(again, round);
      } else {
        ASSERT_EQ(got, round);
      }
    }
    if (ctx.rank() == 1) {
      std::printf("cancel won %d of %d rounds\n", won, kRounds);
    }
  });
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

TEST(Hcmpi, IdleRankUsesNoCpu) {
  // Two ranks with one computation worker each sit idle for 0.5 s after a
  // barrier. Each thread's CPU time is read on that thread, inside a task
  // and inside a communication-worker closure, at both ends of the window.
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] { ctx.barrier(); });
    double worker_s = 0, comm_s = 0;
    auto sample = [&] {
      ctx.run([&] {
        worker_s = thread_cpu_s();
        hcmpi::Context::block_until(ctx.post_exec_async(
            [&](smpi::Comm&) { comm_s = thread_cpu_s(); }));
      });
    };
    sample();
    const double worker0 = worker_s, comm0 = comm_s;
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const auto t1 = std::chrono::steady_clock::now();
    sample();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    EXPECT_LE((worker_s - worker0) / wall, 0.05)
        << "computation worker CPU s/s on rank " << comm.rank();
    EXPECT_LE((comm_s - comm0) / wall, 0.05)
        << "communication worker CPU s/s on rank " << comm.rank();
  });
}

TEST(Hcmpi, CommTaskSlotsAreRecycled) {
  // The ALLOCATED->...->AVAILABLE lifecycle (paper Fig. 11): sequential
  // operations must reuse pooled slots instead of growing without bound.
  run_hcmpi(2, 1, [](hcmpi::Context& ctx) {
    int v = 1;
    for (int i = 0; i < 200; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(&v, sizeof v, 1, 5);
      } else {
        ctx.recv(&v, sizeof v, 0, 5);
      }
    }
    EXPECT_GT(ctx.tasks_recycled(), 100u);
  });
}

TEST(Hcmpi, LifecycleLatencyIgnoresARecycledSlotsStaleStamps) {
  // A comm-task slot recycled from a timed incarnation, posted while
  // telemetry is off and completed after it is back on, must not pair its
  // old PRESCRIBED stamp with the new COMPLETED one: that "latency" would
  // span the whole untimed sleep.
  constexpr auto kSleep = std::chrono::milliseconds(50);
  auto& lat = support::MetricsRegistry::global().histogram(
      "hcmpi.comm_task_latency_ns");
  run_hcmpi(1, 1, [&](hcmpi::Context& ctx) {
    int out = 1, in = 0;
    prof::set_telemetry(true);
    {
      auto r = ctx.irecv(&in, sizeof in, 0, 7);
      auto s = ctx.isend(&out, sizeof out, 0, 7);
      ctx.wait(r);
      ctx.wait(s);
    }  // both handles dropped: the slots go back to the pool
    prof::set_telemetry(false);
    auto r = ctx.irecv(&in, sizeof in, 0, 8);  // a recycled slot, untimed
    std::this_thread::sleep_for(kSleep);
    prof::set_telemetry(true);
    auto s = ctx.isend(&out, sizeof out, 0, 8);
    ctx.wait(r);
    ctx.wait(s);
    prof::set_telemetry(false);
  });
  EXPECT_GE(lat.count(), 3u);  // the timed pair, and the timed send
  EXPECT_LT(lat.max(), std::chrono::nanoseconds(kSleep).count())
      << "a latency paired a stale stamp";
}

TEST(Hcmpi, RequestHandleOutlivesItsContext) {
  // Request slots are pooled by their Context. A handle still held when the
  // Context goes away keeps its slot, status included; dropping the last
  // copy afterwards frees it (a use after free here is an ASan finding).
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::RequestHandle kept;
    hcmpi::RequestHandle bare = hcmpi::Context::request_create();
    int got = -1;
    {
      hcmpi::Context ctx(comm, {.num_workers = 1});
      ctx.run([&] {
        int v = 77;
        if (ctx.rank() == 0) {
          kept = ctx.isend(&v, sizeof v, 1, 9);
        } else {
          kept = ctx.irecv(&got, sizeof got, 0, 9);
        }
        ctx.wait(kept);
      });
    }
    ASSERT_TRUE(kept);
    hcmpi::RequestHandle last = kept;
    kept.reset();
    ASSERT_TRUE(last->satisfied());
    EXPECT_EQ(last->get().error, smpi::ErrorCode::kOk);
    EXPECT_EQ(last->get().count_bytes, sizeof(int));
    if (comm.rank() == 1) {
      EXPECT_EQ(got, 77);
    }
    EXPECT_FALSE(bare->satisfied());
    bare->put(hcmpi::Status{});
    EXPECT_TRUE(bare->satisfied());
  });  // `last` and `bare` are dropped here, after their Context
}

TEST(Hcmpi, ManyConcurrentMessagesThroughOneCommWorker) {
  run_hcmpi(2, 3, [](hcmpi::Context& ctx) {
    constexpr int kN = 128;
    if (ctx.rank() == 0) {
      hc::finish([&] {
        for (int i = 0; i < kN; ++i) {
          hc::async([&ctx, i] {
            int v = i;
            ctx.send(&v, sizeof v, 1, 100 + i);
          });
        }
      });
    } else {
      std::vector<int> got(kN, -1);
      hc::finish([&] {
        for (int i = 0; i < kN; ++i) {
          ctx.irecv(&got[std::size_t(i)], sizeof(int), 0, 100 + i);
        }
      });
      long long sum = std::accumulate(got.begin(), got.end(), 0LL);
      EXPECT_EQ(sum, (long long)kN * (kN - 1) / 2);
    }
  });
}

// --- collectives -----------------------------------------------------------------

class HcmpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(HcmpiCollectives, BarrierSynchronizes) {
  const int p = GetParam();
  std::atomic<int> entered{0};
  std::atomic<bool> violated{false};
  run_hcmpi(p, 2, [&](hcmpi::Context& ctx) {
    // `entered` only sees ranks hosted by this process (hcmpi_launch).
    for (int round = 1; round <= 3; ++round) {
      entered.fetch_add(1);
      ctx.barrier();
      if (entered.load() < round * ctx.user_comm().local_size()) {
        violated.store(true);
      }
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(HcmpiCollectives, AllreduceSum) {
  const int p = GetParam();
  run_hcmpi(p, 2, [&](hcmpi::Context& ctx) {
    long mine = ctx.rank() + 1;
    long out = -1;
    ctx.allreduce(&mine, &out, 1, hcmpi::Datatype::kLong, hcmpi::Op::kSum);
    EXPECT_EQ(out, long(p) * (p + 1) / 2);
  });
}

TEST_P(HcmpiCollectives, BcastReduceScanGatherScatter) {
  const int p = GetParam();
  run_hcmpi(p, 2, [&](hcmpi::Context& ctx) {
    int r = ctx.rank();
    int x = r == 0 ? 42 : -1;
    ctx.bcast(&x, sizeof x, 0);
    EXPECT_EQ(x, 42);

    int red = -1;
    ctx.reduce(&r, &red, 1, hcmpi::Datatype::kInt, hcmpi::Op::kMax, 0);
    if (r == 0) {
      EXPECT_EQ(red, p - 1);
    }

    int scanned = -1;
    int one = 1;
    ctx.scan(&one, &scanned, 1, hcmpi::Datatype::kInt, hcmpi::Op::kSum);
    EXPECT_EQ(scanned, r + 1);

    std::vector<int> all(std::size_t(p), -1);
    int mine = r * 2;
    ctx.gather(&mine, sizeof mine, all.data(), 0);
    if (r == 0) {
      for (int i = 0; i < p; ++i) EXPECT_EQ(all[std::size_t(i)], 2 * i);
    }
    int got = -1;
    ctx.scatter(all.data(), sizeof got, &got, 0);
    if (r == 0) {
      EXPECT_EQ(got, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, HcmpiCollectives,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Hcmpi, NbBarrierCompletesOnAllRanks) {
  run_hcmpi(4, 1, [](hcmpi::Context& ctx) {
    hcmpi::RequestHandle r = ctx.submit_nb_barrier();
    hcmpi::Context::block_until(r);
    EXPECT_TRUE(r->satisfied());
  });
}

TEST(Hcmpi, NbAllreduceMatchesBlocking) {
  run_hcmpi(5, 1, [](hcmpi::Context& ctx) {
    std::int64_t mine = (ctx.rank() + 1) * 10;
    std::int64_t nb_out = -1;
    auto r = ctx.submit_nb_allreduce(&mine, &nb_out, 1,
                                     hcmpi::Datatype::kLong, hcmpi::Op::kSum);
    hcmpi::Context::block_until(r);
    EXPECT_EQ(nb_out, 150);
  });
}

TEST(Hcmpi, CommWorkerServesP2pWhileACollectiveWaits) {
  // Rank 0's barrier cannot finish before rank 1 joins it, and rank 1 joins
  // only after rank 0 answered its message. Only a communication worker
  // that keeps polling while the barrier waits delivers that answer.
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    int ping = 0, pong = 0;
    if (ctx.rank() == 0) {
      hc::finish([&] {
        hcmpi::RequestHandle r = ctx.irecv(&ping, sizeof ping, 1, 21);
        hc::async_await({r.get()}, [&] {
          pong = ping + 1;
          ctx.isend(&pong, sizeof pong, 1, 22);
        });
        ctx.barrier();
      });
    } else {
      ping = 41;
      ctx.send(&ping, sizeof ping, 0, 21);
      hcmpi::RequestHandle r = ctx.irecv(&pong, sizeof pong, 0, 22);
      r->set_timeout(2'000'000, /*raise=*/false);
      hcmpi::Status st;
      ctx.wait(r, &st);
      EXPECT_NE(st.error, smpi::ErrorCode::kTimeout);
      EXPECT_EQ(pong, 42);
      ctx.barrier();
    }
  });
}

// --- hcmpi-phaser / hcmpi-accum -----------------------------------------------

class HcmpiPhaserModes : public ::testing::TestWithParam<bool> {};

TEST_P(HcmpiPhaserModes, PhaserBarrierAcrossRanksAndTasks) {
  const bool fuzzy = GetParam();
  const int ranks = 3, tasks = 3;
  std::atomic<int> arrivals{0};
  std::atomic<bool> violated{false};
  run_hcmpi(ranks, tasks + 1, [&](hcmpi::Context& ctx) {
    hcmpi::HcmpiPhaser ph(ctx, fuzzy);
    // All registrations happen before any task can signal: an unanchored
    // register_task racing a live signal cascade is rejected (and unsound —
    // see check::PhaserRegistrationRace).
    std::array<hc::Phaser::Registration*, tasks> regs;
    for (int t = 0; t < tasks; ++t) {
      regs[std::size_t(t)] = ph.register_task(hc::PhaserMode::kSignalWait);
    }
    hc::finish([&] {
      for (int t = 0; t < tasks; ++t) {
        auto* reg = regs[std::size_t(t)];
        hc::async([&, reg] {
          for (int phase = 1; phase <= 4; ++phase) {
            arrivals.fetch_add(1);
            ph.next(reg);
            // Strict: the inter-node barrier starts only after every local
            // signal, so release implies every task on every rank arrived.
            // Fuzzy: the first local arrival starts the inter-node barrier
            // (overlap is the point), so release only implies every rank
            // finished the previous phase and started this one.
            // Count against locally hosted ranks: under hcmpi_launch the
            // other ranks' arrivals land in other processes' counters.
            int lr = ctx.user_comm().local_size();
            int required = fuzzy ? (phase - 1) * lr * tasks + lr
                                 : phase * lr * tasks;
            if (arrivals.load() < required) violated.store(true);
          }
          ph.drop(reg);
        });
      }
    });
  });
  EXPECT_FALSE(violated.load());
}

INSTANTIATE_TEST_SUITE_P(StrictAndFuzzy, HcmpiPhaserModes,
                         ::testing::Values(false, true));

TEST(Hcmpi, AccumulatorGlobalSum) {
  const int ranks = 3, tasks = 2;
  run_hcmpi(ranks, tasks + 1, [&](hcmpi::Context& ctx) {
    hcmpi::HcmpiAccum<std::int64_t> acc(ctx, hc::ReduceOp::kSum);
    std::atomic<bool> ok{true};
    std::array<hc::Phaser::Registration*, tasks> regs;
    for (int t = 0; t < tasks; ++t) regs[std::size_t(t)] = acc.register_task();
    hc::finish([&] {
      for (int t = 0; t < tasks; ++t) {
        auto* reg = regs[std::size_t(t)];
        hc::async([&, reg] {
          // Every task everywhere contributes 5: global sum = 5 * 6.
          acc.accum_next(reg, 5);
          if (acc.accum_get(reg) != 5 * ranks * tasks) ok.store(false);
          acc.drop(reg);
        });
      }
    });
    EXPECT_TRUE(ok.load());
  });
}

TEST(Hcmpi, AccumulatorDoubleMax) {
  run_hcmpi(4, 2, [&](hcmpi::Context& ctx) {
    hcmpi::HcmpiAccum<double> acc(ctx, hc::ReduceOp::kMax);
    auto* reg = acc.register_task();
    acc.accum_next(reg, double(ctx.rank()) * 1.5);
    EXPECT_DOUBLE_EQ(acc.accum_get(reg), 4.5);
    acc.drop(reg);
  });
}

TEST(Hcmpi, SingleRankWorld) {
  run_hcmpi(1, 2, [](hcmpi::Context& ctx) {
    EXPECT_EQ(ctx.size(), 1);
    ctx.barrier();
    int v = 7, out = 0;
    ctx.allreduce(&v, &out, 1, hcmpi::Datatype::kInt, hcmpi::Op::kSum);
    EXPECT_EQ(out, 7);
  });
}

}  // namespace
