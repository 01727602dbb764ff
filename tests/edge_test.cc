// Edge cases around the corners of each API's contract.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/ddf.h"
#include "smpi/comm.h"
#include "smpi/world.h"

namespace {

TEST(DdfEdge, DuplicateDependencyInAndList) {
  // The same DDF twice in one await list: the task must fire exactly once,
  // after the single put.
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto d = hc::ddf_create<int>();
    std::atomic<int> fires{0};
    hc::finish([&] {
      hc::async_await(std::vector<hc::DdfBase*>{d.get(), d.get(), d.get()},
                      [&] { fires.fetch_add(1); });
      hc::async([d] { d->put(1); });
    });
    EXPECT_EQ(fires.load(), 1);
  });
}

TEST(DdfEdge, EmptyAndListFiresImmediately) {
  hc::Runtime rt({.num_workers = 1});
  rt.launch([&] {
    std::atomic<bool> fired{false};
    hc::finish([&] {
      hc::async_await(std::vector<hc::DdfBase*>{}, [&] { fired.store(true); });
    });
    EXPECT_TRUE(fired.load());
  });
}

TEST(DdfEdge, EmptyOrListFiresImmediately) {
  hc::Runtime rt({.num_workers = 1});
  rt.launch([&] {
    std::atomic<bool> fired{false};
    hc::finish([&] {
      hc::async_await_any(std::vector<hc::DdfBase*>{},
                          [&] { fired.store(true); });
    });
    EXPECT_TRUE(fired.load());
  });
}

TEST(DdfEdge, MoveOnlyStyleLargePayload) {
  hc::Ddf<std::vector<int>> d;
  d.put(std::vector<int>(100000, 7));
  EXPECT_EQ(d.get().size(), 100000u);
  EXPECT_EQ(d.get()[99999], 7);
}

TEST(SmpiEdge, TwoWildcardRecvsMatchInPostOrder) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 5);
      comm.send(&b, sizeof b, 1, 5);
    } else {
      int x = 0, y = 0;
      smpi::Request r1 = comm.irecv(&x, sizeof x, smpi::kAnySource, 5);
      smpi::Request r2 = comm.irecv(&y, sizeof y, smpi::kAnySource, 5);
      comm.wait(r1);
      comm.wait(r2);
      // FIFO: the first-posted receive gets the first-sent message.
      EXPECT_EQ(x, 1);
      EXPECT_EQ(y, 2);
    }
  });
}

TEST(SmpiEdge, SelfSendRecv) {
  smpi::World::run(1, [](smpi::Comm& comm) {
    int v = 42, got = 0;
    comm.send(&v, sizeof v, 0, 1);
    comm.recv(&got, sizeof got, 0, 1);
    EXPECT_EQ(got, 42);
  });
}

TEST(SmpiEdge, InvalidRankThrows) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    int v = 0;
    EXPECT_THROW(comm.send(&v, sizeof v, 7, 1), std::out_of_range);
    EXPECT_THROW(comm.send(&v, sizeof v, -1, 1), std::out_of_range);
    EXPECT_THROW(comm.irecv(&v, sizeof v, 9, 1), std::out_of_range);
  });
}

TEST(SmpiEdge, UnexpectedQueueHighWater) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 32; ++i) comm.send(&i, sizeof i, 1, 9);
      int done = 1;
      comm.send(&done, sizeof done, 1, 10);
    } else {
      int d = 0;
      comm.recv(&d, sizeof d, 0, 10);  // all 32 now sit unexpected
      EXPECT_GE(comm.world().endpoint(1).unexpected_high_water(), 32u);
      for (int i = 0; i < 32; ++i) {
        int got = -1;
        comm.recv(&got, sizeof got, 0, 9);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(RuntimeEdge, ZeroIterationFinish) {
  hc::Runtime rt({.num_workers = 1});
  rt.launch([&] {
    hc::finish([] {});  // empty scope must not hang
  });
}

TEST(RuntimeEdge, FinishInsideAsyncInsideFinish) {
  hc::Runtime rt({.num_workers = 2});
  std::atomic<int> order{0};
  rt.launch([&] {
    hc::finish([&] {
      hc::async([&] {
        hc::finish([&] {
          hc::async([&] {
            hc::finish([&] {
              hc::async([&] { order.fetch_add(1); });
            });
            order.fetch_add(10);
          });
        });
        order.fetch_add(100);
      });
    });
  });
  EXPECT_EQ(order.load(), 111);
}

}  // namespace
