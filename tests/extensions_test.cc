// Tests for the API surface beyond the minimal paper kernel: communicator
// split, sendrecv, DdfList (paper Fig. 12 builder), async_future, and
// HCMPI_REQUEST_CREATE.
#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/ddf.h"
#include "hcmpi/context.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/rng.h"

namespace {

// --- Comm::split ----------------------------------------------------------

TEST(CommSplit, EvenOddGroups) {
  smpi::World::run(6, [](smpi::Comm& comm) {
    smpi::Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collective inside the subgroup: sum of world ranks with my parity.
    int mine = comm.rank();
    int sum = -1;
    sub.allreduce(&mine, &sum, 1, smpi::Datatype::kInt, smpi::Op::kSum);
    EXPECT_EQ(sum, comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(CommSplit, KeyReversesOrder) {
  smpi::World::run(4, [](smpi::Comm& comm) {
    smpi::Comm sub = comm.split(0, -comm.rank());  // descending keys
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - comm.rank());
  });
}

TEST(CommSplit, NegativeColorYieldsNull) {
  smpi::World::run(4, [](smpi::Comm& comm) {
    smpi::Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, 0);
    if (comm.rank() == 0) {
      EXPECT_TRUE(sub.is_null());
    } else {
      EXPECT_FALSE(sub.is_null());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(CommSplit, SubgroupP2pUsesLocalRanks) {
  smpi::World::run(4, [](smpi::Comm& comm) {
    // Two halves {0,1} and {2,3}; inside each, rank 0 sends to rank 1.
    smpi::Comm sub = comm.split(comm.rank() / 2, comm.rank());
    if (sub.rank() == 0) {
      int payload = 500 + comm.rank();
      sub.send(&payload, sizeof payload, 1, 9);
    } else {
      int got = 0;
      smpi::Status st;
      sub.recv(&got, sizeof got, 0, 9, &st);
      EXPECT_EQ(got, 500 + comm.rank() - 1);
      EXPECT_EQ(st.source, 0);  // local rank of the sender
    }
  });
}

TEST(CommSplit, TrafficIsolatedFromParent) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    smpi::Comm sub = comm.split(0, comm.rank());
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 5);
      sub.send(&b, sizeof b, 1, 5);  // same tag, different context
    } else {
      int got = 0;
      sub.recv(&got, sizeof got, 0, 5);
      EXPECT_EQ(got, 2);
      comm.recv(&got, sizeof got, 0, 5);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(CommSplit, NestedSplit) {
  smpi::World::run(8, [](smpi::Comm& comm) {
    smpi::Comm half = comm.split(comm.rank() / 4, comm.rank());
    smpi::Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    int mine = comm.rank();
    int sum = 0;
    quarter.allreduce(&mine, &sum, 1, smpi::Datatype::kInt, smpi::Op::kSum);
    EXPECT_EQ(sum, 2 * comm.rank() + (comm.rank() % 2 == 0 ? 1 : -1));
  });
}

// --- sendrecv ---------------------------------------------------------------

TEST(Sendrecv, RingRotation) {
  smpi::World::run(5, [](smpi::Comm& comm) {
    int p = comm.size(), r = comm.rank();
    int out = r, in = -1;
    comm.sendrecv(&out, sizeof out, (r + 1) % p, 3, &in, sizeof in,
                  (r - 1 + p) % p, 3);
    EXPECT_EQ(in, (r - 1 + p) % p);
  });
}

TEST(Sendrecv, SelfExchange) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    int out = 7 + comm.rank(), in = -1;
    comm.sendrecv(&out, sizeof out, comm.rank(), 1, &in, sizeof in,
                  comm.rank(), 1);
    EXPECT_EQ(in, out);
  });
}

// --- DdfList (paper Fig. 12) -------------------------------------------------

TEST(DdfList, AndListWaitsForAll) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto x = hc::ddf_create<int>(), y = hc::ddf_create<int>();
    std::atomic<int> sum{0};
    hc::finish([&] {
      hc::DdfList ddl(hc::DdfList::Kind::kAnd);
      ddl.add(x.get());
      ddl.add(y.get());
      EXPECT_EQ(ddl.size(), 2u);
      ddl.async_await([&, x, y] { sum = x->get() + y->get(); });
      hc::async([x] { x->put(20); });
      hc::async([y] { y->put(22); });
    });
    EXPECT_EQ(sum.load(), 42);
  });
}

TEST(DdfList, OrListFiresOnce) {
  hc::Runtime rt({.num_workers = 3});
  rt.launch([&] {
    auto x = hc::ddf_create<int>(), y = hc::ddf_create<int>();
    std::atomic<int> fires{0};
    hc::finish([&] {
      hc::DdfList ddl(hc::DdfList::Kind::kOr);
      ddl.add(x.get());
      ddl.add(y.get());
      ddl.async_await([&] { fires.fetch_add(1); });
      hc::async([x] { x->put(1); });
      hc::async([y] { y->put(2); });
    });
    EXPECT_EQ(fires.load(), 1);
  });
}

TEST(DdfList, AwaitLeavesTheListAsItWas) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    auto x = hc::ddf_create<int>(), y = hc::ddf_create<int>();
    std::atomic<int> fires{0};
    hc::finish([&] {
      hc::DdfList ddl(hc::DdfList::Kind::kAnd);
      ddl.add(x.get());
      ddl.add(y.get());
      ddl.async_await([&] { fires.fetch_add(1); });
      EXPECT_EQ(ddl.size(), 2u);
      ddl.async_await([&] { fires.fetch_add(10); });
      hc::async([x] { x->put(1); });
      hc::async([y] { y->put(2); });
    });
    EXPECT_EQ(fires.load(), 11);
  });
}

// --- async_future ---------------------------------------------------------------

TEST(AsyncFuture, ReturnsResultThroughDdf) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    int got = 0;
    hc::finish([&] {
      auto f = hc::async_future([] { return 6 * 7; });
      hc::async_await([&, f] { got = f->get(); }, f);
    });
    EXPECT_EQ(got, 42);
  });
}

TEST(AsyncFuture, ComposesIntoDataflow) {
  hc::Runtime rt({.num_workers = 2});
  rt.launch([&] {
    long got = 0;
    hc::finish([&] {
      auto a = hc::async_future([] { return 10L; });
      auto b = hc::async_future([] { return 32L; });
      hc::async_await(std::vector<hc::DdfBase*>{a.get(), b.get()},
                      [&, a, b] { got = a->get() + b->get(); });
    });
    EXPECT_EQ(got, 42);
  });
}

// --- HCMPI_REQUEST_CREATE ---------------------------------------------------------

TEST(RequestCreate, UserPutReleasesAwaiters) {
  smpi::World::run(1, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      hcmpi::RequestHandle r = hcmpi::Context::request_create();
      std::atomic<bool> fired{false};
      hc::finish([&] {
        hc::async_await({r.get()}, [&] { fired.store(true); });
        hc::async([r] {
          hcmpi::Status st;
          st.tag = 77;
          r->put(st);  // a user-generated event enters the await machinery
        });
      });
      EXPECT_TRUE(fired.load());
      EXPECT_EQ(r->get().tag, 77);
    });
  });
}

// --- determinism property: a random DDT DAG executes identically twice ------------

TEST(Property, RandomDdtDagIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    hc::Runtime rt({.num_workers = 3});
    long checksum = 0;
    rt.launch([&] {
      support::Xoshiro256 rng(seed);
      constexpr int kN = 120;
      std::vector<hc::DdfPtr<long>> nodes;
      for (int i = 0; i < kN; ++i) nodes.push_back(hc::ddf_create<long>());
      std::atomic<long> sink{0};
      hc::finish([&] {
        // Each node i depends on up to 3 random earlier nodes; its value is
        // a deterministic function of theirs, so any execution order must
        // produce identical values.
        for (int i = 0; i < kN; ++i) {
          std::vector<hc::DdfBase*> deps;
          std::vector<int> dep_ids;
          int ndeps = i == 0 ? 0 : int(rng.next_below(std::uint64_t(std::min(i, 3)) + 1));
          for (int d = 0; d < ndeps; ++d) {
            int j = int(rng.next_below(std::uint64_t(i)));
            dep_ids.push_back(j);
            deps.push_back(nodes[std::size_t(j)].get());
          }
          hc::async_await(deps, [&, i, dep_ids] {
            long v = i + 1;
            for (int j : dep_ids) v = v * 31 + nodes[std::size_t(j)]->get();
            nodes[std::size_t(i)]->put(v);
            sink.fetch_add(v);
          });
        }
      });
      checksum = sink.load();
    });
    return checksum;
  };
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
}

}  // namespace
