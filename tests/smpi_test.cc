#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/rng.h"

namespace {

// --- point-to-point -----------------------------------------------------------

TEST(SmpiP2p, SendRecvRoundTrip) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int payload = 1234;
      comm.send(&payload, sizeof payload, 1, 42);
    } else {
      int got = 0;
      smpi::Status st;
      comm.recv(&got, sizeof got, 0, 42, &st);
      EXPECT_EQ(got, 1234);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.get_count(smpi::Datatype::kInt), 1);
    }
  });
}

TEST(SmpiP2p, TagSelectsMessage) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 10);
      comm.send(&b, sizeof b, 1, 20);
    } else {
      int got = 0;
      comm.recv(&got, sizeof got, 0, 20);  // out of arrival order
      EXPECT_EQ(got, 2);
      comm.recv(&got, sizeof got, 0, 10);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(SmpiP2p, FifoPerChannel) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    constexpr int kN = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send(&i, sizeof i, 1, 7);
    } else {
      for (int i = 0; i < kN; ++i) {
        int got = -1;
        comm.recv(&got, sizeof got, 0, 7);
        ASSERT_EQ(got, i);  // arrival order preserved per (src, tag)
      }
    }
  });
}

TEST(SmpiP2p, AnySourceAnyTagWildcards) {
  smpi::World::run(3, [](smpi::Comm& comm) {
    if (comm.rank() != 0) {
      int v = comm.rank() * 100;
      comm.send(&v, sizeof v, 0, comm.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        int got = 0;
        smpi::Status st;
        comm.recv(&got, sizeof got, smpi::kAnySource, smpi::kAnyTag, &st);
        EXPECT_EQ(got, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        sum += got;
      }
      EXPECT_EQ(sum, 300);
    }
  });
}

TEST(SmpiP2p, IsendIrecvWithWait) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      double x = 2.5;
      smpi::Request r = comm.isend(&x, sizeof x, 1, 3);
      comm.wait(r);
      EXPECT_TRUE(r->done());
    } else {
      double y = 0;
      smpi::Request r = comm.irecv(&y, sizeof y, 0, 3);
      smpi::Status st;
      comm.wait(r, &st);
      EXPECT_DOUBLE_EQ(y, 2.5);
      EXPECT_EQ(st.count_bytes, sizeof(double));
    }
  });
}

TEST(SmpiP2p, TestPollsWithoutBlocking) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 1) {
      int got = 0;
      smpi::Request r = comm.irecv(&got, sizeof got, 0, 5);
      while (!comm.test(r)) {
      }
      EXPECT_EQ(got, 77);
    } else {
      int v = 77;
      comm.send(&v, sizeof v, 1, 5);
    }
  });
}

TEST(SmpiP2p, WaitanyReturnsACompletedIndex) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int v = 9;
      comm.send(&v, sizeof v, 1, 2);  // only tag 2 ever sent
    } else {
      int a = 0, b = 0;
      std::vector<smpi::Request> rs{comm.irecv(&a, sizeof a, 0, 1),
                                    comm.irecv(&b, sizeof b, 0, 2)};
      smpi::Status st;
      int idx = comm.waitany(rs, &st);
      EXPECT_EQ(idx, 1);
      EXPECT_EQ(b, 9);
      EXPECT_TRUE(comm.cancel(rs[0]));  // clean up the never-matched recv
    }
  });
}

TEST(SmpiP2p, WaitanyOnNullRequestsReturnsUndefined) {
  // MPI_Waitany on a list with no active request returns MPI_UNDEFINED (-1
  // here); a wait on it would never end. A regression fails here instead of
  // hanging: the call runs on its own thread, abandoned after 5 s.
  smpi::World::run(1, [](smpi::Comm& comm) {
    const std::vector<smpi::Request> none(3);
    auto* f = new std::future<int>(
        std::async(std::launch::async, [&] { return comm.waitany(none); }));
    ASSERT_EQ(f->wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "waitany on null requests is still blocked after 5 s";
    EXPECT_EQ(f->get(), -1);
    delete f;
  });
}

TEST(SmpiP2p, TruncationReported) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      char big[64] = {};
      comm.send(big, sizeof big, 1, 1);
    } else {
      char small[8];
      smpi::Status st;
      comm.recv(small, sizeof small, 0, 1, &st);
      EXPECT_EQ(st.error, smpi::ErrorCode::kTruncate);
      EXPECT_EQ(st.count_bytes, sizeof small);
    }
  });
}

TEST(SmpiP2p, ZeroByteMessages) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(nullptr, 0, 1, 9);
    } else {
      smpi::Status st;
      comm.recv(nullptr, 0, 0, 9, &st);
      EXPECT_EQ(st.count_bytes, 0u);
      EXPECT_EQ(st.error, smpi::ErrorCode::kOk);
    }
  });
}

TEST(SmpiP2p, CancelPendingRecv) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 1) {
      int buf = 0;
      smpi::Request r = comm.irecv(&buf, sizeof buf, 0, 99);
      EXPECT_TRUE(comm.cancel(r));
      EXPECT_TRUE(r->done());
      EXPECT_TRUE(r->status.cancelled);
      EXPECT_FALSE(comm.cancel(r));  // second cancel is a no-op
    }
  });
}

TEST(SmpiP2p, CancelMatchedRecvFails) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      int v = 5;
      comm.send(&v, sizeof v, 1, 4);
    } else {
      int buf = 0;
      smpi::Request r = comm.irecv(&buf, sizeof buf, 0, 4);
      comm.wait(r);
      EXPECT_FALSE(comm.cancel(r));
    }
  });
}

TEST(SmpiP2p, ProbeSeesMessageWithoutConsuming) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      long v = 11;
      comm.send(&v, sizeof v, 1, 6);
    } else {
      smpi::Status st;
      comm.probe(0, 6, &st);
      EXPECT_EQ(st.count_bytes, sizeof(long));
      long got = 0;
      comm.recv(&got, sizeof got, st.source, st.tag);
      EXPECT_EQ(got, 11);
      EXPECT_FALSE(comm.iprobe(0, 6));  // consumed
    }
  });
}

TEST(SmpiP2p, IprobeNonBlocking) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    if (comm.rank() == 1) {
      EXPECT_FALSE(comm.iprobe(0, 1234));  // nothing sent on this tag
    }
  });
}

TEST(SmpiP2p, PayloadsAroundTheInlineLimit) {
  // Envelopes keep up to Payload::kInlineBytes in place and larger payloads
  // on the heap; both sides of the limit must arrive intact.
  const std::size_t sizes[] = {1, smpi::Payload::kInlineBytes - 1,
                               smpi::Payload::kInlineBytes,
                               smpi::Payload::kInlineBytes + 1, 4096};
  smpi::World::run(2, [&](smpi::Comm& comm) {
    int tag = 0;
    for (std::size_t n : sizes) {
      std::vector<std::uint8_t> buf(n);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < n; ++i) buf[i] = std::uint8_t(i * 7 + n);
        comm.send(buf.data(), n, 1, tag);
      } else {
        smpi::Status st;
        comm.recv(buf.data(), n, 0, tag, &st);
        ASSERT_EQ(st.count_bytes, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(buf[i], std::uint8_t(i * 7 + n)) << "size " << n;
        }
      }
      ++tag;
    }
  });
}

TEST(SmpiP2p, BlockedWaitersReturnUnderDeliveryAndCancel) {
  // Rank 1's threads block in wait, probe and waitany on its endpoint while
  // rank 0 delivers and one more rank-1 thread cancels. Rank 0 starts
  // sending as the waiters start, and seeded pauses on both sides vary who
  // is first, so registrations race deliveries. Every waiter must return
  // with the right outcome; a lost wake-up leaves one parked, and the
  // deadline names it.
  constexpr int kRounds = 400;
  constexpr int kGoTag = 7;
  smpi::World::run(2, [](smpi::Comm& comm) {
    support::Xoshiro256 rng(0x5eed + std::uint64_t(comm.rank()));
    auto pause = [](std::uint64_t n) {
      for (; n > 0; --n) std::this_thread::yield();
    };
    for (int round = 0; round < kRounds; ++round) {
      const int base = 100 + 4 * round;  // wait, probe, waitany, cancelled
      if (comm.rank() == 0) {
        int go = 0;
        comm.recv(&go, sizeof go, 1, kGoTag);
        int tags[3] = {base, base + 1, base + 2};
        for (int i = 2; i > 0; --i) {
          std::swap(tags[i], tags[rng.next_below(std::uint64_t(i + 1))]);
        }
        for (int t : tags) {
          // None, a few yields, or long enough for the waiters to park.
          const std::uint64_t kind = rng.next_below(3);
          if (kind == 1) {
            pause(rng.next_below(4));
          } else if (kind == 2) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(20 + rng.next_below(100)));
          }
          comm.send(&round, sizeof round, 1, t);
        }
        continue;
      }
      int a = -1, c = -1, p = -1;
      smpi::Request ra = comm.irecv(&a, sizeof a, 0, base);
      smpi::Request rb = comm.irecv(nullptr, 0, 0, base + 3);  // never sent
      smpi::Request rc = comm.irecv(&c, sizeof c, 0, base + 2);
      std::uint64_t delay[4];
      for (auto& d : delay) d = rng.next_below(4);
      std::atomic<bool> done[4] = {false, false, false, false};
      comm.send(&round, sizeof round, 0, kGoTag);
      std::vector<std::thread> ts;
      ts.emplace_back([&] {
        pause(delay[0]);
        comm.wait(ra);
        done[0] = true;
      });
      ts.emplace_back([&] {
        pause(delay[1]);
        smpi::Status st;
        comm.probe(0, base + 1, &st);
        comm.recv(&p, sizeof p, 0, base + 1);
        done[1] = true;
      });
      ts.emplace_back([&] {
        pause(delay[2]);
        int i = comm.waitany({rb, rc});
        EXPECT_TRUE(i == 0 || i == 1);
        done[2] = true;
      });
      ts.emplace_back([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(10 * delay[3]));
        EXPECT_TRUE(comm.cancel(rb));
        done[3] = true;
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      for (int w = 0; w < 4; ++w) {
        while (!done[w].load()) {
          if (std::chrono::steady_clock::now() > deadline) {
            const char* names[4] = {"wait", "probe", "waitany", "cancel"};
            std::fprintf(stderr, "round %d: the %s thread never returned\n",
                         round, names[w]);
            std::fflush(stderr);
            std::_Exit(1);  // the parked thread cannot be joined
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      for (auto& t : ts) t.join();
      comm.wait(rc);
      EXPECT_EQ(a, round);
      EXPECT_EQ(p, round);
      EXPECT_EQ(c, round);
      EXPECT_TRUE(rb->status.cancelled);
    }
  });
}

TEST(SmpiP2p, DupIsolatesContexts) {
  smpi::World::run(2, [](smpi::Comm& comm) {
    smpi::Comm comm2 = comm.dup();
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 5);
      comm2.send(&b, sizeof b, 1, 5);  // same tag, different context
    } else {
      int got = 0;
      comm2.recv(&got, sizeof got, 0, 5);
      EXPECT_EQ(got, 2);  // must match the dup'd context, not the original
      comm.recv(&got, sizeof got, 0, 5);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(SmpiP2p, ExceptionInRankPropagates) {
  EXPECT_THROW(smpi::World::run(2,
                                [](smpi::Comm& comm) {
                                  if (comm.rank() == 1) {
                                    throw std::runtime_error("rank boom");
                                  }
                                }),
               std::runtime_error);
}

// --- collectives ------------------------------------------------------------------

class SmpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(SmpiCollectives, Barrier) {
  const int p = GetParam();
  std::atomic<int> entered{0};
  std::atomic<bool> violated{false};
  smpi::World::run(p, [&](smpi::Comm& comm) {
    // `entered` only sees ranks in this process: under hcmpi_launch the
    // comm spans processes, so count against local_size(), not size().
    for (int round = 1; round <= 5; ++round) {
      entered.fetch_add(1);
      comm.barrier();
      if (entered.load() < round * comm.local_size()) violated.store(true);
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(SmpiCollectives, BcastFromEveryRoot) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> buf(17, comm.rank() == root ? root * 3 + 1 : -1);
      comm.bcast(buf.data(), buf.size() * sizeof(int), root);
      for (int v : buf) ASSERT_EQ(v, root * 3 + 1);
    }
  });
}

TEST_P(SmpiCollectives, ReduceSumToRoot) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    int mine = comm.rank() + 1;
    int out = -1;
    comm.reduce(&mine, &out, 1, smpi::Datatype::kInt, smpi::Op::kSum, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(out, p * (p + 1) / 2);
    }
  });
}

TEST_P(SmpiCollectives, AllreduceMinMax) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    int mine = comm.rank();
    int mn = -1, mx = -1;
    comm.allreduce(&mine, &mn, 1, smpi::Datatype::kInt, smpi::Op::kMin);
    comm.allreduce(&mine, &mx, 1, smpi::Datatype::kInt, smpi::Op::kMax);
    EXPECT_EQ(mn, 0);
    EXPECT_EQ(mx, p - 1);
  });
}

TEST_P(SmpiCollectives, InclusiveScan) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    int mine = comm.rank() + 1;
    int out = 0;
    comm.scan(&mine, &out, 1, smpi::Datatype::kInt, smpi::Op::kSum);
    int r = comm.rank();
    EXPECT_EQ(out, (r + 1) * (r + 2) / 2);
  });
}

TEST_P(SmpiCollectives, GatherAndScatter) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    int mine = comm.rank() * 11;
    std::vector<int> all(std::size_t(p), -1);
    comm.gather(&mine, sizeof mine, all.data(), 0);
    if (comm.rank() == 0) {
      for (int i = 0; i < p; ++i) EXPECT_EQ(all[std::size_t(i)], i * 11);
      for (int i = 0; i < p; ++i) all[std::size_t(i)] = i * 7;
    }
    int got = -1;
    comm.scatter(all.data(), sizeof got, &got, 0);
    EXPECT_EQ(got, comm.rank() * 7);
  });
}

TEST_P(SmpiCollectives, Allgather) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    int mine = comm.rank() + 5;
    std::vector<int> all(std::size_t(p), -1);
    comm.allgather(&mine, sizeof mine, all.data());
    for (int i = 0; i < p; ++i) EXPECT_EQ(all[std::size_t(i)], i + 5);
  });
}

TEST_P(SmpiCollectives, Alltoall) {
  const int p = GetParam();
  smpi::World::run(p, [&](smpi::Comm& comm) {
    std::vector<int> send(std::size_t(p), 0);
    std::vector<int> recv(std::size_t(p), -1);
    for (int i = 0; i < p; ++i) send[std::size_t(i)] = comm.rank() * 100 + i;
    comm.alltoall(send.data(), sizeof(int), recv.data());
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(recv[std::size_t(i)], i * 100 + comm.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SmpiCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(SmpiCollectives, ReduceDoubleAndProd) {
  smpi::World::run(4, [](smpi::Comm& comm) {
    double mine = double(comm.rank() + 1);
    double out = 0;
    comm.allreduce(&mine, &out, 1, smpi::Datatype::kDouble, smpi::Op::kProd);
    EXPECT_DOUBLE_EQ(out, 24.0);
  });
}

TEST(SmpiCollectives, VectorReduction) {
  smpi::World::run(3, [](smpi::Comm& comm) {
    std::vector<long> mine(50);
    std::iota(mine.begin(), mine.end(), comm.rank());
    std::vector<long> out(50, -1);
    comm.allreduce(mine.data(), out.data(), 50, smpi::Datatype::kLong,
                   smpi::Op::kSum);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(out[std::size_t(i)], 3 * i + 3);
  });
}

TEST(SmpiCollectives, LogicalOps) {
  smpi::World::run(4, [](smpi::Comm& comm) {
    int flag = comm.rank() == 2 ? 0 : 1;
    int land = -1, lor = -1;
    comm.allreduce(&flag, &land, 1, smpi::Datatype::kInt, smpi::Op::kLand);
    comm.allreduce(&flag, &lor, 1, smpi::Datatype::kInt, smpi::Op::kLor);
    EXPECT_EQ(land, 0);
    EXPECT_EQ(lor, 1);
  });
}

TEST(SmpiTypes, GetCountMismatchThrows) {
  smpi::Status st;
  st.count_bytes = 6;
  EXPECT_THROW(st.get_count(smpi::Datatype::kInt), std::logic_error);
  st.count_bytes = 8;
  EXPECT_EQ(st.get_count(smpi::Datatype::kInt), 2);
}

TEST(SmpiTypes, LogicalOpOnFloatThrows) {
  float a = 1, b = 1;
  EXPECT_THROW(
      smpi::apply_op(smpi::Op::kLand, smpi::Datatype::kFloat, &a, &b, 1),
      std::logic_error);
}

}  // namespace
