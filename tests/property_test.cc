// Property-style parameterized sweeps: invariants that must hold across the
// whole configuration space, not just hand-picked cases.
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/phaser.h"
#include "sim/uts_common.h"
#include "sim/uts_hybrid.h"
#include "sim/uts_sim.h"
#include "smpi/comm.h"
#include "smpi/world.h"

namespace {

// --- phasers unify collective AND point-to-point synchronization -------------

TEST(PhaserPointToPoint, ProducerConsumerPipeline) {
  // One SIGNAL_ONLY producer, one WAIT_ONLY consumer: the phaser acts as a
  // point-to-point semaphore chain ("Phasers unify collective and
  // point-to-point synchronization between tasks in a single interface").
  hc::Phaser ph;
  auto* producer = ph.register_task(hc::PhaserMode::kSignalOnly);
  auto* consumer = ph.register_task(hc::PhaserMode::kWaitOnly);
  constexpr int kItems = 50;
  std::vector<int> buffer(kItems, -1);
  std::thread cons([&] {
    for (int i = 0; i < kItems; ++i) {
      ph.next(consumer);  // waits for phase i to complete
      ASSERT_EQ(buffer[std::size_t(i)], i * 3);  // item i is published
    }
  });
  for (int i = 0; i < kItems; ++i) {
    buffer[std::size_t(i)] = i * 3;
    ph.next(producer);  // signals phase i; never blocks on the consumer
  }
  cons.join();
  ph.drop(producer);
}

TEST(PhaserPointToPoint, TwoStagePipelineThroughOnePhaser) {
  // stage A signals, stage B signal-waits, stage C waits: B runs one phase
  // behind A, C sees both of their effects.
  hc::Phaser ph;
  auto* a = ph.register_task(hc::PhaserMode::kSignalOnly);
  auto* b = ph.register_task(hc::PhaserMode::kSignalWait);
  auto* c = ph.register_task(hc::PhaserMode::kWaitOnly);
  constexpr int kPhases = 30;
  std::atomic<int> a_done{0}, b_done{0};
  std::atomic<bool> bad{false};
  std::thread tb([&] {
    for (int i = 0; i < kPhases; ++i) {
      if (a_done.load() < i) bad.store(true);  // A signalled phase i already
      b_done.fetch_add(1);
      ph.next(b);
    }
  });
  std::thread tc([&] {
    for (int i = 0; i < kPhases; ++i) {
      ph.next(c);
      if (b_done.load() < i + 1) bad.store(true);
    }
  });
  for (int i = 0; i < kPhases; ++i) {
    a_done.fetch_add(1);
    ph.next(a);
  }
  tb.join();
  tc.join();
  EXPECT_FALSE(bad.load());
  ph.drop(a);
  ph.drop(b);
}

// --- reduce correctness across the full op × datatype matrix --------------------

using ReduceCase = std::tuple<smpi::Op, smpi::Datatype>;

class SmpiReduceMatrix : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(SmpiReduceMatrix, AllreduceMatchesLocalFold) {
  auto [op, dt] = GetParam();
  constexpr int kRanks = 4;
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    auto value_for = [&](int rank, int i) {
      return (rank * 7 + i * 3) % 13 + 1;
    };
    constexpr int kCount = 9;
    auto fold = [&](long a, long b) -> long {
      switch (op) {
        case smpi::Op::kSum: return a + b;
        case smpi::Op::kProd: return a * b;
        case smpi::Op::kMin: return std::min(a, b);
        case smpi::Op::kMax: return std::max(a, b);
        case smpi::Op::kLand: return (a != 0) && (b != 0);
        case smpi::Op::kLor: return (a != 0) || (b != 0);
        case smpi::Op::kBand: return a & b;
        case smpi::Op::kBor: return a | b;
        case smpi::Op::kBxor: return a ^ b;
      }
      return 0;
    };
    auto run_typed = [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> mine(kCount), out(kCount, T(-1));
      for (int i = 0; i < kCount; ++i) {
        mine[std::size_t(i)] = T(value_for(comm.rank(), i));
      }
      comm.allreduce(mine.data(), out.data(), kCount, dt, op);
      for (int i = 0; i < kCount; ++i) {
        long expect = value_for(0, i);
        for (int r = 1; r < kRanks; ++r) expect = fold(expect, value_for(r, i));
        EXPECT_EQ(long(out[std::size_t(i)]), expect) << "elem " << i;
      }
    };
    switch (dt) {
      case smpi::Datatype::kInt: run_typed(int{}); break;
      case smpi::Datatype::kLong: run_typed(long{}); break;
      case smpi::Datatype::kDouble: run_typed(double{}); break;
      case smpi::Datatype::kFloat: run_typed(float{}); break;
      default: break;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    OpsTimesTypes, SmpiReduceMatrix,
    ::testing::Values(
        ReduceCase{smpi::Op::kSum, smpi::Datatype::kInt},
        ReduceCase{smpi::Op::kSum, smpi::Datatype::kLong},
        ReduceCase{smpi::Op::kSum, smpi::Datatype::kDouble},
        ReduceCase{smpi::Op::kSum, smpi::Datatype::kFloat},
        ReduceCase{smpi::Op::kProd, smpi::Datatype::kLong},
        ReduceCase{smpi::Op::kProd, smpi::Datatype::kDouble},
        ReduceCase{smpi::Op::kMin, smpi::Datatype::kInt},
        ReduceCase{smpi::Op::kMin, smpi::Datatype::kDouble},
        ReduceCase{smpi::Op::kMax, smpi::Datatype::kLong},
        ReduceCase{smpi::Op::kMax, smpi::Datatype::kFloat},
        ReduceCase{smpi::Op::kLand, smpi::Datatype::kInt},
        ReduceCase{smpi::Op::kLor, smpi::Datatype::kLong},
        ReduceCase{smpi::Op::kBand, smpi::Datatype::kInt},
        ReduceCase{smpi::Op::kBor, smpi::Datatype::kLong},
        ReduceCase{smpi::Op::kBxor, smpi::Datatype::kLong}));

// --- UTS simulators conserve the tree across the whole config grid ----------------

using UtsGrid = std::tuple<int, int>;  // nodes, cores

class UtsSimConservation : public ::testing::TestWithParam<UtsGrid> {};

TEST_P(UtsSimConservation, EveryVariantExploresTheSameTree) {
  auto [nodes, cores] = GetParam();
  uts::Params tree = uts::t1();
  tree.gen_mx = 7;  // small & fast
  // Reference count via the fast stream.
  std::uint64_t ref = 0;
  {
    std::vector<sim::FastNode> st{sim::fast_root(tree)};
    while (!st.empty()) {
      auto n = st.back();
      st.pop_back();
      ++ref;
      int k = sim::fast_children(n, tree);
      for (int i = 0; i < k; ++i) st.push_back(sim::fast_child(n, std::uint32_t(i)));
    }
  }
  sim::UtsSimConfig cfg;
  cfg.tree = tree;
  cfg.nodes = nodes;
  cfg.cores_per_node = cores;
  auto m = sim::jaguar();
  auto mpi = sim::run_uts_mpi(m, cfg);
  auto hcmpi = sim::run_uts_hcmpi(m, cfg);
  auto hybrid = sim::run_uts_hybrid(m, cfg);
  EXPECT_EQ(mpi.nodes_explored, ref);
  EXPECT_EQ(hcmpi.nodes_explored, ref);
  EXPECT_EQ(hybrid.nodes_explored, ref);
  // Virtual time is always positive and at least the serial-work bound
  // divided by the resource count.
  double lower = double(ref) * double(m.uts_node_work) / 1e9 /
                 double(nodes) / double(cores);
  EXPECT_GE(mpi.time_s, lower * 0.99);
  EXPECT_GE(hcmpi.time_s,
            double(ref) * double(m.uts_node_work) / 1e9 / double(nodes) /
                double(std::max(1, cores - 1)) * 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UtsSimConservation,
    ::testing::Values(UtsGrid{1, 2}, UtsGrid{2, 2}, UtsGrid{4, 4},
                      UtsGrid{8, 2}, UtsGrid{8, 16}, UtsGrid{16, 8},
                      UtsGrid{32, 16}, UtsGrid{64, 4}));

}  // namespace
