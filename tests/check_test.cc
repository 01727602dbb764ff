// Negative-path and hc-check coverage (ISSUE 2): misuse diagnostics that
// must fire in every build (phaser mode enforcement, DDF single-assignment,
// comm-task lattice), and — under -DHCMPI_CHECK=ON — the vector-clock
// determinacy-race detector with its two-task witness, finish-scope escape,
// and comm-worker blocking-call detection.
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "core/api.h"
#include "core/ddf.h"
#include "core/phaser.h"
#include "hcmpi/comm_task.h"
#include "hcmpi/context.h"
#include "smpi/world.h"

namespace {

// --- diagnostics that fire in every build ----------------------------------

TEST(Negative, DdfDoublePutThrowsSingleAssignmentViolation) {
  hc::Ddf<int> d;
  d.put(1);
  EXPECT_THROW(d.put(2), hc::SingleAssignmentViolation);
}

TEST(Negative, DdfGetBeforePutThrowsPrematureGet) {
  hc::Ddf<int> d;
  EXPECT_THROW(d.get(), hc::PrematureGet);
}

TEST(Negative, WaitOnlyRegistrationCannotSignal) {
  hc::Phaser ph;
  auto* sig = ph.register_task(hc::PhaserMode::kSignalOnly);
  auto* reg = ph.register_task(hc::PhaserMode::kWaitOnly);
  EXPECT_THROW(ph.signal(reg), hc::check::PhaserModeViolation);
  ph.drop(reg);
  ph.drop(sig);
}

TEST(Negative, SignalOnlyRegistrationCannotWait) {
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalOnly);
  EXPECT_THROW(ph.wait(reg), hc::check::PhaserModeViolation);
  ph.drop(reg);
}

TEST(Negative, WaitBeforeSignalOnSignalWaitIsSelfDeadlock) {
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalWait);
  EXPECT_THROW(ph.wait(reg), hc::check::PhaserModeViolation);
  ph.drop(reg);
}

TEST(Negative, DoubleSignalWithoutWaitRejected) {
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalWait);
  ph.signal(reg);
  EXPECT_THROW(ph.signal(reg), hc::check::PhaserModeViolation);
  ph.wait(reg);  // sole signaller: its own signal completes the phase
  ph.drop(reg);
}

TEST(Negative, UnanchoredRegistrationAfterSignallingRejected) {
  // Once signalling starts, register_task(mode, nullptr) has no anchor for
  // its join phase and races with in-flight cascades; only a registered
  // signaller that has not signalled its current phase may add tasks.
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalWait);
  ph.next(reg);
  EXPECT_THROW(ph.register_task(hc::PhaserMode::kSignalWait),
               hc::check::PhaserRegistrationRace);
  // Anchored by the registrar's own registration it is legal (X10 rule).
  auto* child = ph.register_task(hc::PhaserMode::kSignalWait, reg);
  ph.drop(child);
  ph.drop(reg);
}

TEST(Negative, PhaserOpsAfterDropThrow) {
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalWait);
  ph.drop(reg);
  EXPECT_THROW(ph.next(reg), hc::check::PhaserUseAfterDrop);
  EXPECT_THROW(ph.signal(reg), hc::check::PhaserUseAfterDrop);
  EXPECT_THROW(ph.drop(reg), hc::check::PhaserUseAfterDrop);
}

TEST(Negative, SplitPhaseSignalWaitStillSynchronizes) {
  // A fuzzy-barrier split: one participant signals early, computes, then
  // waits; the phase must not advance until the slow signaller arrives.
  hc::Phaser ph;
  auto* a = ph.register_task(hc::PhaserMode::kSignalWait);
  auto* b = ph.register_task(hc::PhaserMode::kSignalWait);
  std::atomic<bool> b_signalled{false};
  std::thread tb([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    b_signalled.store(true);
    ph.next(b);
  });
  ph.signal(a);
  EXPECT_EQ(ph.phase(), 0u);  // split signal alone does not end the phase
  ph.wait(a);
  EXPECT_TRUE(b_signalled.load());
  EXPECT_GE(ph.phase(), 1u);
  tb.join();
  ph.drop(a);
  ph.drop(b);
}

TEST(Negative, CommTaskLatticeEdges) {
  using hcmpi::CommTaskState;
  using hcmpi::valid_transition;
  // The Fig. 10/11 chain...
  EXPECT_TRUE(valid_transition(CommTaskState::kAllocated,
                               CommTaskState::kPrescribed));
  EXPECT_TRUE(
      valid_transition(CommTaskState::kPrescribed, CommTaskState::kActive));
  EXPECT_TRUE(
      valid_transition(CommTaskState::kActive, CommTaskState::kCompleted));
  EXPECT_TRUE(
      valid_transition(CommTaskState::kCompleted, CommTaskState::kAvailable));
  EXPECT_TRUE(
      valid_transition(CommTaskState::kAvailable, CommTaskState::kAllocated));
  // ...the command-task shortcut...
  EXPECT_TRUE(valid_transition(CommTaskState::kPrescribed,
                               CommTaskState::kAvailable));
  // ...and nothing else.
  EXPECT_FALSE(
      valid_transition(CommTaskState::kAllocated, CommTaskState::kActive));
  EXPECT_FALSE(
      valid_transition(CommTaskState::kActive, CommTaskState::kPrescribed));
  EXPECT_FALSE(
      valid_transition(CommTaskState::kAllocated, CommTaskState::kAvailable));
  EXPECT_FALSE(
      valid_transition(CommTaskState::kCompleted, CommTaskState::kActive));
  EXPECT_FALSE(
      valid_transition(CommTaskState::kAvailable, CommTaskState::kActive));
}

#if HCMPI_CHECK

void run_hcmpi(int ranks, int workers,
               const std::function<void(hcmpi::Context&)>& body) {
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = workers});
    ctx.run([&] { body(ctx); });
  });
}

// --- checked-mode fixture ---------------------------------------------------

class Check : public ::testing::Test {
 protected:
  void SetUp() override { hc::check::reset(); }
  void TearDown() override { hc::check::reset(); }
};

TEST_F(Check, TransitionOutsideLatticeThrows) {
  hcmpi::CommTask t;  // starts kAllocated
  EXPECT_THROW(hcmpi::transition(t, hcmpi::CommTaskState::kActive),
               hc::check::CommTaskStateViolation);
}

TEST_F(Check, RacyTwoTaskKernelIsFlaggedWithWitness) {
  // The seeded racy kernel: two siblings of one finish write the same cell
  // with no DDF/phaser edge between them. The checker must flag it and name
  // both tasks.
  hc::Runtime rt({.num_workers = 2});
  int x = 0;
  bool flagged = false;
  hc::check::RaceWitness w;
  rt.launch([&] {
    try {
      hc::finish([&] {
        hc::async([&] {
          hc::check::annotate_write(&x, sizeof x);
          x = 1;
        });
        hc::async([&] {
          hc::check::annotate_write(&x, sizeof x);
          x = 2;
        });
      });
    } catch (const hc::check::DeterminacyRace& r) {
      flagged = true;
      w = r.witness();
    }
  });
  ASSERT_TRUE(flagged);
  EXPECT_EQ(w.addr, reinterpret_cast<std::uintptr_t>(&x));
  EXPECT_EQ(w.size, sizeof x);
  // A precise two-task witness: two distinct strand ids, both writers.
  EXPECT_NE(w.first_task, 0u);
  EXPECT_NE(w.second_task, 0u);
  EXPECT_NE(w.first_task, w.second_task);
  EXPECT_TRUE(w.first_write);
  EXPECT_TRUE(w.second_write);
  EXPECT_GE(hc::check::races_detected(), 1u);
}

TEST_F(Check, ReadWriteRaceIsFlagged) {
  hc::Runtime rt({.num_workers = 2});
  int x = 0;
  bool flagged = false;
  rt.launch([&] {
    try {
      hc::finish([&] {
        hc::async([&] { hc::check::annotate_read(&x, sizeof x); });
        hc::async([&] {
          hc::check::annotate_write(&x, sizeof x);
          x = 2;
        });
      });
    } catch (const hc::check::DeterminacyRace&) {
      flagged = true;
    }
  });
  EXPECT_TRUE(flagged);
}

TEST_F(Check, CleanForkJoinKernelIsNotFlagged) {
  // The clean twin of the racy kernel: the same accesses ordered by spawn
  // and finish-join edges. Zero findings required.
  hc::Runtime rt({.num_workers = 2});
  int x = 0;
  rt.launch([&] {
    hc::check::annotate_write(&x, sizeof x);  // pre-spawn init
    x = 1;
    hc::finish([&] {
      hc::async([&] {
        hc::check::annotate_write(&x, sizeof x);  // ordered by spawn edge
        x = 2;
      });
    });
    hc::check::annotate_read(&x, sizeof x);  // ordered by finish join
    EXPECT_EQ(x, 2);
    hc::finish([&] {
      hc::async([&] {
        hc::check::annotate_write(&x, sizeof x);  // ordered by prior join
        x = 3;
      });
    });
  });
  EXPECT_EQ(hc::check::races_detected(), 0u);
}

TEST_F(Check, DdfPutGetEdgeOrdersProducerAndConsumer) {
  hc::Runtime rt({.num_workers = 2});
  int payload = 0;
  rt.launch([&] {
    auto d = hc::ddf_create<int>();
    hc::finish([&] {
      hc::async([&] {
        hc::check::annotate_write(&payload, sizeof payload);
        payload = 99;
        d->put(1);
      });
      hc::async_await({d.get()}, [&] {
        // Released by the put: the producer's write is ordered before us.
        hc::check::annotate_read(&payload, sizeof payload);
        EXPECT_EQ(payload, 99);
      });
    });
  });
  EXPECT_EQ(hc::check::races_detected(), 0u);
}

TEST_F(Check, SiblingsWithoutDdfEdgeStillRace) {
  // Control for the previous test: same shape minus the await dependence.
  hc::Runtime rt({.num_workers = 2});
  int payload = 0;
  bool flagged = false;
  rt.launch([&] {
    try {
      hc::finish([&] {
        hc::async([&] {
          hc::check::annotate_write(&payload, sizeof payload);
          payload = 99;
        });
        hc::async([&] { hc::check::annotate_read(&payload, sizeof payload); });
      });
    } catch (const hc::check::DeterminacyRace&) {
      flagged = true;
    }
  });
  EXPECT_TRUE(flagged);
}

TEST_F(Check, PhaserSignalWaitEdgeOrdersPhases) {
  // Producer signals after writing; consumer reads after waiting the phase:
  // the signal->wait edge orders the accesses.
  hc::Runtime rt({.num_workers = 2});
  int cell = 0;
  rt.launch([&] {
    hc::Phaser ph;
    auto* prod = ph.register_task(hc::PhaserMode::kSignalOnly);
    auto* cons = ph.register_task(hc::PhaserMode::kWaitOnly);
    hc::finish([&] {
      hc::async([&] {
        hc::check::annotate_write(&cell, sizeof cell);
        cell = 7;
        ph.next(prod);  // signal phase 0
      });
      hc::async([&] {
        ph.next(cons);  // wait for phase 0
        hc::check::annotate_read(&cell, sizeof cell);
        EXPECT_EQ(cell, 7);
      });
    });
    ph.drop(prod);
    ph.drop(cons);
  });
  EXPECT_EQ(hc::check::races_detected(), 0u);
}

TEST_F(Check, FinishEscapeIsRejected) {
  hc::Runtime rt({.num_workers = 1});
  hc::FinishScope scope(rt, nullptr);
  scope.wait_and_rethrow();  // drains (owner token only) and closes
  EXPECT_THROW(scope.inc(), hc::check::FinishEscape);
}

TEST_F(Check, BlockingCallOnCommWorkerIsRejected) {
  // A kExec closure runs on the communication worker; a blocking collective
  // from there can never be serviced. The checker turns the latent deadlock
  // into an immediate diagnostic.
  run_hcmpi(1, 1, [](hcmpi::Context& ctx) {
    std::atomic<bool> flagged{false};
    hc::finish([&] {
      ctx.post_exec_async([&](smpi::Comm&) {
        try {
          ctx.barrier();
        } catch (const hc::check::CommWorkerBlockingCall&) {
          flagged.store(true);
        }
      });
    });
    EXPECT_TRUE(flagged.load());
  });
}

TEST_F(Check, BlockUntilOnCommWorkerIsRejected) {
  // A comm-task closure that blocks on a request waits for the only thread
  // that can complete it: every wait goes through hc::wait_until, whose
  // check rejects it at once.
  run_hcmpi(1, 1, [](hcmpi::Context& ctx) {
    std::atomic<bool> flagged{false};
    hc::finish([&] {
      ctx.post_exec_async([&](smpi::Comm&) {
        try {
          hcmpi::Context::block_until(ctx.submit_nb_barrier());
        } catch (const hc::check::CommWorkerBlockingCall&) {
          flagged.store(true);
        }
      });
    });
    EXPECT_TRUE(flagged.load());
  });
}

TEST_F(Check, CommRequestEdgeOrdersRecvAndConsumer) {
  // submit -> comm-worker -> completion-put -> waiter: the whole chain is
  // one happens-before path, so reading the recv buffer after wait() is
  // clean.
  run_hcmpi(2, 2, [](hcmpi::Context& ctx) {
    static int bufs[2];
    int& buf = bufs[ctx.rank()];
    if (ctx.rank() == 0) {
      int v = 5;
      ctx.send(&v, sizeof v, 1, 9);
    } else {
      auto r = ctx.irecv(&buf, sizeof buf, 0, 9);
      ctx.wait(r);
      hc::check::annotate_read(&buf, sizeof buf);
      EXPECT_EQ(buf, 5);
    }
  });
  EXPECT_EQ(hc::check::races_detected(), 0u);
}

TEST_F(Check, RaceWitnessMessageNamesBothTasks) {
  hc::check::RaceWitness w;
  w.addr = 64;
  w.size = 4;
  w.first_task = 3;
  w.second_task = 9;
  w.first_write = true;
  w.second_write = false;
  hc::check::DeterminacyRace r(w);
  std::string msg = r.what();
  EXPECT_NE(msg.find("task #3"), std::string::npos);
  EXPECT_NE(msg.find("task #9"), std::string::npos);
  EXPECT_NE(msg.find("happens-before"), std::string::npos);
}

TEST_F(Check, EnabledGateSuppressesDetection) {
  hc::check::set_enabled(false);
  hc::Runtime rt({.num_workers = 2});
  int x = 0;
  rt.launch([&] {
    hc::finish([&] {
      hc::async([&] { hc::check::annotate_write(&x, sizeof x); });
      hc::async([&] { hc::check::annotate_write(&x, sizeof x); });
    });
  });
  hc::check::set_enabled(true);
  EXPECT_EQ(hc::check::races_detected(), 0u);
}

#endif  // HCMPI_CHECK

}  // namespace
