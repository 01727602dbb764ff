#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "dddf/space.h"
#include "hcmpi/context.h"
#include "smpi/world.h"

namespace {

dddf::SpaceConfig cyclic(int ranks) {
  return {
      .home = [ranks](dddf::Guid g) { return int(g % dddf::Guid(ranks)); },
      .size = [](dddf::Guid) { return std::size_t(64); },
  };
}

void run_space(int ranks, int workers,
               const std::function<void(hcmpi::Context&, dddf::Space&)>& body) {
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = workers});
    dddf::Space space(ctx, cyclic(ranks));
    ctx.run([&] {
      body(ctx, space);
      space.finalize();
    });
  });
}

// Parks the rank's communication worker in a comm task until release(), so
// that everything queued meanwhile meets the poller in one turn.
class HeldCommWorker {
 public:
  explicit HeldCommWorker(hcmpi::Context& ctx) {
    done_ = ctx.post_exec_async([this](smpi::Comm&) {
      entered_.store(true);
      while (!released_.load()) std::this_thread::yield();
    });
    while (!entered_.load()) std::this_thread::yield();
  }
  ~HeldCommWorker() { release(); }

  void release() {
    released_.store(true);
    hcmpi::Context::block_until(done_);
  }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
  hcmpi::RequestHandle done_;
};

TEST(Dddf, LocalPutGet) {
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    dddf::Guid g = dddf::Guid(ctx.rank());  // homed here
    EXPECT_TRUE(space.is_home(g));
    space.put_value<int>(g, ctx.rank() * 10);
    EXPECT_EQ(space.get_value<int>(g), ctx.rank() * 10);
  });
}

TEST(Dddf, PutOnNonHomeRankThrows) {
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    dddf::Guid foreign = dddf::Guid((ctx.rank() + 1) % 2);
    EXPECT_THROW(space.put_value<int>(foreign, 1), std::logic_error);
    // Everyone still has to produce their own value so finalize is clean.
    space.put_value<int>(dddf::Guid(ctx.rank()), 1);
  });
}

TEST(Dddf, HomeOutsideTheWorldThrows) {
  // Guid 100 is homed on rank -1 and guid 101 on rank 2 of a 2-rank world:
  // an await and a put of either throw before they touch the space, which
  // then still exchanges values and finalizes.
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(
        ctx, {.home = [](dddf::Guid g) {
                return g == 100 ? -1 : g == 101 ? 2 : int(g % 2);
              },
              .size = [](dddf::Guid) { return std::size_t(64); }});
    ctx.run([&] {
      try {
        space.async_await({100}, [] {});
        ADD_FAILURE() << "await of guid 100 did not throw";
      } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("home(guid 100) = -1"),
                  std::string::npos) << e.what();
      }
      try {
        space.put_value<int>(101, 1);
        ADD_FAILURE() << "put of guid 101 did not throw";
      } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("home(guid 101) = 2"),
                  std::string::npos) << e.what();
      }
      EXPECT_THROW(space.async_await({101}, [] {}), std::out_of_range);
      EXPECT_THROW(space.put_value<int>(100, 1), std::out_of_range);
      EXPECT_EQ(space.remote_gets_issued(), 0u);

      dddf::Guid mine = dddf::Guid(ctx.rank());
      dddf::Guid theirs = dddf::Guid(1 - ctx.rank());
      std::atomic<int> got{-1};
      hc::finish([&] {
        space.async_await({theirs}, [&] {
          got.store(space.get_value<int>(theirs));
        });
        space.put_value<int>(mine, 100 + ctx.rank());
      });
      EXPECT_EQ(got.load(), 100 + (1 - ctx.rank()));
      space.finalize();
    });
  });
}

TEST(Dddf, GetBeforeArrivalThrows) {
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    dddf::Guid mine = dddf::Guid(ctx.rank());
    EXPECT_THROW(space.get(mine), hc::PrematureGet);
    space.put_value<int>(mine, 0);
  });
}

TEST(Dddf, RemoteAwaitDeliversValue) {
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    // Rank 0 produces guid 0; rank 1 consumes it (and vice versa with 1).
    dddf::Guid mine = dddf::Guid(ctx.rank());
    dddf::Guid theirs = dddf::Guid(1 - ctx.rank());
    std::atomic<int> got{-1};
    hc::finish([&] {
      space.async_await({theirs}, [&] {
        got.store(space.get_value<int>(theirs));
      });
      space.put_value<int>(mine, 100 + ctx.rank());
    });
    EXPECT_EQ(got.load(), 100 + (1 - ctx.rank()));
  });
}

TEST(Dddf, ManyConsumersOneTransfer) {
  // "The data transfer from home to remote happens at most once" (§III-B).
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    ctx.run([&] {
      dddf::Guid g = 0;  // homed at rank 0
      if (ctx.rank() == 0) {
        space.put_value<int>(g, 7);
      } else {
        std::atomic<int> sum{0};
        hc::finish([&] {
          for (int i = 0; i < 20; ++i) {
            space.async_await({g}, [&] {
              sum.fetch_add(space.get_value<int>(g));
            });
          }
        });
        EXPECT_EQ(sum.load(), 140);
      }
      space.finalize();
      // Asserted on the owning rank so the check also holds under
      // hcmpi_launch, where rank 0 may live in another process.
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.data_messages_sent(), 1u);
      }
    });
  });
}

TEST(Dddf, AwaitPostedBeforeProducerRuns) {
  // Registration reaches home before the put: the pending list path.
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    dddf::Guid g0 = 0, g1 = 1;
    if (ctx.rank() == 1) {
      std::atomic<int> got{-1};
      hc::finish([&] {
        space.async_await({g0}, [&] { got.store(space.get_value<int>(g0)); });
      });
      EXPECT_EQ(got.load(), 5);
      space.put_value<int>(g1, 0);
    } else {
      // Give the remote registration time to land first.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      space.put_value<int>(g0, 5);
    }
  });
}

TEST(Dddf, EarlyAndLateRegistrationsOfOneGuid) {
  // One guid homed at rank 0, served on both paths. Rank 1 awaits at once,
  // and rank 0 puts only after its REGISTER arrived, so that registration
  // waits on the guid's entry until the put's flush serves it. Rank 2
  // awaits only after rank 0's go message, sent after the put, so its
  // REGISTER finds the value and is served on arrival. The ranks
  // coordinate through messages only, so it also runs under hcmpi_launch.
  constexpr int kGo = 9;
  constexpr dddf::Guid g = 0;
  smpi::World::run(3, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(3));
    ctx.run([&] {
      if (ctx.rank() == 0) {
        while (space.registrations_received() < 1) std::this_thread::yield();
        space.put_value<int>(g, 42);
        int go = 1;
        ctx.send(&go, sizeof go, 2, kGo);
      } else {
        if (ctx.rank() == 2) {
          int go = 0;
          ctx.recv(&go, sizeof go, 0, kGo);
        }
        std::atomic<int> got{-1};
        hc::finish([&] {
          space.async_await({g}, [&] { got.store(space.get_value<int>(g)); });
        });
        EXPECT_EQ(got.load(), 42);
      }
      space.finalize();
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.registrations_received(), 2u);
        EXPECT_EQ(space.data_messages_sent(), 2u);
      }
    });
  });
}

TEST(Dddf, ConcurrentHandlesAgree) {
  // Rank 0 homes every guid. Its workers resolve overlapping ranges of
  // guids [0, 4 * kStep) upwards through handle(), starting once rank 1's
  // first REGISTER reached its poller, while that poller inserts the guids
  // of rank 1's REGISTERs, [2 * kStep, 6 * kStep) from the top down. Rank
  // 1's workers await overlapping ranges of those. Rank 0's 6 * kStep guids
  // split index segments and double the directory several times while
  // other threads insert. Every thread must see one DdfBase* per guid, and
  // each rank must hold one entry per distinct guid. Asserted on the rank
  // that holds the table, so it also holds under hcmpi_launch.
  constexpr int kTasks = 3;
  constexpr dddf::Guid kStep = 2500;
  constexpr dddf::Guid kRemote = 2 * kStep;  // rank 1 awaits from here on
  const auto value = [](dddf::Guid g) { return g * 7 + 1; };
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = kTasks});
    dddf::Space space(
        ctx, {.home = [](dddf::Guid) { return 0; },
              .size = [](dddf::Guid) { return sizeof(dddf::Guid); }});
    // Task t covers guids [base + t * kStep, base + (t + 2) * kStep).
    const dddf::Guid base = ctx.rank() == 0 ? 0 : kRemote;
    std::vector<std::vector<hc::DdfBase*>> seen(kTasks);
    std::atomic<int> wrong{0};
    ctx.run([&] {
      ctx.barrier();
      hc::finish([&] {
        for (int t = 0; t < kTasks; ++t) {
          hc::async([&, t] {
            const dddf::Guid lo = base + dddf::Guid(t) * kStep;
            std::vector<hc::DdfBase*>& mine = seen[std::size_t(t)];
            mine.resize(2 * kStep);
            if (ctx.rank() == 0) {
              while (space.registrations_received() == 0) {
                std::this_thread::yield();
              }
              for (dddf::Guid i = 0; i < 2 * kStep; ++i) {
                mine[i] = space.handle(lo + i);
              }
              return;
            }
            for (dddf::Guid i = 2 * kStep; i-- > 0;) {
              const dddf::Guid g = lo + i;
              space.async_await({g}, [&, g] {
                if (space.get_value<dddf::Guid>(g) != value(g)) wrong++;
              });
              mine[i] = space.handle(g);
            }
          });
        }
      });
      if (ctx.rank() == 0) {
        hc::finish([&] {
          for (int t = 0; t < kTasks; ++t) {
            hc::async([&, t] {
              const dddf::Guid end = kRemote + 4 * kStep;
              for (dddf::Guid g = kRemote + dddf::Guid(t); g < end;
                   g += kTasks) {
                space.put_value<dddf::Guid>(g, value(g));
              }
            });
          }
        });
      }
      space.finalize();
      int disagree = 0;
      for (int t = 0; t < kTasks; ++t) {
        const dddf::Guid lo = base + dddf::Guid(t) * kStep;
        for (dddf::Guid i = 0; i < 2 * kStep; ++i) {
          if (seen[std::size_t(t)][i] != space.handle(lo + i)) ++disagree;
        }
      }
      EXPECT_EQ(disagree, 0);
      EXPECT_EQ(wrong.load(), 0);
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.entries(), std::size_t(6 * kStep));
        EXPECT_EQ(space.registrations_received(), 4 * kStep);
      } else {
        EXPECT_EQ(space.entries(), std::size_t(4 * kStep));
        EXPECT_EQ(space.remote_gets_issued(), 4 * kStep);
      }
    });
  });
}

TEST(Dddf, ChainAcrossRanks) {
  // guid k is produced by rank k%R from guid k-1's value: a distributed
  // dataflow pipeline with no explicit messages.
  const int ranks = 3, depth = 12;
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
      // Asserted at the home rank so it also holds under hcmpi_launch.
      if (space.is_home(last)) {
        EXPECT_EQ(space.get_value<int>(last), depth);
      }
    });
  });
}

TEST(Dddf, MultiInputAwait) {
  run_space(3, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    // guid r is produced by rank r; rank 0 additionally combines all three.
    space.put_value<int>(dddf::Guid(ctx.rank()), (ctx.rank() + 1) * 3);
    if (ctx.rank() == 0) {
      std::atomic<int> total{0};
      hc::finish([&] {
        space.async_await({0, 1, 2}, [&] {
          total.store(space.get_value<int>(0) + space.get_value<int>(1) +
                      space.get_value<int>(2));
        });
      });
      EXPECT_EQ(total.load(), 18);
    }
  });
}

TEST(Dddf, FanInWiderThanInline) {
  // Every rank awaits all five guids, more inputs than a task holds inline,
  // four of them remote. Asserted on every rank, so it also holds under
  // hcmpi_launch.
  constexpr int kRanks = 5;
  static_assert(std::size_t(kRanks) > hc::AndFrame::kInline);
  run_space(kRanks, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    space.put_value<int>(dddf::Guid(ctx.rank()), ctx.rank() + 1);
    std::vector<dddf::Guid> all;
    for (int r = 0; r < kRanks; ++r) all.push_back(dddf::Guid(r));
    std::atomic<int> total{0};
    hc::finish([&] {
      space.async_await(all, [&] {
        int s = 0;
        for (dddf::Guid g : all) s += space.get_value<int>(g);
        total.store(s);
      });
    });
    EXPECT_EQ(total.load(), 15);
    EXPECT_EQ(space.remote_gets_issued(), std::uint64_t(kRanks - 1));
  });
}

TEST(Dddf, LargePayloadRoundTrip) {
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    dddf::Guid mine = dddf::Guid(ctx.rank());
    dddf::Guid theirs = dddf::Guid(1 - ctx.rank());
    dddf::Bytes blob(100000);
    for (std::size_t i = 0; i < blob.size(); ++i) {
      blob[i] = std::uint8_t((i * 31 + std::size_t(ctx.rank())) & 0xFF);
    }
    std::atomic<bool> ok{false};
    hc::finish([&] {
      space.async_await({theirs}, [&] {
        const dddf::Bytes& got = space.get(theirs);
        bool match = got.size() == 100000;
        for (std::size_t i = 0; match && i < got.size(); i += 997) {
          match = got[i] ==
                  std::uint8_t((i * 31 + std::size_t(1 - ctx.rank())) & 0xFF);
        }
        ok.store(match);
      });
      space.put(mine, blob);
    });
    EXPECT_TRUE(ok.load());
  });
}

TEST(Dddf, RegistrationCountersExposed) {
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    ctx.run([&] {
      if (ctx.rank() == 0) {
        space.put_value<int>(0, 1);
      } else {
        hc::finish([&] { space.async_await({0}, [] {}); });
      }
      space.finalize();
      // Asserted at the home rank so it also holds under hcmpi_launch.
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.registrations_received(), 1u);
      }
    });
  });
}

TEST(Dddf, RegisterBeforeHomeSpaceExists) {
  // Rank 0 awaits guid 1 while rank 1 has no Space yet; rank 1 builds it
  // about 50 ms later. The REGISTER waits in smpi until rank 1's
  // constructor arms the poller, which it does last, so it is served once,
  // by a whole Space.
  constexpr int kReady = 7;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    std::unique_ptr<dddf::Space> space;
    if (ctx.rank() == 0) space = std::make_unique<dddf::Space>(ctx, cyclic(2));
    ctx.run([&] {
      if (ctx.rank() == 0) {
        std::atomic<int> got{-1};
        hc::finish([&] {
          space->async_await({1}, [&] { got.store(space->get_value<int>(1)); });
          int ready = 1;
          ctx.send(&ready, sizeof ready, 1, kReady);
        });
        EXPECT_EQ(got.load(), 42);
      } else {
        int ready = 0;
        ctx.recv(&ready, sizeof ready, 0, kReady);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        space = std::make_unique<dddf::Space>(ctx, cyclic(2));
        space->put_value<int>(1, 42);
      }
      space->finalize();
      if (ctx.rank() == 1) {
        EXPECT_EQ(space->registrations_received(), 1u);
      }
    });
  });
}

TEST(Dddf, RegistrationsOfOneTurnShareOneMessage) {
  // Rank 1 issues 256 remote awaits while its communication worker is held,
  // so its poller finds all of them in one turn and must send them to the
  // home rank as one REGISTER message.
  constexpr int kGuids = 256;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    ctx.run([&] {
      // Guid 2k is homed at rank 0.
      if (ctx.rank() == 0) {
        for (int k = 0; k < kGuids; ++k) {
          space.put_value<int>(dddf::Guid(2 * k), k);
        }
      } else {
        std::atomic<long> sum{0};
        HeldCommWorker held(ctx);
        hc::finish([&] {
          for (int k = 0; k < kGuids; ++k) {
            dddf::Guid g = dddf::Guid(2 * k);
            space.async_await({g}, [&space, &sum, g] {
              sum.fetch_add(space.get_value<int>(g));
            });
          }
          held.release();
        });
        EXPECT_EQ(sum.load(), long(kGuids) * (kGuids - 1) / 2);
      }
      space.finalize();
      // Asserted at the home rank so it also holds under hcmpi_launch.
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.registrations_received(), std::uint64_t(kGuids));
        EXPECT_EQ(space.register_batches_received(), 1u);
      }
    });
  });
}

TEST(Dddf, ExchangeSubmitsNoCommTask) {
  // REGISTER, the put flush and DATA all run in the communication worker's
  // poller, so a put/await exchange submits no comm task on either rank.
  run_space(2, 2, [](hcmpi::Context& ctx, dddf::Space& space) {
    const auto& submitted = ctx.comm_counters().tasks_submitted;
    const std::uint64_t before = submitted.load();
    dddf::Guid mine = dddf::Guid(ctx.rank());
    dddf::Guid theirs = dddf::Guid(1 - ctx.rank());
    std::atomic<int> got{-1};
    hc::finish([&] {
      space.async_await({theirs}, [&] {
        got.store(space.get_value<int>(theirs));
      });
      space.put_value<int>(mine, 100 + ctx.rank());
    });
    EXPECT_EQ(got.load(), 100 + (1 - ctx.rank()));
    EXPECT_EQ(submitted.load(), before);  // measured before finalize
  });
}

std::uint8_t pattern(std::size_t value, std::size_t i) {
  return std::uint8_t((i * 31 + value * 7 + 1) & 0xFF);
}

// Rank 0 produces one value of each size in `sizes` (value k is guid 2k,
// homed at rank 0) and rank 1 awaits them all. Rank 0 puts only after every
// registration has arrived, with its communication worker held, so all the
// put flushes run in one poller step and every DATA record for rank 1 is
// batched in that step. Checks that each value arrives once with its bytes
// intact, behind one REGISTER and one DATA record, and that the records
// left rank 0 in `data_messages` messages.
void exchange_in_one_step(const std::vector<std::size_t>& sizes,
                          std::uint64_t data_messages) {
  const std::size_t n = sizes.size();
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    ctx.run([&] {
      if (ctx.rank() == 0) {
        while (space.registrations_received() < n) std::this_thread::yield();
        HeldCommWorker held(ctx);
        for (std::size_t k = 0; k < n; ++k) {
          dddf::Bytes value(sizes[k]);
          for (std::size_t i = 0; i < value.size(); ++i) {
            value[i] = pattern(k, i);
          }
          space.put(dddf::Guid(2 * k), std::move(value));
        }
      } else {
        std::atomic<std::size_t> intact{0};
        hc::finish([&] {
          for (std::size_t k = 0; k < n; ++k) {
            dddf::Guid g = dddf::Guid(2 * k);
            space.async_await({g}, [&, g, k] {
              const dddf::Bytes& got = space.get(g);
              bool ok = got.size() == sizes[k];
              for (std::size_t i = 0; ok && i < got.size(); ++i) {
                ok = got[i] == pattern(k, i);
              }
              if (ok) intact.fetch_add(1);
            });
          }
        });
        EXPECT_EQ(intact.load(), n);
      }
      space.finalize();
      // Asserted at the home rank so it also holds under hcmpi_launch.
      if (ctx.rank() == 0) {
        EXPECT_EQ(space.registrations_received(), n);
        EXPECT_EQ(space.data_messages_sent(), n);
        EXPECT_EQ(space.data_batches_sent(), data_messages);
      }
    });
  });
}

TEST(Dddf, BatchCarriesZeroLengthPayload) {
  exchange_in_one_step({0, 8, 0}, 1);
}

TEST(Dddf, BatchSplitsAtTheCap) {
  // 64 payloads of 4 KiB to one consumer exceed one message's cap: they
  // leave in as many full messages as the cap allows, plus a remainder.
  constexpr std::size_t kValues = 64, kBytes = 4096;
  constexpr std::size_t per_message =
      dddf::Space::kBatchCap / (dddf::Space::kRecordHeader + kBytes);
  static_assert(kValues * kBytes > dddf::Space::kBatchCap);
  exchange_in_one_step(std::vector<std::size_t>(kValues, kBytes),
                       (kValues + per_message - 1) / per_message);
}

TEST(Dddf, PayloadLargerThanTheCapTravelsAlone) {
  // Queued between two small records, the oversized one still gets a
  // message to itself: three records, three messages.
  exchange_in_one_step(
      {8, dddf::Space::kBatchCap + dddf::Space::kBatchCap / 2, 8},
      3);
}

}  // namespace
