// Heap allocations on the small-message and data-driven-task paths and in
// the Smith–Waterman tile kernel, counted by replacing the global operator
// new (hence this suite's own binary).
// Counts are taken in steady state, after a warm-up has grown every pool to
// its high-water mark — comm-task slots with their requests, smpi request
// states, the endpoint queues, the workers' task slabs and deques — so they
// are the per-message or per-task cost.
// The fault plane is disarmed and the thread transport forced: an armed
// plane or the socket wire allocate for reasons of their own. The suite is
// built only without hc-check, whose hooks allocate on every event.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sw/sw.h"
#include "core/api.h"
#include "core/ddf.h"
#include "dddf/space.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "net/boot.h"
#include "smpi/world.h"
#include "support/spin.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
// Allocations of exactly g_watch_bytes bytes (0 = none watched).
std::atomic<std::size_t> g_watch_bytes{0};
std::atomic<std::uint64_t> g_watched{0};
}  // namespace

// new and delete alike are out of line, so the compiler does not pair an
// inlined malloc() with delete or free() with new (GCC 12 at -O3 warns
// -Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == g_watch_bytes.load(std::memory_order_relaxed)) {
    g_watched.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kWindow = 64;
constexpr int kWarmWindows = 40;
constexpr int kCountedWindows = 400;  // 25,600 stream messages
constexpr int kStreamTag = 1, kAckTag = 2;
constexpr int kValues = 1000;       // DDDF values served
constexpr std::size_t kBytes = 777;  // bytes per served value

enum class Completion { kWait, kAwait };

// One window of the message-rate stream: rank 0 isends kWindow 8-byte
// messages inside a finish and waits for an ack; rank 1 completes each
// receive through Context::wait or through a DDT awaiting its request.
void window(hcmpi::Context& ctx, Completion how) {
  std::uint64_t buf[kWindow] = {};
  std::uint8_t ack = 0;
  if (ctx.rank() == 0) {
    hc::finish([&] {
      for (int i = 0; i < kWindow; ++i) {
        ctx.isend(&buf[i], sizeof buf[i], 1, kStreamTag);
      }
    });
    ctx.recv(&ack, sizeof ack, 1, kAckTag);
    return;
  }
  if (how == Completion::kWait) {
    hcmpi::RequestHandle rs[kWindow];
    for (int i = 0; i < kWindow; ++i) {
      rs[i] = ctx.irecv(&buf[i], sizeof buf[i], 0, kStreamTag);
    }
    for (auto& r : rs) ctx.wait(r);
  } else {
    std::atomic<int> got{0};
    hc::finish([&] {
      for (int i = 0; i < kWindow; ++i) {
        hcmpi::RequestHandle r =
            ctx.irecv(&buf[i], sizeof buf[i], 0, kStreamTag);
        // The closure captures one reference, so std::function keeps it
        // inline; the braced list needs no vector, and the await frame
        // lives in the task's pool slot.
        hc::async_await({r.get()}, [&got] { got.fetch_add(1); });
      }
    });
    EXPECT_EQ(got.load(), kWindow);
  }
  ctx.send(&ack, sizeof ack, 0, kAckTag);
}

// Allocations per message (stream messages and acks) over the counted
// windows, both ranks and every thread of the process together.
double allocations_per_message(Completion how) {
  fault::reset();
  net::set_mode(net::Mode::kThread);
  std::uint64_t start = 0, end = 0;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      for (int w = 0; w < kWarmWindows; ++w) window(ctx, how);
      ctx.barrier();
      if (ctx.rank() == 0) start = g_news.load();
      for (int w = 0; w < kCountedWindows; ++w) window(ctx, how);
      // The closing barrier's own script counts too: a handful, once.
      ctx.barrier();
      if (ctx.rank() == 0) end = g_news.load();
    });
  });
  const double msgs = double(kCountedWindows) * (kWindow + 1);
  const double per = double(end - start) / msgs;
  std::printf("%llu allocations over %.0f messages: %.3f per message\n",
              (unsigned long long)(end - start), msgs, per);
  return per;
}

TEST(Alloc, SmallMessageCompletedByWait) {
  EXPECT_LE(allocations_per_message(Completion::kWait), 0.5);
}

TEST(Alloc, SmallMessageCompletedByAwaitingTask) {
  EXPECT_LE(allocations_per_message(Completion::kAwait), 0.5);
}

TEST(Alloc, ThreeInputDdtPutByAnotherThreadAllocatesNothing) {
  // The sw_dddf tile shape: each DDT awaits three DDFs (top, left, corner),
  // and a producer thread puts them, scheduling the released DDTs onto its
  // own deque as the communication worker does for arriving DDDF values.
  // Even DDTs get their inputs in order, so the frame parks on each in
  // turn; odd ones in reverse, so the last put finds the others satisfied.
  // A batch stays under a deque's initial capacity (64), so no deque grows
  // during the count.
  constexpr int kBatch = 48;
  constexpr int kWarmBatches = 40, kCountedBatches = 500;
  constexpr int kBatches = kWarmBatches + kCountedBatches;
  // Every input is made before anything is counted.
  std::vector<hc::Ddf<int>> in(std::size_t(kBatches) * kBatch * 3);
  hc::Runtime rt({.num_workers = 2});
  std::atomic<int> spawned{-1};  // the last batch whose DDTs are registered
  std::thread producer([&] {
    rt.register_producer();
    for (int b = 0; b < kBatches; ++b) {
      while (spawned.load(std::memory_order_acquire) < b) support::cpu_relax();
      for (int i = b * kBatch; i < (b + 1) * kBatch; ++i) {
        for (int j = 0; j < 3; ++j) {
          const int k = i % 2 == 0 ? j : 2 - j;
          in[std::size_t(i) * 3 + std::size_t(k)].put(k);
        }
      }
    }
  });
  std::uint64_t start = 0, end = 0;
  std::atomic<int> sum{0};
  rt.launch([&] {
    // A worker thread registers with the profiler when it starts, which
    // allocates, and on a loaded host one may start after the warm-up: count
    // only once every worker has run a task.
    auto all_started = [&rt] {
      for (int w = 0; w < rt.num_workers(); ++w) {
        if (rt.worker(w).tasks_executed() == 0) return false;
      }
      return true;
    };
    while (!all_started()) {
      hc::finish([] {
        for (int k = 0; k < 8; ++k) {
          hc::async([] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          });
        }
      });
    }
    for (int b = 0; b < kBatches; ++b) {
      if (b == kWarmBatches) start = g_news.load();
      hc::finish([&] {
        for (int i = b * kBatch; i < (b + 1) * kBatch; ++i) {
          hc::Ddf<int>* d = &in[std::size_t(i) * 3];
          hc::async_await({&d[0], &d[1], &d[2]}, [d, &sum] {
            sum.fetch_add(d[0].get() + d[1].get() + d[2].get(),
                          std::memory_order_relaxed);
          });
        }
        spawned.store(b, std::memory_order_release);
      });
    }
    end = g_news.load();
  });
  producer.join();
  EXPECT_EQ(sum.load(), kBatches * kBatch * 3);
  const double per = double(end - start) / (double(kCountedBatches) * kBatch);
  std::printf("%llu allocations over %d DDTs: %.3f per DDT\n",
              (unsigned long long)(end - start), kCountedBatches * kBatch, per);
  EXPECT_EQ(end - start, 0u);
}

TEST(Alloc, ServedDddfValueIsCopiedOnceIntoTheBatch) {
  // Rank 0 puts 1000 values of 777 bytes and serves them to rank 1. Blocks
  // of exactly 777 bytes: the producer's 1000 puts and the consumer's 1000
  // received values. Serving adds no copy of its own (the DATA batch and
  // its message are sized by the batch, not by one value).
  fault::reset();
  net::set_mode(net::Mode::kThread);
  g_watched.store(0);
  g_watch_bytes.store(kBytes);
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    dddf::Space space(ctx, {.home = [](dddf::Guid) { return 0; },
                            .size = [](dddf::Guid) { return kBytes; }});
    ctx.run([&] {
      std::atomic<int> seen{0};
      hc::finish([&] {
        for (int i = 0; i < kValues; ++i) {
          const dddf::Guid g = dddf::Guid(i);
          if (ctx.rank() == 0) {
            space.put(g, dddf::Bytes(kBytes, std::uint8_t(i)));
          } else {
            space.async_await({g}, [&space, &seen, g] {
              const dddf::Bytes& v = space.get(g);
              if (v.size() == kBytes && v[0] == std::uint8_t(g)) ++seen;
            });
          }
        }
      });
      space.finalize();
      if (ctx.rank() == 1) {
        EXPECT_EQ(seen.load(), kValues);
      }
    });
  });
  g_watch_bytes.store(0);
  EXPECT_EQ(g_watched.load(), 2u * kValues);
}

TEST(Alloc, SpaceEntryIsOneBlockPerGuid) {
  // A guid's first handle() builds its one entry inside the guid table's
  // node; only the table's bucket array, which grows geometrically, adds a
  // few allocations over the whole count.
  constexpr int kWarm = 1000;
  constexpr int kGuids = 10000;
  fault::reset();
  net::set_mode(net::Mode::kThread);
  std::uint64_t start = 0, end = 0;
  smpi::World::run(1, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    dddf::Space space(ctx, {.home = [](dddf::Guid) { return 0; },
                            .size = [](dddf::Guid) { return sizeof(int); }});
    for (int i = 0; i < kWarm; ++i) space.handle(dddf::Guid(i));
    start = g_news.load();
    for (int i = kWarm; i < kWarm + kGuids; ++i) space.handle(dddf::Guid(i));
    end = g_news.load();
  });
  const double per = double(end - start) / kGuids;
  std::printf("%llu allocations over %d guids: %.4f per guid\n",
              (unsigned long long)(end - start), kGuids, per);
  EXPECT_LE(per, 1.01);
}

TEST(Alloc, SwTileAllocatesOnlyItsOutputs) {
  // The sw_dddf tile shape. The kernel's diagonals and widened sequences
  // live in per-thread scratch that the first call grows, so a steady-state
  // call allocates exactly the bottom row and right column it returns.
  constexpr std::size_t kSide = 64;
  constexpr int kCalls = 1000;
  const sw::Params p;
  const std::string a = sw::random_seq(kSide, 1), b = sw::random_seq(kSide, 2);
  const std::vector<int> top(kSide, 3), left(kSide, 5);
  long sink = sw::compute_tile(p, a, b, top, left, 0).best;
  const std::uint64_t start = g_news.load();
  for (int i = 0; i < kCalls; ++i) {
    sink += sw::compute_tile(p, a, b, top, left, i).best;
  }
  const std::uint64_t end = g_news.load();
  std::printf("%llu allocations over %d tiles: %.3f per tile\n",
              (unsigned long long)(end - start), kCalls,
              double(end - start) / kCalls);
  EXPECT_GT(sink, 0);
  EXPECT_EQ(end - start, 2u * kCalls);
}

}  // namespace
