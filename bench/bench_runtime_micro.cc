// Runtime primitive micro-benchmarks (google-benchmark): the real-thread
// costs of the building blocks the simulator's MachineConfig parameterizes.
// Not a paper figure — this is the calibration/ablation companion that keeps
// the model constants honest on whatever host runs the suite.
// tools/perfbench_compare.py gates BM_SpawnBurst/one and /half,
// BM_UtsWorkStealing and BM_SmpiPingPong/0, base against head.
//
// A case that runs runtime or rank threads times by wall clock
// (UseRealTime): by default Google Benchmark divides by the main thread's
// CPU time, which a main thread that waits for other threads hardly uses.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <vector>

#include "apps/sw/sw.h"
#include "apps/uts/uts.h"
#include "core/api.h"
#include "core/ddf.h"
#include "core/phaser.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/chase_lev_deque.h"
#include "support/mpsc_queue.h"
#include "support/observe.h"
#include "support/rng.h"

namespace {

void BM_TaskSpawn(benchmark::State& state) {
  hc::Runtime rt({.num_workers = 1});
  for (auto _ : state) {
    rt.launch([&] {
      hc::finish([&] {
        for (int i = 0; i < 256; ++i) {
          hc::async([] { benchmark::DoNotOptimize(0); });
        }
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TaskSpawn)->UseRealTime();

// One root task spawns 20,000 fine-grained children on 4 workers, so the
// other workers' work arrives by stealing: the path the steal-batch policy
// changes (DESIGN.md §8). The counters are per iteration.
void BM_SpawnBurst(benchmark::State& state, hc::StealPolicy policy) {
  constexpr int kTasks = 20000;
  hc::Runtime rt({.num_workers = 4, .steal = policy});
  for (auto _ : state) {
    rt.launch([&] {
      hc::finish([&] {
        for (int i = 0; i < kTasks; ++i) {
          hc::async([i] {
            volatile long acc = 0;
            for (int k = 0; k < 64; ++k) acc = acc + k * i;
          });
        }
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
  const auto per_iteration = [](std::uint64_t n) {
    return benchmark::Counter(double(n), benchmark::Counter::kAvgIterations);
  };
  state.counters["steals"] = per_iteration(rt.total_steals());
  state.counters["batches"] = per_iteration(rt.total_steal_batches());
  state.counters["failed_rounds"] =
      per_iteration(rt.total_failed_steal_rounds());
}
BENCHMARK_CAPTURE(BM_SpawnBurst, one, hc::StealPolicy::kOne)->UseRealTime();
BENCHMARK_CAPTURE(BM_SpawnBurst, half, hc::StealPolicy::kHalf)->UseRealTime();

// examples/uts_workstealing's search on its default tree (geometric, b0=4,
// gen_mx=8, seed 10: 241k nodes), chunk 32, on 4 workers.
void BM_UtsWorkStealing(benchmark::State& state) {
  uts::Params p;
  p.gen_mx = 8;
  p.root_seed = 10;
  const std::uint64_t expected = uts::count_sequential(p).nodes;
  hc::Runtime rt({.num_workers = 4});
  for (auto _ : state) {
    std::uint64_t nodes = 0;
    rt.launch([&] { nodes = uts::count_workstealing(p, 32); });
    if (nodes != expected) {
      state.SkipWithError("node count differs from the sequential count");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(expected));
}
BENCHMARK(BM_UtsWorkStealing)->UseRealTime();

void BM_DdfPutGet(benchmark::State& state) {
  for (auto _ : state) {
    hc::Ddf<int> d;
    d.put(42);
    benchmark::DoNotOptimize(d.get());
  }
}
BENCHMARK(BM_DdfPutGet);

void BM_DdtChain(benchmark::State& state) {
  hc::Runtime rt({.num_workers = 1});
  const int depth = int(state.range(0));
  for (auto _ : state) {
    rt.launch([&] {
      std::vector<hc::DdfPtr<int>> links;
      for (int i = 0; i <= depth; ++i) links.push_back(hc::ddf_create<int>());
      hc::finish([&] {
        for (int i = 0; i < depth; ++i) {
          hc::async_await([&, i] { links[i + 1]->put(links[i]->get() + 1); },
                          links[std::size_t(i)]);
        }
        links[0]->put(0);
      });
    });
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_DdtChain)->Arg(64)->Arg(512)->UseRealTime();

void BM_DequePushPop(benchmark::State& state) {
  support::ChaseLevDeque<int*> dq;
  int x = 0;
  for (auto _ : state) {
    dq.push(&x);
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_MpscPushPop(benchmark::State& state) {
  struct Item : support::MpscNode {
    int v = 1;
  };
  support::MpscQueue<Item> q;
  Item item;
  for (auto _ : state) {
    q.push(&item);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_MpscPushPop);

void BM_PhaserNext(benchmark::State& state) {
  hc::Phaser ph;
  auto* reg = ph.register_task(hc::PhaserMode::kSignalWait);
  for (auto _ : state) {
    ph.next(reg);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaserNext);

void BM_SmpiPingPong(benchmark::State& state) {
  const std::size_t bytes = std::size_t(state.range(0));
  for (auto _ : state) {
    smpi::World::run(2, [&](smpi::Comm& comm) {
      std::vector<char> buf(bytes ? bytes : 1);
      for (int i = 0; i < 64; ++i) {
        if (comm.rank() == 0) {
          comm.send(buf.data(), bytes, 1, 5);
          comm.recv(buf.data(), bytes, 1, 6);
        } else {
          comm.recv(buf.data(), bytes, 0, 5);
          comm.send(buf.data(), bytes, 0, 6);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 64 * 2);
}
BENCHMARK(BM_SmpiPingPong)->Arg(0)->Arg(1024)->UseRealTime();

// sw::compute_tile, the kernel inside every sw_dddf tile task, on perfbench's
// 64×64 tile and a ragged 100×37 one. Sequences and boundaries are drawn at
// run time, so nothing is folded into constants.
void BM_SwTile(benchmark::State& state) {
  const std::size_t h = std::size_t(state.range(0));
  const std::size_t w = std::size_t(state.range(1));
  const sw::Params p;
  const std::string a = sw::random_seq(h, 1), b = sw::random_seq(w, 2);
  support::SplitMix64 rng(3);
  std::vector<int> top(w), left(h);
  for (int& x : top) x = int(rng.next() % 64);
  for (int& x : left) x = int(rng.next() % 64);
  const int corner = int(rng.next() % 64);
  for (auto _ : state) {
    sw::TileBoundary t = sw::compute_tile(p, a, b, top, left, corner);
    benchmark::DoNotOptimize(t);
  }
  state.counters["cells/s"] = benchmark::Counter(
      double(h * w), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SwTile)->Args({64, 64})->Args({100, 37});

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags it
// does not know, so argv is partitioned first — observability flags
// (--trace=f / --metrics / --prof-hz=N ..., --name=value form only) go to
// support::Flags/Observe, everything else to benchmark::Initialize.
int main(int argc, char** argv) {
  std::vector<char*> ours{argv[0]}, theirs{argv[0]};
  for (int i = 1; i < argc; ++i) {
    (support::is_observability_flag(argv[i]) ? ours : theirs).push_back(argv[i]);
  }
  support::Flags flags(int(ours.size()), ours.data());
  support::Observe obs(flags);
  flags.reject_unread();

  int bench_argc = int(theirs.size());
  benchmark::Initialize(&bench_argc, theirs.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, theirs.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
