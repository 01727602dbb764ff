// Workload `sw_dddf`: tiled Smith–Waterman over dddf::Space on the thread
// transport (the scheme of examples/smithwaterman_dddf.cpp). Each tile is a
// data-driven task awaiting its top, left and corner DDDFs and publishing
// its own three; tile (r, c) is homed on rank (r * tiles_w + c) % 2, so
// every left neighbour lives on the other rank. One round is one alignment
// in a fresh Space, ending with Space::finalize.
//
// Inputs: DNA sequences of kLenA x kLenB drawn from --seed; 64 x 64 tiles,
// small enough that DDDF traffic and DDT scheduling are a large share.
//
// Check: best score plus checksums of the last DP row and column, reduced
// over the wire, must equal a plain DP written here.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>

#include "apps/sw/sw.h"
#include "bench.h"
#include "dddf/space.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

namespace {

constexpr std::size_t kLenA = 8192;
constexpr std::size_t kLenB = 9216;
constexpr std::size_t kTile = 64;

struct Result {
  long best = 0;
  long row_sum = 0;  // sum over j of H[n][j] * (j + 1)
  long col_sum = 0;  // sum over i of H[i][m] * (i + 1)
};

// Plain rolling-row DP over the whole matrix.
Result plain_dp(const sw::Params& p, const std::string& a, const std::string& b) {
  Result r;
  std::vector<int> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      int diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? p.match : p.mismatch);
      int h = std::max({0, diag, prev[j] + p.gap, cur[j - 1] + p.gap});
      cur[j] = h;
      r.best = std::max<long>(r.best, h);
    }
    r.col_sum += long(cur[b.size()]) * long(i);
    std::swap(prev, cur);
  }
  for (std::size_t j = 1; j <= b.size(); ++j) r.row_sum += long(prev[j]) * long(j);
  return r;
}

enum Kind : dddf::Guid { kBottom = 0, kRight = 1, kCorner = 2 };

struct Grid {
  std::size_t th = 0, tw = 0;
  dddf::Guid guid(std::size_t r, std::size_t c, Kind k) const {
    return (dddf::Guid(r) * tw + c) * 3 + k;
  }
  int home(dddf::Guid g) const { return int((g / 3) % kRanks); }
};

dddf::Bytes encode(const std::vector<int>& v) {
  dddf::Bytes b(v.size() * sizeof(int));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

std::vector<int> decode(const dddf::Bytes& b, std::size_t n) {
  std::vector<int> v(b.size() / sizeof(int));
  std::memcpy(v.data(), b.data(), v.size() * sizeof(int));
  v.resize(n);
  return v;
}

struct Shared {
  sw::Params params;
  std::string a, b;
  Grid grid;
  Result ref;
  Timed timed;  // rank 0
  // Put time of every DDDF, for the put -> dependent-start latency.
  std::unique_ptr<std::atomic<std::uint64_t>[]> put_ns;
  std::vector<double> finalize_ms;  // rank 0, timed rounds
};

// Per-rank totals over the timed rounds (traced pass).
struct RankTotals {
  std::uint64_t tiles = 0;
  std::uint64_t remote_gets = 0;
  std::uint64_t data_sent = 0;
};

void timed_put(dddf::Space& space, Shared& sh, dddf::Guid g, dddf::Bytes data,
               std::uint64_t op) {
  sh.put_ns[g].store(now_ns(), std::memory_order_relaxed);
  trace::Scope span(trace::kPut, op);
  space.put(g, std::move(data));
}

void rank_body(smpi::Comm& comm, const Options& o, Shared& sh, Checks& checks,
               RankTotals& totals, LayerCounters& counters) {
  hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
  pin_rank_threads(ctx);
  const Grid& g = sh.grid;
  ctx.run([&] {
    Rounds rounds(ctx, o);
    bool timed = false;
    RoundClock clock;
    while (rounds.next(&timed)) {
      dddf::Space space(ctx, {.home = [&g](dddf::Guid x) { return g.home(x); },
                              .size = [](dddf::Guid) { return kTile * sizeof(int); }});
      // This rank's tiles only. Its one computation worker runs them all, so
      // these locals need no synchronisation.
      Result mine;
      std::uint64_t tiles = 0;
      ctx.barrier();
      if (ctx.rank() == 0 && timed) clock.start();
      hc::finish([&] {
        for (std::size_t r = 0; r < g.th; ++r) {
          for (std::size_t c = 0; c < g.tw; ++c) {
            if (g.home(g.guid(r, c, kBottom)) != ctx.rank()) continue;
            std::vector<dddf::Guid> deps;
            if (r > 0) deps.push_back(g.guid(r - 1, c, kBottom));
            if (c > 0) deps.push_back(g.guid(r, c - 1, kRight));
            if (r > 0 && c > 0) deps.push_back(g.guid(r - 1, c - 1, kCorner));
            const std::uint64_t op = r * g.tw + c;
            auto body = [&, r, c, deps, op] {
              if (timed && !deps.empty()) {
                std::uint64_t ready = 0;
                for (dddf::Guid d : deps) {
                  ready = std::max(ready, sh.put_ns[d].load(std::memory_order_relaxed));
                }
                sh.timed.latency_us.add(double(now_ns() - ready) * 1e-3);
              }
              const std::size_t i0 = r * kTile, i1 = std::min(sh.a.size(), i0 + kTile);
              const std::size_t j0 = c * kTile, j1 = std::min(sh.b.size(), j0 + kTile);
              std::string_view ta(sh.a.data() + i0, i1 - i0);
              std::string_view tb(sh.b.data() + j0, j1 - j0);
              std::vector<int> top = r > 0 ? decode(space.get(g.guid(r - 1, c, kBottom)), tb.size())
                                           : std::vector<int>(tb.size(), 0);
              std::vector<int> left = c > 0 ? decode(space.get(g.guid(r, c - 1, kRight)), ta.size())
                                            : std::vector<int>(ta.size(), 0);
              int corner = r > 0 && c > 0 ? space.get_value<int>(g.guid(r - 1, c - 1, kCorner)) : 0;
              sw::TileBoundary res;
              {
                trace::Scope span(trace::kComputeTile, op);
                res = sw::compute_tile(sh.params, ta, tb, top, left, corner);
              }
              mine.best = std::max<long>(mine.best, res.best);
              if (r + 1 == g.th) {
                for (std::size_t j = 0; j < res.bottom.size(); ++j) {
                  mine.row_sum += long(res.bottom[j]) * long(j0 + j + 1);
                }
              }
              if (c + 1 == g.tw) {
                for (std::size_t i = 0; i < res.right.size(); ++i) {
                  mine.col_sum += long(res.right[i]) * long(i0 + i + 1);
                }
              }
              ++tiles;
              dddf::Bytes corner_bytes(sizeof(int));
              std::memcpy(corner_bytes.data(), &res.corner, sizeof(int));
              timed_put(space, sh, g.guid(r, c, kBottom), encode(res.bottom), op);
              timed_put(space, sh, g.guid(r, c, kRight), encode(res.right), op);
              timed_put(space, sh, g.guid(r, c, kCorner), std::move(corner_bytes), op);
            };
            if (trace::active()) {
              trace::count_spawn();
              space.async_await(deps, [body, op]() mutable { trace::run_body(body, op); });
            } else {
              space.async_await(deps, body);
            }
          }
        }
      });
      const std::uint64_t f0 = now_ns();
      {
        trace::Scope span(trace::kFinalize, 0);
        space.finalize();
      }
      const std::uint64_t f1 = now_ns();
      ctx.barrier();
      if (ctx.rank() == 0 && timed) {
        clock.stop(sh.timed, double(sh.a.size() * sh.b.size()));
        sh.finalize_ms.push_back(double(f1 - f0) * 1e-6);
      }
      if (timed) {
        totals.tiles += tiles;
        totals.remote_gets += space.remote_gets_issued();
        totals.data_sent += space.data_messages_sent();
      }
      long best = 0, sums[2] = {mine.row_sum, mine.col_sum}, all[2] = {0, 0};
      ctx.allreduce(&mine.best, &best, 1, smpi::Datatype::kLong, smpi::Op::kMax);
      ctx.allreduce(sums, all, 2, smpi::Datatype::kLong, smpi::Op::kSum);
      if (ctx.rank() == 0) {
        checks.expect(best == sh.ref.best && all[0] == sh.ref.row_sum &&
                          all[1] == sh.ref.col_sum,
                      "sw_dddf: score or last row/column differs from the plain DP");
      }
    }
    counters = rounds.counters;
  });
}

}  // namespace

void run_sw_dddf(const Options& o, Checks& checks, Metrics& m) {
  Shared sh;
  sh.a = sw::random_seq(kLenA, support::SplitMix64::mix(o.seed * 2 + 1));
  sh.b = sw::random_seq(kLenB, support::SplitMix64::mix(o.seed * 2 + 2));
  sh.grid.th = (kLenA + kTile - 1) / kTile;
  sh.grid.tw = (kLenB + kTile - 1) / kTile;
  sh.put_ns.reset(new std::atomic<std::uint64_t>[sh.grid.th * sh.grid.tw * 3]());
  sh.ref = plain_dp(sh.params, sh.a, sh.b);
  if (o.wrong_reference) sh.ref.row_sum += 1;
  m["info.best_score"] = double(sh.ref.best);

  RankTotals totals[kRanks];
  LayerCounters counters[kRanks];
  auto& reg = support::MetricsRegistry::global();
  const std::uint64_t msgs0 = reg.counter_value("smpi.messages_delivered");
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    const int r = comm.rank();
    rank_body(comm, o, sh, checks, totals[r], counters[r]);
  });
  sh.timed.report(m);
  if (trace::enabled()) {
    LayerCounters total;
    RankTotals t;
    for (int r = 0; r < kRanks; ++r) {
      total += counters[r];
      t.tiles += totals[r].tiles;
      t.remote_gets += totals[r].remote_gets;
      t.data_sent += totals[r].data_sent;
    }
    report_layers(total, sh.timed.work, sh.timed.wall_s,
                  reg.counter_value("smpi.messages_delivered") - msgs0, m);
    double tile_ns = 0;
    for (double v : trace::samples(trace::kComputeTile)) tile_ns += v;
    m["apps.sw_tile_cells_per_s"] = sh.timed.work / (tile_ns * 1e-9);
    std::vector<double> put = trace::samples(trace::kPut);
    m["dddf.put_ns.p50"] = quantile(put, 0.5);
    if (t.remote_gets > 0) {
      m["dddf.data_per_remote_get"] = double(t.data_sent) / double(t.remote_gets);
    }
    m["dddf.remote_gets_per_tile"] = double(t.remote_gets) / double(t.tiles);
    m["dddf.finalize_ms"] = quantile(sh.finalize_ms, 0.5);
  }
}

}  // namespace pb
