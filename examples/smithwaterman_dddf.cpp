// Distributed Smith–Waterman over DDDFs — the paper's flagship APGNS example
// (Fig. 9), written against this library's dddf::Space. Every outer tile
// publishes three DDDFs (bottom row, right column, corner); tiles are
// computed by data-driven tasks that await their neighbours' boundaries, and
// no rank ever issues an explicit message.
//
// The best score, max-reduced over the wire, is checked against the serial
// reference on every process, so this example doubles as an end-to-end
// integration proof (also under tools/hcmpi_launch -n N).
//
// Run: ./smithwaterman_dddf [--ranks=4] [--len=512] [--tile=64]
//      [--hier] [--inner=16]   # hierarchical tiling (paper Fig. 23): each
//                              # outer tile is an inner DDF wavefront
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/sw/sw.h"
#include "core/api.h"
#include "dddf/space.h"
#include "hcmpi/context.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"

namespace {

// guid layout: tile (r, c) owns three DDDFs.
enum class Kind : dddf::Guid { kBottom = 0, kRight = 1, kCorner = 2 };

struct GuidCodec {
  std::size_t tiles_w;
  dddf::Guid make(std::size_t r, std::size_t c, Kind k) const {
    return (dddf::Guid(r) * tiles_w + c) * 3 + dddf::Guid(k);
  }
  std::size_t tile_of(dddf::Guid g) const { return std::size_t(g / 3); }
};

std::vector<std::uint8_t> encode_ints(const std::vector<int>& v) {
  std::vector<std::uint8_t> b(v.size() * sizeof(int));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

std::vector<int> decode_ints(const std::vector<std::uint8_t>& b) {
  std::vector<int> v(b.size() / sizeof(int));
  std::memcpy(v.data(), b.data(), b.size());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  const int ranks = int(flags.get_int("ranks", 4));
  const std::size_t len = std::size_t(flags.get_int("len", 512));
  const std::int64_t tile_flag = flags.get_int("tile", 64);
  const bool hier = flags.get_bool("hier", false);
  const std::int64_t inner_flag = flags.get_int("inner", 16);
  flags.reject_unread();
  if (tile_flag < 1 || inner_flag < 1) {
    std::fprintf(stderr,
                 "smithwaterman_dddf: --tile and --inner must be at least 1\n");
    return 2;
  }
  const std::size_t tile = std::size_t(tile_flag);
  const std::size_t inner = std::size_t(inner_flag);

  const sw::Params params;
  const std::string a = sw::random_seq(len, 0xA11CE);
  const std::string b = sw::random_seq(len + len / 8, 0xB0B);
  const std::size_t th = (a.size() + tile - 1) / tile;
  const std::size_t tw = (b.size() + tile - 1) / tile;
  const GuidCodec codec{tw};
  const int expected = sw::best_score_serial(params, a, b);

  std::atomic<int> best{0};  // the same allreduced value from every rank

  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    // DDF_HOME: cyclic distribution over tiles (paper Fig. 9 uses
    // guid % NPROC; we distribute whole tiles so a tile's three DDDFs are
    // co-homed with its producer).
    dddf::Space space(ctx, {
        .home = [&](dddf::Guid g) { return int(codec.tile_of(g) % std::size_t(ranks)); },
        .size = [&](dddf::Guid) { return tile * sizeof(int) + 16; },
    });

    ctx.run([&] {
      const int me = ctx.rank();
      std::atomic<int> local_best{0};  // tiles complete on several workers
      hc::finish([&] {
        for (std::size_t r = 0; r < th; ++r) {
          for (std::size_t c = 0; c < tw; ++c) {
            if (int(codec.tile_of(codec.make(r, c, Kind::kBottom)) %
                    std::size_t(ranks)) != me) {
              continue;  // isHome(i, j) check from Fig. 9
            }
            std::vector<dddf::Guid> deps;
            if (r > 0) deps.push_back(codec.make(r - 1, c, Kind::kBottom));
            if (c > 0) deps.push_back(codec.make(r, c - 1, Kind::kRight));
            if (r > 0 && c > 0) {
              deps.push_back(codec.make(r - 1, c - 1, Kind::kCorner));
            }
            space.async_await(deps, [&, r, c] {
              std::size_t i0 = r * tile, i1 = std::min(a.size(), i0 + tile);
              std::size_t j0 = c * tile, j1 = std::min(b.size(), j0 + tile);
              std::string_view ta(a.data() + i0, i1 - i0);
              std::string_view tb(b.data() + j0, j1 - j0);
              std::vector<int> top =
                  r > 0 ? decode_ints(space.get(codec.make(r - 1, c, Kind::kBottom)))
                        : std::vector<int>(tb.size(), 0);
              if (top.size() > tb.size()) top.resize(tb.size());
              std::vector<int> left =
                  c > 0 ? decode_ints(space.get(codec.make(r, c - 1, Kind::kRight)))
                        : std::vector<int>(ta.size(), 0);
              if (left.size() > ta.size()) left.resize(ta.size());
              int corner = (r > 0 && c > 0)
                               ? space.get_value<int>(
                                     codec.make(r - 1, c - 1, Kind::kCorner))
                               : 0;
              sw::TileBoundary res =
                  hier ? sw::compute_tile_hier(params, ta, tb, top, left,
                                               corner, inner, inner)
                       : sw::compute_tile(params, ta, tb, top, left, corner);
              int seen = local_best.load(std::memory_order_relaxed);
              while (res.best > seen &&
                     !local_best.compare_exchange_weak(seen, res.best)) {
              }
              space.put(codec.make(r, c, Kind::kBottom),
                        encode_ints(res.bottom));
              space.put(codec.make(r, c, Kind::kRight),
                        encode_ints(res.right));
              space.put_value(codec.make(r, c, Kind::kCorner), res.corner);
            });
          }
        }
      });
      int mine = local_best.load(), global = 0;
      ctx.allreduce(&mine, &global, 1, hcmpi::Datatype::kInt, hcmpi::Op::kMax);
      best.store(global);
      space.finalize();
    });
  });

  const int score = best.load();
  std::printf("smithwaterman_dddf: score=%d expected=%d -> %s\n", score,
              expected, score == expected ? "MATCH" : "MISMATCH");
  return score == expected ? 0 : 1;
}
