// Inner-level hierarchical Smith–Waterman (paper Fig. 23): "an inner tile
// encapsulates a matrix of elements and three shared-memory DDFs to
// represent the intra-node visible edges of an inner tile ... exposing the
// intra-node wavefront parallelism through registering neighboring tiles'
// shared-memory DDFs."
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "apps/sw/sw.h"
#include "core/api.h"
#include "core/ddf.h"

namespace sw {

TileBoundary compute_tile_hier(const Params& p, std::string_view a,
                               std::string_view b,
                               const std::vector<int>& top,
                               const std::vector<int>& left, int corner,
                               std::size_t inner_h, std::size_t inner_w) {
  if (inner_h == 0 || inner_w == 0) {
    throw std::invalid_argument("sw::compute_tile_hier: zero inner tile size");
  }
  if (a.empty() || b.empty()) {
    return compute_tile(p, a, b, top, left, corner);
  }
  const std::size_t ih = (a.size() + inner_h - 1) / inner_h;
  const std::size_t iw = (b.size() + inner_w - 1) / inner_w;

  // One DDF per inner tile carrying its full boundary bundle.
  std::vector<hc::DdfPtr<TileBoundary>> cells(ih * iw);
  for (auto& c : cells) c = hc::ddf_create<TileBoundary>();
  auto at = [&](std::size_t r, std::size_t c) -> hc::DdfPtr<TileBoundary>& {
    return cells[r * iw + c];
  };

  std::atomic<int> best{0};
  hc::finish([&] {
    for (std::size_t r = 0; r < ih; ++r) {
      for (std::size_t c = 0; c < iw; ++c) {
        std::vector<hc::DdfBase*> deps;
        if (r > 0) deps.push_back(at(r - 1, c).get());
        if (c > 0) deps.push_back(at(r, c - 1).get());
        if (r > 0 && c > 0) deps.push_back(at(r - 1, c - 1).get());
        hc::async_await(deps, [&, r, c] {
          std::size_t i0 = r * inner_h, i1 = std::min(a.size(), i0 + inner_h);
          std::size_t j0 = c * inner_w, j1 = std::min(b.size(), j0 + inner_w);
          std::string_view ta = a.substr(i0, i1 - i0);
          std::string_view tb = b.substr(j0, j1 - j0);
          // Boundary slices: neighbours' DDFs inside the grid, the outer
          // tile's incoming boundaries at the edges.
          std::vector<int> ttop =
              r > 0 ? at(r - 1, c)->get().bottom
                    : std::vector<int>(top.begin() + long(j0),
                                       top.begin() + long(j1));
          std::vector<int> tleft =
              c > 0 ? at(r, c - 1)->get().right
                    : std::vector<int>(left.begin() + long(i0),
                                       left.begin() + long(i1));
          int tcorner;
          if (r > 0 && c > 0) {
            tcorner = at(r - 1, c - 1)->get().corner;
          } else if (r == 0 && c == 0) {
            tcorner = corner;
          } else if (r == 0) {
            tcorner = top[j0 - 1];
          } else {
            tcorner = left[i0 - 1];
          }
          TileBoundary out = compute_tile(p, ta, tb, ttop, tleft, tcorner);
          int seen = best.load(std::memory_order_relaxed);
          while (out.best > seen &&
                 !best.compare_exchange_weak(seen, out.best)) {
          }
          at(r, c)->put(std::move(out));
        });
      }
    }
  });

  // Assemble the outer tile's boundary from the last row / column of inner
  // tiles (exactly what the distributed level publishes as DDDFs).
  TileBoundary out;
  out.bottom.reserve(b.size());
  for (std::size_t c = 0; c < iw; ++c) {
    const TileBoundary& t = at(ih - 1, c)->get();
    out.bottom.insert(out.bottom.end(), t.bottom.begin(), t.bottom.end());
  }
  out.right.reserve(a.size());
  for (std::size_t r = 0; r < ih; ++r) {
    const TileBoundary& t = at(r, iw - 1)->get();
    out.right.insert(out.right.end(), t.right.begin(), t.right.end());
  }
  out.corner = at(ih - 1, iw - 1)->get().corner;
  out.best = best.load();
  return out;
}

}  // namespace sw
