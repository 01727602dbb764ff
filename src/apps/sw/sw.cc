#include "apps/sw/sw.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "apps/sw/sw_kernel.h"
#include "support/rng.h"

namespace sw {

std::string random_seq(std::size_t len, std::uint64_t seed) {
  static const char kAlphabet[] = {'A', 'C', 'G', 'T'};
  support::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (std::size_t i = 0; i < len; ++i) {
    s[i] = kAlphabet[rng.next_below(4)];
  }
  return s;
}

namespace {

// Per-thread scratch of the tile kernel, because compute_tile_hier runs the
// kernel on several workers at once. It grows to the largest tile its
// thread has computed, so a steady-state call allocates only the bottom row
// and right column it returns.
struct Scratch {
  std::vector<int> diags;  // three anti-diagonals
  std::vector<int> seqs;   // a, then b reversed, one int per residue
};
thread_local Scratch t_scratch;

// The GCC vector type of L int32 lanes. (GCC ignores a vector_size that
// depends on a template parameter, so each width is spelled out.)
template <int L>
struct Lanes;
template <>
struct Lanes<4> {
  typedef int V __attribute__((vector_size(16)));
};
template <>
struct Lanes<8> {
  typedef int V __attribute__((vector_size(32)));
};

// The tile kernel at L int32 lanes. It sweeps the (h+1)×(w+1) matrix E that
// extends H by the incoming boundaries -- E[0][0] = corner, E[0][j+1] =
// top[j], E[i+1][0] = left[i], E[i+1][j+1] = H[i][j] -- by anti-diagonals.
// The cells of diagonal k (row + column = k) depend on diagonals k-1 and
// k-2 only, never on each other, so L of them take one vector operation.
// Three rolling buffers hold diagonals k-2, k-1 and k, indexed by row; b is
// stored reversed so that the b[j] of consecutive rows of a diagonal are
// contiguous. Each cell gets the row-order recurrence's value, so every
// output is bit-identical to it.
//
// always_inline: the 8-lane instance must be compiled inside its AVX2 entry.
template <int L>
[[gnu::always_inline]] inline TileBoundary sweep(
    const Params& p, std::string_view a, std::string_view b,
    const std::vector<int>& top, const std::vector<int>& left, int corner) {
  using V = typename Lanes<L>::V;
  const std::size_t h = a.size();
  const std::size_t w = b.size();
  TileBoundary out;
  if (h == 0 || w == 0) {
    // Degenerate tile: boundaries pass through unchanged.
    out.bottom = top;
    out.right = left;
    out.corner = corner;
    return out;
  }
  out.bottom.resize(w);
  out.right.resize(h);

  // A diagonal spans rows 0..h, and its last vector may reach L - 1 rows
  // further; the sequences are padded likewise.
  const std::size_t stride = h + L;
  Scratch& s = t_scratch;
  if (s.diags.size() < 3 * stride) s.diags.resize(3 * stride);
  if (s.seqs.size() < h + w + 2 * L) s.seqs.resize(h + w + 2 * L);
  int* d2 = s.diags.data();  // diagonal k - 2
  int* d1 = d2 + stride;     // diagonal k - 1
  int* d0 = d1 + stride;     // diagonal k
  // Residues widened to int once, so a vector of them loads and compares
  // like the H values it scores.
  int* sa = s.seqs.data();  // sa[i] = a[i]
  int* sb = sa + h + L;     // sb[x] = b[w - 1 - x]
  std::copy(a.begin(), a.end(), sa);
  std::reverse_copy(b.begin(), b.end(), sb);

  const V zero = {};
  const V match = zero + p.match;
  const V mismatch = zero + p.mismatch;
  const V gap = zero + p.gap;
  V lane = zero;
  for (int l = 0; l < L; ++l) lane[l] = l;
  V best = zero;

  d2[0] = corner;  // diagonal 0
  d1[0] = top[0];  // diagonal 1
  d1[1] = left[0];
  for (std::size_t k = 2; k <= h + w; ++k) {
    // Interior rows lo..end-1 of E on this diagonal; row i meets column
    // k - i, i.e. a[i - 1] against b[k - i - 1] = sb[w - k + i].
    const std::size_t lo = k > w ? k - w : 1;
    const std::size_t end = std::min(h, k - 1) + 1;
    const int* bk = sb + w - k;
    for (std::size_t i = lo; i < end; i += L) {
      V diag, north, west, ra, rb;
      std::memcpy(&diag, d2 + i - 1, sizeof diag);
      std::memcpy(&north, d1 + i - 1, sizeof north);
      std::memcpy(&west, d1 + i, sizeof west);
      std::memcpy(&ra, sa + i - 1, sizeof ra);
      std::memcpy(&rb, bk + i, sizeof rb);
      V v = diag + (ra == rb ? match : mismatch);
      const V g = (north > west ? north : west) + gap;
      v = v > g ? v : g;
      v = v > zero ? v : zero;
      // Lanes past the diagonal's end hold 0, which neither feeds a real
      // cell later nor raises the best score.
      if (end - i < std::size_t(L)) v &= lane < zero + int(end - i);
      best = best > v ? best : v;
      std::memcpy(d0 + i, &v, sizeof v);
    }
    if (k <= w) d0[0] = top[k - 1];
    if (k <= h) d0[k] = left[k - 1];
    if (k > h) out.bottom[k - h - 1] = d0[h];
    if (k > w) out.right[k - w - 1] = d0[k - w];
    int* const oldest = d2;
    d2 = d1;
    d1 = d0;
    d0 = oldest;
  }
  out.corner = out.bottom[w - 1];
  for (int l = 0; l < L; ++l) out.best = std::max(out.best, int(best[l]));
  return out;
}

}  // namespace

namespace detail {

TileBoundary compute_tile_x4(const Params& p, std::string_view a,
                             std::string_view b, const std::vector<int>& top,
                             const std::vector<int>& left, int corner) {
  return sweep<4>(p, a, b, top, left, corner);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] TileBoundary compute_tile_x8(
    const Params& p, std::string_view a, std::string_view b,
    const std::vector<int>& top, const std::vector<int>& left, int corner) {
  return sweep<8>(p, a, b, top, left, corner);
}

bool has_avx2() { return __builtin_cpu_supports("avx2"); }
#else
bool has_avx2() { return false; }
#endif

}  // namespace detail

TileBoundary compute_tile(const Params& p, std::string_view a,
                          std::string_view b, const std::vector<int>& top,
                          const std::vector<int>& left, int corner) {
#if defined(__x86_64__)
  static const auto kernel = detail::has_avx2() ? detail::compute_tile_x8
                                                : detail::compute_tile_x4;
  return kernel(p, a, b, top, left, corner);
#else
  return detail::compute_tile_x4(p, a, b, top, left, corner);
#endif
}

int best_score_serial(const Params& p, std::string_view a,
                      std::string_view b) {
  std::vector<int> prev(b.size(), 0), cur(b.size(), 0);
  int best = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    int diag = 0, west = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      int sc = a[i] == b[j] ? p.match : p.mismatch;
      int val = std::max({0, diag + sc, prev[j] + p.gap, west + p.gap});
      diag = prev[j];
      west = val;
      cur[j] = val;
      if (val > best) best = val;
    }
    std::swap(prev, cur);
  }
  return best;
}

int best_score_tiled(const Params& p, std::string_view a, std::string_view b,
                     std::size_t tile_h, std::size_t tile_w) {
  if (tile_h == 0 || tile_w == 0) {
    throw std::invalid_argument("sw::best_score_tiled: zero tile size");
  }
  const std::size_t th = (a.size() + tile_h - 1) / tile_h;
  const std::size_t tw = (b.size() + tile_w - 1) / tile_w;
  // prev_bottoms[c] is tile(r-1, c)'s bottom row while processing row r; the
  // corner entering tile(r, c) is the last element of tile(r-1, c-1)'s
  // bottom row, i.e. prev_bottoms[c-1].back() *before* this row overwrites
  // it — so we update prev_bottoms one column behind.
  std::vector<std::vector<int>> prev_bottoms(tw);
  int best = 0;
  for (std::size_t r = 0; r < th; ++r) {
    std::vector<int> left_right;  // right column of tile(r, c-1)
    std::vector<int> pending_bottom;
    for (std::size_t c = 0; c < tw; ++c) {
      std::size_t i0 = r * tile_h, i1 = std::min(a.size(), i0 + tile_h);
      std::size_t j0 = c * tile_w, j1 = std::min(b.size(), j0 + tile_w);
      std::string_view ta = a.substr(i0, i1 - i0);
      std::string_view tb = b.substr(j0, j1 - j0);
      std::vector<int> top =
          r == 0 ? std::vector<int>(tb.size(), 0) : prev_bottoms[c];
      std::vector<int> left =
          c == 0 ? std::vector<int>(ta.size(), 0) : left_right;
      int corner = (r > 0 && c > 0 && !prev_bottoms[c - 1].empty())
                       ? prev_bottoms[c - 1].back()
                       : 0;
      TileBoundary tile = compute_tile(p, ta, tb, top, left, corner);
      best = std::max(best, tile.best);
      if (c > 0) prev_bottoms[c - 1] = std::move(pending_bottom);
      pending_bottom = std::move(tile.bottom);
      left_right = std::move(tile.right);
    }
    prev_bottoms[tw - 1] = std::move(pending_bottom);
  }
  return best;
}

}  // namespace sw
