#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/sw/sw.h"
#include "apps/sw/sw_kernel.h"
#include "apps/uts/uts.h"
#include "core/api.h"
#include "sim/uts_common.h"
#include "support/rng.h"

namespace {

// --- UTS -------------------------------------------------------------------

TEST(Uts, RootIsDeterministic) {
  uts::Params p = uts::t1();
  auto r1 = uts::make_root(p);
  auto r2 = uts::make_root(p);
  EXPECT_EQ(r1.state, r2.state);
  EXPECT_EQ(r1.depth, 0);
}

TEST(Uts, ChildrenDifferByIndex) {
  uts::Params p = uts::t1();
  auto root = uts::make_root(p);
  auto c0 = uts::make_child(root, 0);
  auto c1 = uts::make_child(root, 1);
  EXPECT_NE(c0.state, c1.state);
  EXPECT_EQ(c0.depth, 1);
}

TEST(Uts, SeedChangesTree) {
  uts::Params a = uts::t1();
  uts::Params b = uts::t1();
  a.gen_mx = b.gen_mx = 6;
  b.root_seed = 20;
  auto ca = uts::count_sequential(a);
  auto cb = uts::count_sequential(b);
  EXPECT_NE(ca.nodes, cb.nodes);
}

TEST(Uts, GeometricDepthCutoffHolds) {
  uts::Params p = uts::t1();
  p.gen_mx = 6;
  auto c = uts::count_sequential(p);
  EXPECT_LE(c.max_depth, 6);
  EXPECT_GT(c.nodes, 100u);  // nontrivial tree
  EXPECT_EQ(c.nodes, uts::count_sequential(p).nodes);  // reproducible
}

TEST(Uts, BinomialRootBranching) {
  uts::Params p = uts::t3();
  auto root = uts::make_root(p);
  EXPECT_EQ(uts::num_children(root, p), 2000);
}

TEST(Uts, BinomialNonRootIsZeroOrM) {
  uts::Params p = uts::t3();
  auto root = uts::make_root(p);
  for (int i = 0; i < 200; ++i) {
    auto c = uts::make_child(root, std::uint32_t(i));
    int k = uts::num_children(c, p);
    EXPECT_TRUE(k == 0 || k == p.m) << k;
  }
}

TEST(Uts, ChildrenFromUniformGeometricMean) {
  // The sampled distribution's empirical mean must be near b(depth).
  uts::Params p;
  p.shape = uts::Shape::kGeometric;
  p.b0 = 4.0;
  p.gen_mx = 10;
  double sum = 0;
  const int n = 200000;
  support::Xoshiro256 rng(5);
  for (int i = 0; i < n; ++i) {
    sum += uts::children_from_uniform(rng.next_double(), 0, p);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Uts, ChildrenFromUniformBinomialProbability) {
  uts::Params p = uts::t3();
  int spawns = 0;
  const int n = 200000;
  support::Xoshiro256 rng(6);
  for (int i = 0; i < n; ++i) {
    if (uts::children_from_uniform(rng.next_double(), 3, p) > 0) ++spawns;
  }
  EXPECT_NEAR(double(spawns) / n, p.q, 0.01);
}

TEST(Uts, NodeLimitThrows) {
  uts::Params p = uts::t1();  // ~4.1 M nodes
  EXPECT_THROW(uts::count_sequential(p, /*node_limit=*/1000),
               std::runtime_error);
}

TEST(Uts, LeafPlusInternalEqualsTotalShape) {
  uts::Params p = uts::t1();
  p.gen_mx = 7;
  auto c = uts::count_sequential(p);
  EXPECT_GT(c.leaves, 0u);
  EXPECT_LT(c.leaves, c.nodes);
}

TEST(Uts, FastStreamMatchesSequentialCountShape) {
  // The simulator's counter-hash stream samples the same child-count
  // distribution as the SHA-1 stream. Individual trees are heavy-tailed
  // draws, so compare the *aggregate* size over several seeds.
  std::uint64_t sha_total = 0, fast_total = 0;
  for (std::uint32_t seed = 0; seed < 12; ++seed) {
    uts::Params p = uts::t1();
    p.gen_mx = 7;
    p.root_seed = seed;
    sha_total += uts::count_sequential(p).nodes;
    std::vector<sim::FastNode> stack{sim::fast_root(p)};
    while (!stack.empty()) {
      sim::FastNode n = stack.back();
      stack.pop_back();
      ++fast_total;
      int k = sim::fast_children(n, p);
      for (int i = 0; i < k; ++i) {
        stack.push_back(sim::fast_child(n, std::uint32_t(i)));
      }
    }
  }
  double ratio = double(fast_total) / double(sha_total);
  EXPECT_GT(ratio, 0.4) << fast_total << " vs " << sha_total;
  EXPECT_LT(ratio, 2.5) << fast_total << " vs " << sha_total;
}

TEST(Uts, PresetNamesDistinct) {
  EXPECT_NE(uts::t1().name(), uts::t3().name());
  EXPECT_NE(uts::t1().name(), uts::t1xxl().name());
}

TEST(Uts, LinearProfileShrinksBranching) {
  // Under the LINEAR profile the mean child count decays toward zero at the
  // depth cutoff; under FIXED it stays at b0.
  uts::Params lin;
  lin.shape = uts::Shape::kGeometric;
  lin.profile = uts::GeoProfile::kLinear;
  lin.b0 = 4.0;
  lin.gen_mx = 10;
  support::Xoshiro256 rng(8);
  auto mean_at = [&](const uts::Params& p, int depth) {
    double s = 0;
    support::Xoshiro256 r(8);
    for (int i = 0; i < 50000; ++i) {
      s += uts::children_from_uniform(r.next_double(), depth, p);
    }
    return s / 50000;
  };
  EXPECT_NEAR(mean_at(lin, 0), 4.0, 0.15);
  EXPECT_NEAR(mean_at(lin, 5), 2.0, 0.10);
  EXPECT_NEAR(mean_at(lin, 9), 0.4, 0.05);
  uts::Params fixed = lin;
  fixed.profile = uts::GeoProfile::kFixed;
  EXPECT_NEAR(mean_at(fixed, 9), 4.0, 0.15);
  EXPECT_EQ(uts::children_from_uniform(0.5, 10, lin), 0);  // cutoff
}

TEST(Uts, T2PresetIsDeepAndNarrow) {
  // T2 (linear, b0=1.014, gen_mx=508): trees are much deeper than T1's.
  uts::Params p = uts::t2();
  auto c = uts::count_sequential(p, /*node_limit=*/5'000'000);
  EXPECT_GT(c.max_depth, uts::t1().gen_mx);
  EXPECT_GT(c.nodes, 1u);
}

// --- Smith-Waterman ----------------------------------------------------------

TEST(Sw, RandomSeqDeterministicAndDna) {
  auto s1 = sw::random_seq(256, 42);
  auto s2 = sw::random_seq(256, 42);
  EXPECT_EQ(s1, s2);
  for (char c : s1) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
  }
  EXPECT_NE(s1, sw::random_seq(256, 43));
}

TEST(Sw, IdenticalSequencesScorePerfect) {
  sw::Params p;
  std::string s = "ACGTACGTGG";
  EXPECT_EQ(sw::best_score_serial(p, s, s), int(s.size()) * p.match);
}

TEST(Sw, DisjointAlphabetScoresZero) {
  sw::Params p;
  EXPECT_EQ(sw::best_score_serial(p, "AAAA", "TTTT"),
            0 + std::max(0, p.mismatch));  // all-mismatch floors at 0
}

TEST(Sw, KnownSmallAlignment) {
  // "GGTT" vs "GGAT": best local alignment GG (2 matches) or GG.T with one
  // mismatch: 2*2 = 4 vs 2+2-1+2 = ... verify against hand-checked value.
  sw::Params p;  // match 2, mismatch -1, gap -1
  EXPECT_EQ(sw::best_score_serial(p, "GGTT", "GGAT"), 5);  // G G (A~T) T
}

TEST(Sw, TileKernelMatchesWholeMatrix) {
  sw::Params p;
  std::string a = sw::random_seq(33, 7);
  std::string b = sw::random_seq(47, 8);
  // Single tile spanning the whole matrix with zero boundaries == serial.
  sw::TileBoundary t = sw::compute_tile(p, a, b, std::vector<int>(b.size(), 0),
                                        std::vector<int>(a.size(), 0), 0);
  EXPECT_EQ(t.best, sw::best_score_serial(p, a, b));
  EXPECT_EQ(t.bottom.size(), b.size());
  EXPECT_EQ(t.right.size(), a.size());
  EXPECT_EQ(t.corner, t.bottom.back());
}

TEST(Sw, DegenerateTilePassesBoundariesThrough) {
  sw::Params p;
  std::vector<int> top{1, 2, 3}, left{4, 5};
  auto out = sw::compute_tile(p, "", "ACG", top, left, 9);
  EXPECT_EQ(out.bottom, top);
  EXPECT_EQ(out.right, left);
  EXPECT_EQ(out.corner, 9);
}

struct TilingCase {
  std::size_t la, lb, th, tw;
};

class SwTilingEquivalence : public ::testing::TestWithParam<TilingCase> {};

TEST_P(SwTilingEquivalence, TiledEqualsSerial) {
  auto c = GetParam();
  sw::Params p;
  std::string a = sw::random_seq(c.la, 11);
  std::string b = sw::random_seq(c.lb, 13);
  EXPECT_EQ(sw::best_score_tiled(p, a, b, c.th, c.tw),
            sw::best_score_serial(p, a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, SwTilingEquivalence,
    ::testing::Values(TilingCase{64, 64, 16, 16}, TilingCase{64, 64, 8, 32},
                      TilingCase{100, 60, 7, 9},   // ragged edges
                      TilingCase{33, 97, 33, 97},  // single tile
                      TilingCase{50, 50, 1, 50},   // row strips
                      TilingCase{50, 50, 50, 1},   // column strips
                      TilingCase{128, 96, 13, 17}, TilingCase{1, 1, 4, 4},
                      TilingCase{200, 3, 16, 2}));

struct HierCase {
  std::size_t la, lb, ih, iw;
};

class SwHierEquivalence : public ::testing::TestWithParam<HierCase> {};

TEST_P(SwHierEquivalence, HierarchicalMatchesFlatKernel) {
  // The inner-DDF wavefront (paper Fig. 23) must produce bit-identical
  // boundaries and score to the sequential tile kernel.
  auto c = GetParam();
  sw::Params p;
  std::string a = sw::random_seq(c.la, 21);
  std::string b = sw::random_seq(c.lb, 22);
  std::vector<int> top(b.size());
  std::vector<int> left(a.size());
  for (std::size_t j = 0; j < top.size(); ++j) top[j] = int(j % 5);
  for (std::size_t i = 0; i < left.size(); ++i) left[i] = int(i % 7);
  int corner = 3;
  sw::TileBoundary flat = sw::compute_tile(p, a, b, top, left, corner);
  hc::Runtime rt({.num_workers = 3});
  sw::TileBoundary hier;
  rt.launch([&] {
    hier = sw::compute_tile_hier(p, a, b, top, left, corner, c.ih, c.iw);
  });
  EXPECT_EQ(hier.bottom, flat.bottom);
  EXPECT_EQ(hier.right, flat.right);
  EXPECT_EQ(hier.corner, flat.corner);
  EXPECT_EQ(hier.best, flat.best);
}

INSTANTIATE_TEST_SUITE_P(
    InnerTilings, SwHierEquivalence,
    ::testing::Values(HierCase{48, 48, 8, 8}, HierCase{48, 48, 16, 4},
                      HierCase{50, 70, 7, 11},  // ragged inner edges
                      HierCase{33, 33, 33, 33},  // single inner tile
                      HierCase{40, 40, 1, 40},   // strip tiles
                      HierCase{64, 32, 5, 3}));

// Per-cell reference for one tile: the full (h+1)×(w+1) matrix with the
// incoming boundaries in row and column 0, filled row by row.
sw::TileBoundary full_matrix_tile(const sw::Params& p, std::string_view a,
                                  std::string_view b,
                                  const std::vector<int>& top,
                                  const std::vector<int>& left, int corner) {
  const std::size_t h = a.size(), w = b.size();
  std::vector<std::vector<int>> e(h + 1, std::vector<int>(w + 1));
  e[0][0] = corner;
  for (std::size_t j = 0; j < w; ++j) e[0][j + 1] = top[j];
  for (std::size_t i = 0; i < h; ++i) e[i + 1][0] = left[i];
  sw::TileBoundary out;
  for (std::size_t i = 1; i <= h; ++i) {
    for (std::size_t j = 1; j <= w; ++j) {
      const int sc = a[i - 1] == b[j - 1] ? p.match : p.mismatch;
      e[i][j] = std::max({0, e[i - 1][j - 1] + sc, e[i - 1][j] + p.gap,
                          e[i][j - 1] + p.gap});
      out.best = std::max(out.best, e[i][j]);
    }
    out.right.push_back(e[i][w]);
  }
  out.bottom.assign(e[h].begin() + 1, e[h].end());
  out.corner = e[h][w];
  return out;
}

using TileKernel = sw::TileBoundary (*)(const sw::Params&, std::string_view,
                                        std::string_view,
                                        const std::vector<int>&,
                                        const std::vector<int>&, int);

// Parameter: the kernel's vector width in int32 lanes.
class SwTileOracle : public ::testing::TestWithParam<int> {};

TEST_P(SwTileOracle, EveryOutputMatchesFullMatrix) {
  TileKernel kernel = sw::detail::compute_tile_x4;
  if (GetParam() == 8) {
#if defined(__x86_64__)
    if (!sw::detail::has_avx2()) {
      GTEST_SKIP() << "the CPU lacks AVX2, which the 8-lane kernel needs";
    }
    kernel = sw::detail::compute_tile_x8;
#else
    GTEST_SKIP() << "the 8-lane kernel is built only for x86-64";
#endif
  }
  const sw::Params params[] = {{2, -1, -1}, {2, -3, -3}, {5, -4, -2},
                               {1, -1, -2}};
  struct Shape {
    std::size_t h, w;
  };
  std::vector<Shape> shapes = {{1, 1},  {1, 13},  {1, 70}, {13, 1},
                               {70, 1}, {300, 7}, {7, 300}, {64, 64}};
  // Random sizes up to 70 that are not multiples of 4, so diagonals end in
  // partial vectors of both widths.
  support::SplitMix64 rng(19);
  auto ragged = [&rng] {
    std::size_t n = 0;
    while (n % 4 == 0) n = 1 + rng.next() % 70;
    return n;
  };
  for (int i = 0; i < 100; ++i) shapes.push_back({ragged(), ragged()});

  for (const Shape& s : shapes) {
    const std::string a = sw::random_seq(s.h, rng.next());
    const std::string b = sw::random_seq(s.w, rng.next());
    for (bool ones : {false, true}) {
      auto draw = [&] { return ones ? 1 : int(rng.next() % 501); };
      std::vector<int> top(s.w), left(s.h);
      std::generate(top.begin(), top.end(), draw);
      std::generate(left.begin(), left.end(), draw);
      const int corner = draw();
      for (const sw::Params& p : params) {
        SCOPED_TRACE(::testing::Message()
                     << s.h << "x" << s.w << " ones=" << ones << " params {"
                     << p.match << "," << p.mismatch << "," << p.gap << "}");
        const sw::TileBoundary want =
            full_matrix_tile(p, a, b, top, left, corner);
        const sw::TileBoundary got = kernel(p, a, b, top, left, corner);
        ASSERT_EQ(got.bottom, want.bottom);
        ASSERT_EQ(got.right, want.right);
        ASSERT_EQ(got.corner, want.corner);
        ASSERT_EQ(got.best, want.best);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SwTileOracle, ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "x" + std::to_string(info.param);
                         });

TEST(Sw, ZeroTileSizeThrows) {
  sw::Params p;
  const std::string a = sw::random_seq(10, 1), b = sw::random_seq(12, 2);
  EXPECT_THROW(sw::best_score_tiled(p, a, b, 0, 4), std::invalid_argument);
  EXPECT_THROW(sw::best_score_tiled(p, a, b, 4, 0), std::invalid_argument);
  // The check comes before the hierarchical kernel uses the runtime.
  const std::vector<int> top(b.size(), 0), left(a.size(), 0);
  EXPECT_THROW(sw::compute_tile_hier(p, a, b, top, left, 0, 0, 4),
               std::invalid_argument);
  EXPECT_THROW(sw::compute_tile_hier(p, a, b, top, left, 0, 4, 0),
               std::invalid_argument);
}

TEST(Sw, ScoringParamsChangeResults) {
  std::string a = sw::random_seq(80, 1), b = sw::random_seq(80, 2);
  sw::Params strict{2, -3, -3};
  sw::Params lax{2, -1, -1};
  EXPECT_LE(sw::best_score_serial(strict, a, b),
            sw::best_score_serial(lax, a, b));
}

}  // namespace
