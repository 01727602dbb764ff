// Smith–Waterman local sequence alignment (paper §II-D Fig. 9, §IV-C).
//
// The dynamic-programming matrix H over sequences A (rows) and B (columns):
//
//   H[i][j] = max(0, H[i-1][j-1] + score(a_i, b_j),
//                    H[i-1][j]   + gap,
//                    H[i][j-1]   + gap)
//
// The paper's distributed version tiles H hierarchically: a tile consumes
// its top row, left column and top-left corner from its neighbours and
// produces its own boundaries — exactly the three DDDFs per outer tile in
// Fig. 23. compute_tile() is that kernel; the examples and the simulator
// build the wavefront on top of it (DDDF dataflow vs. fork-join baselines).
//
// Inside a tile, each row depends on the cell to its west, so a row-order
// sweep is scalar. compute_tile() sweeps by anti-diagonals instead, whose
// cells do not depend on each other, and computes 4 or 8 of them per GCC
// vector operation: 8 lanes in an AVX2 build of the kernel, chosen once per
// process where the CPU has AVX2, else the 4-lane baseline (the only one on
// targets other than x86-64). Both give results bit-identical to the
// row-order recurrence. best_score_serial() stays the scalar row-order
// reference that tests compare against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sw {

struct Params {
  int match = 2;
  int mismatch = -1;
  int gap = -1;
};

// Random DNA-alphabet sequence, deterministic in seed.
std::string random_seq(std::size_t len, std::uint64_t seed);

// Boundary data a tile exchanges with its neighbours (the DDDF payload).
struct TileBoundary {
  std::vector<int> bottom;  // last row of the tile   (width entries)
  std::vector<int> right;   // last column of the tile (height entries)
  int corner = 0;           // bottom-right element
  int best = 0;             // max H over the tile (local alignment score)
};

// Computes one tile. `a` is this tile's slice of sequence A (height h),
// `b` the slice of B (width w). `top` has w entries (H values of the row
// above), `left` has h entries (column to the left), `corner` is the H value
// diagonal to the tile's first cell. Out-of-matrix boundaries are all-zero
// vectors (Smith–Waterman's zero floor).
//
// It sweeps by anti-diagonals, 8 or 4 cells per step as described above,
// and every output equals the row-order recurrence's bit for bit. The
// working diagonals live in per-thread scratch, so concurrent calls are
// safe and a call allocates only the returned bottom and right vectors.
TileBoundary compute_tile(const Params& p, std::string_view a,
                          std::string_view b, const std::vector<int>& top,
                          const std::vector<int>& left, int corner);

// Full-matrix reference for validation (O(|a|·|b|) memory-light rolling
// version); returns the best local alignment score.
int best_score_serial(const Params& p, std::string_view a,
                      std::string_view b);

// Tiled-but-sequential driver over th×tw tiles; must agree with
// best_score_serial for any tiling (a key test invariant). Throws
// std::invalid_argument if a tile size is zero.
int best_score_tiled(const Params& p, std::string_view a, std::string_view b,
                     std::size_t tile_h, std::size_t tile_w);

// Hierarchical tiling, inner level (paper Fig. 23): computes one outer tile
// as an intra-node data-driven wavefront of inner tiles, each an hc DDT
// gated on its three neighbours' shared-memory DDFs. Must be called from
// inside an hc task (it opens a finish scope); returns when every inner
// tile is done. Exposes the same boundary contract as compute_tile, so a
// distributed driver can swap kernels freely. Throws std::invalid_argument
// if an inner tile size is zero.
TileBoundary compute_tile_hier(const Params& p, std::string_view a,
                               std::string_view b,
                               const std::vector<int>& top,
                               const std::vector<int>& left, int corner,
                               std::size_t inner_h, std::size_t inner_w);

}  // namespace sw
