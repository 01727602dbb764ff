// Unbalanced Tree Search (paper §IV-B; Olivier et al., LCPC'06).
//
// UTS counts the nodes of an implicitly defined random tree. Each node
// carries a 20-byte SHA-1 state; child i of a node has state
// SHA1(parent_state || i), so the tree shape is a pure function of the root
// seed — any traversal order (sequential, work-stealing, distributed) must
// count exactly the same nodes, which is what makes UTS a load-balancing
// benchmark rather than a numerical one.
//
// Two shapes, as in the paper:
//   * geometric — child count is a geometric variable whose mean shrinks
//     linearly with depth (T1 family; T1XXL ≈ 4.2 G nodes);
//   * binomial  — the root has b0 children; every other node has m children
//     with probability q, none otherwise (T3 family; T3XXL ≈ 3 G nodes).
//
// The presets t1()/t3() are the ~4.1 M-node published configurations; the
// paper's XXL inputs are the same distributions scaled up (DESIGN.md §2
// documents using the scaled trees for the simulator-based reproduction).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "support/sha1.h"

namespace uts {

enum class Shape : std::uint8_t { kGeometric, kBinomial };

// Branching-factor profile for geometric trees (UTS's -a option): the
// published T1 family uses FIXED (b(d) = b0 for d < gen_mx); LINEAR decay
// (b(d) = b0·(1 − d/gen_mx)) is kept for narrower experimental trees.
enum class GeoProfile : std::uint8_t { kFixed, kLinear };

struct Params {
  Shape shape = Shape::kGeometric;
  GeoProfile profile = GeoProfile::kFixed;
  double b0 = 4.0;      // root branching factor
  int gen_mx = 10;      // geometric: depth cutoff
  double q = 0.124875;  // binomial: P(m children)
  int m = 8;            // binomial: child count when spawning
  std::uint32_t root_seed = 19;

  std::string name() const;
};

// Published configurations.
Params t1();    // GEO  b0=4 gen_mx=10   ~4.13 M nodes
Params t2();    // GEO  b0=1.014 gen_mx=508 (deep/narrow)
Params t3();    // BIN  b0=2000 q=0.124875 m=8 ~4.11 M nodes
Params t1xxl(); // GEO shape of the paper's T1XXL (scaled: gen_mx=13)
Params t3xxl(); // BIN shape of the paper's T3XXL (scaled: q=0.200014 m=5)

struct Node {
  std::array<std::uint8_t, 20> state;
  int depth = 0;
};

// The deterministic SHA-1 node stream.
Node make_root(const Params& p);
Node make_child(const Node& parent, std::uint32_t index);

// Uniform in [0,1) derived from the node state (first 4 state bytes).
double node_uniform(const Node& n);

// Number of children this node spawns under p.
int num_children(const Node& n, const Params& p);

// The distribution math alone: child count given the node's uniform draw
// and depth. Shared with the simulator's fast (non-SHA-1) node stream so
// both explore identically distributed trees.
int children_from_uniform(double u, int depth, const Params& p);

struct CountResult {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  int max_depth = 0;
  std::uint64_t digest = 0;  // XOR of node_digest over every node
};

// A node's first 8 state bytes as one word. XORed over a traversal, it
// checks that the same nodes were visited, not only as many, whatever the
// order of the visit.
std::uint64_t node_digest(const Node& n);

// Sequential reference traversal (explicit stack). `node_limit` guards
// runaway configurations; 0 = unlimited.
CountResult count_sequential(const Params& p, std::uint64_t node_limit = 0);

// The intra-node half of the paper's UTS design (§IV-B): each task explores
// from a local stack and, once it holds more than 2·chunk nodes, offloads
// the oldest chunk as a new task, "generating work for intra-node peers".
// Call from a task of an hc::Runtime; returns the node count once every
// spilled task has run.
std::uint64_t count_workstealing(const Params& p, int chunk);

}  // namespace uts
