#include "apps/uts/uts.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/api.h"

namespace uts {

std::string Params::name() const {
  char buf[96];
  if (shape == Shape::kGeometric) {
    std::snprintf(buf, sizeof buf, "GEO(b0=%.3f,gen_mx=%d,seed=%u)", b0,
                  gen_mx, root_seed);
  } else {
    std::snprintf(buf, sizeof buf, "BIN(b0=%.0f,q=%.6f,m=%d,seed=%u)", b0, q,
                  m, root_seed);
  }
  return buf;
}

Params t1() {
  return Params{Shape::kGeometric, GeoProfile::kFixed, 4.0, 10, 0, 0, 10};
}

Params t2() {
  // Root seed chosen (like t1/t3's) so this generator's bit extraction
  // yields a healthy non-extinct draw of the published deep/narrow shape.
  return Params{Shape::kGeometric, GeoProfile::kLinear, 1.014, 508, 0, 0,
                142};
}

Params t3() {
  return Params{Shape::kBinomial, GeoProfile::kFixed, 2000.0, 0, 0.124875, 8,
                56};
}

Params t1xxl() {
  return Params{Shape::kGeometric, GeoProfile::kFixed, 4.0, 13, 0, 0, 10};
}

Params t3xxl() {
  return Params{Shape::kBinomial, GeoProfile::kFixed, 2000.0, 0, 0.200014, 5,
                316};
}

Node make_root(const Params& p) {
  Node n;
  n.depth = 0;
  std::uint8_t seed_bytes[4];
  for (int i = 0; i < 4; ++i) seed_bytes[i] = std::uint8_t(p.root_seed >> (8 * i));
  n.state = support::Sha1::hash(seed_bytes, sizeof seed_bytes);
  return n;
}

Node make_child(const Node& parent, std::uint32_t index) {
  Node c;
  c.depth = parent.depth + 1;
  support::Sha1 h;
  h.update(parent.state.data(), parent.state.size());
  std::uint8_t idx_bytes[4];
  for (int i = 0; i < 4; ++i) idx_bytes[i] = std::uint8_t(index >> (8 * i));
  h.update(idx_bytes, sizeof idx_bytes);
  c.state = h.finish();
  return c;
}

double node_uniform(const Node& n) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, n.state.data(), sizeof bits);
  return double(bits) / 4294967296.0;
}

int children_from_uniform(double u, int depth, const Params& p) {
  if (p.shape == Shape::kBinomial) {
    if (depth == 0) return int(p.b0);
    return u < p.q ? p.m : 0;
  }
  // Geometric child count with mean b(d). The published T1 trees use a
  // FIXED profile (b(d) = b0 up to the depth cutoff, UTS -a 3); the LINEAR
  // profile shrinks the mean toward zero at gen_mx.
  if (depth >= p.gen_mx) return 0;
  double b_d = p.profile == GeoProfile::kFixed
                   ? p.b0
                   : p.b0 * (1.0 - double(depth) / double(p.gen_mx));
  if (b_d <= 0.0) return 0;
  // Geometric with success probability such that the mean is b_d.
  double prob = 1.0 / (1.0 + b_d);
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  int children = int(std::floor(std::log(1.0 - u) / std::log(1.0 - prob)));
  return children < 0 ? 0 : children;
}

int num_children(const Node& n, const Params& p) {
  return children_from_uniform(node_uniform(n), n.depth, p);
}

std::uint64_t node_digest(const Node& n) {
  std::uint64_t d = 0;
  std::memcpy(&d, n.state.data(), sizeof d);
  return d;
}

CountResult count_sequential(const Params& p, std::uint64_t node_limit) {
  CountResult r;
  std::vector<Node> stack;
  stack.push_back(make_root(p));
  while (!stack.empty()) {
    Node n = stack.back();
    stack.pop_back();
    ++r.nodes;
    r.digest ^= node_digest(n);
    if (n.depth > r.max_depth) r.max_depth = n.depth;
    if (node_limit != 0 && r.nodes >= node_limit) {
      throw std::runtime_error("uts: node limit exceeded for " + p.name());
    }
    int k = num_children(n, p);
    if (k == 0) {
      ++r.leaves;
      continue;
    }
    for (int i = 0; i < k; ++i) {
      stack.push_back(make_child(n, std::uint32_t(i)));
    }
  }
  return r;
}

namespace {

struct Search {
  const Params& params;
  const int chunk;
  std::atomic<std::uint64_t> nodes{0};

  // Explore from a local stack; spill the oldest chunk as a new task for
  // idle peers to steal when the stack overflows twice the chunk.
  void explore(std::vector<Node> stack) {
    std::uint64_t local = 0;
    while (!stack.empty()) {
      Node n = stack.back();
      stack.pop_back();
      ++local;
      int k = num_children(n, params);
      for (int i = 0; i < k; ++i) {
        stack.push_back(make_child(n, std::uint32_t(i)));
      }
      if (int(stack.size()) > 2 * chunk) {
        std::vector<Node> spill(stack.begin(), stack.begin() + chunk);
        stack.erase(stack.begin(), stack.begin() + chunk);
        hc::async([this, spill = std::move(spill)]() mutable {
          explore(std::move(spill));
        });
      }
    }
    nodes.fetch_add(local, std::memory_order_relaxed);
  }
};

}  // namespace

std::uint64_t count_workstealing(const Params& p, int chunk) {
  Search search{p, chunk};
  hc::finish([&] { search.explore({make_root(p)}); });
  return search.nodes.load(std::memory_order_relaxed);
}

}  // namespace uts
