// Distributed k-means with HCMPI: the classic iterative bulk-synchronous
// kernel, written the HCMPI way.
//
//   * each rank owns a shard of the points; the assignment step runs as
//     intra-node parallel tasks (hc::parallel_for);
//   * the per-iteration reduction of (cluster sums, counts) is a single
//     HCMPI allreduce executed by the communication worker;
//   * convergence is decided with an hcmpi accumulator (max centroid shift
//     across every rank — paper Fig. 8's model).
//
// Verifies against a serial implementation on the same data, on every
// process (the centroids every rank holds come from the allreduce).
//
// Run: ./kmeans_hcmpi [--ranks=4] [--points=8000] [--k=8] [--dims=4]
#include <cmath>
#include <cstdio>
#include <mutex>
#include <vector>

#include "core/api.h"
#include "hcmpi/context.h"
#include "hcmpi/phaser_bridge.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"
#include "support/rng.h"

namespace {

struct Dataset {
  int dims;
  std::vector<double> points;  // n x dims
  std::size_t count() const { return points.size() / std::size_t(dims); }
  const double* point(std::size_t i) const {
    return points.data() + i * std::size_t(dims);
  }
};

Dataset make_dataset(std::size_t n, int dims, int k, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Dataset d{dims, {}};
  d.points.reserve(n * std::size_t(dims));
  // Gaussian-ish blobs around k lattice centers.
  for (std::size_t i = 0; i < n; ++i) {
    int blob = int(i % std::size_t(k));
    for (int j = 0; j < dims; ++j) {
      double center = double((blob * 7 + j * 3) % 10);
      double noise = (rng.next_double() + rng.next_double() - 1.0) * 0.5;
      d.points.push_back(center + noise);
    }
  }
  return d;
}

double sq_dist(const double* a, const double* b, int dims) {
  double s = 0;
  for (int j = 0; j < dims; ++j) s += (a[j] - b[j]) * (a[j] - b[j]);
  return s;
}

std::vector<double> initial_centroids(const Dataset& d, int k) {
  std::vector<double> c;
  for (int i = 0; i < k; ++i) {
    const double* p = d.point(std::size_t(i) * 37 % d.count());
    c.insert(c.end(), p, p + d.dims);
  }
  return c;
}

int nearest(const double* p, const std::vector<double>& centroids, int k,
            int dims) {
  int best = 0;
  double bd = sq_dist(p, centroids.data(), dims);
  for (int c = 1; c < k; ++c) {
    double dd = sq_dist(p, centroids.data() + std::size_t(c) * std::size_t(dims), dims);
    if (dd < bd) {
      bd = dd;
      best = c;
    }
  }
  return best;
}

// Serial reference: exact same arithmetic on the full dataset.
std::vector<double> kmeans_serial(const Dataset& d, int k, int iters) {
  std::vector<double> centroids = initial_centroids(d, k);
  for (int it = 0; it < iters; ++it) {
    std::vector<double> sums(std::size_t(k) * std::size_t(d.dims), 0.0);
    std::vector<double> counts(std::size_t(k), 0.0);
    for (std::size_t i = 0; i < d.count(); ++i) {
      int c = nearest(d.point(i), centroids, k, d.dims);
      for (int j = 0; j < d.dims; ++j) {
        sums[std::size_t(c) * std::size_t(d.dims) + std::size_t(j)] += d.point(i)[j];
      }
      counts[std::size_t(c)] += 1.0;
    }
    for (int c = 0; c < k; ++c) {
      if (counts[std::size_t(c)] == 0.0) continue;
      for (int j = 0; j < d.dims; ++j) {
        centroids[std::size_t(c) * std::size_t(d.dims) + std::size_t(j)] =
            sums[std::size_t(c) * std::size_t(d.dims) + std::size_t(j)] /
            counts[std::size_t(c)];
      }
    }
  }
  return centroids;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  const int ranks = int(flags.get_int("ranks", 4));
  const std::size_t points = std::size_t(flags.get_int("points", 8000));
  const int k = int(flags.get_int("k", 8));
  const int dims = int(flags.get_int("dims", 4));
  const int iters = int(flags.get_int("iters", 12));
  flags.reject_unread();

  Dataset full = make_dataset(points, dims, k, 0xFACADE);
  std::vector<double> expected = kmeans_serial(full, k, iters);
  std::vector<double> got;  // from the lowest rank this process hosts

  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    ctx.run([&] {
      const int me = ctx.rank(), p = ctx.size();
      // Shard: rank r owns points [r*chunk, ...).
      const std::size_t chunk = (full.count() + std::size_t(p) - 1) / std::size_t(p);
      const std::size_t lo = std::min(full.count(), std::size_t(me) * chunk);
      const std::size_t hi = std::min(full.count(), lo + chunk);

      std::vector<double> centroids = initial_centroids(full, k);
      const std::size_t kd = std::size_t(k) * std::size_t(dims);

      for (int it = 0; it < iters; ++it) {
        // Local assignment + partial sums, task-parallel within the rank.
        std::vector<double> local(kd + std::size_t(k), 0.0);  // sums ++ counts
        std::mutex merge_mu;
        hc::parallel_for(lo, hi, 512, [&](std::size_t i) {
          // parallel_for gives each index once; accumulate privately per
          // call block would be better, but contention here is tiny.
          int c = nearest(full.point(i), centroids, k, dims);
          std::lock_guard<std::mutex> lk(merge_mu);
          for (int j = 0; j < dims; ++j) {
            local[std::size_t(c) * std::size_t(dims) + std::size_t(j)] +=
                full.point(i)[j];
          }
          local[kd + std::size_t(c)] += 1.0;
        });

        // One allreduce combines sums and counts across every rank.
        std::vector<double> global(local.size(), 0.0);
        ctx.allreduce(local.data(), global.data(), local.size(),
                      hcmpi::Datatype::kDouble, hcmpi::Op::kSum);

        double shift = 0.0;
        for (int c = 0; c < k; ++c) {
          double n = global[kd + std::size_t(c)];
          if (n == 0.0) continue;
          for (int j = 0; j < dims; ++j) {
            std::size_t idx = std::size_t(c) * std::size_t(dims) + std::size_t(j);
            double updated = global[idx] / n;
            shift = std::max(shift, std::abs(updated - centroids[idx]));
            centroids[idx] = updated;
          }
        }

        // Global convergence check through an hcmpi accumulator.
        hcmpi::HcmpiAccum<double> conv(ctx, hc::ReduceOp::kMax);
        auto* reg = conv.register_task();
        conv.accum_next(reg, shift);
        double global_shift = conv.accum_get(reg);
        conv.drop(reg);
        if (global_shift < 1e-12) break;
      }
      if (me == ctx.user_comm().world().local_lo()) got = centroids;
    });
  });

  double max_err = got.size() == expected.size() ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < got.size() && i < expected.size(); ++i) {
    max_err = std::max(max_err, std::abs(expected[i] - got[i]));
  }
  std::printf("kmeans_hcmpi: ranks=%d points=%zu k=%d dims=%d max|err|=%.2e -> %s\n",
              ranks, points, k, dims, max_err,
              max_err < 1e-9 ? "MATCH" : "MISMATCH");
  return max_err < 1e-9 ? 0 : 1;
}
