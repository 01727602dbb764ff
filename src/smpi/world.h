// World: the process group. Owns one Endpoint per rank and launches rank
// threads. Replaces mpirun + MPI_Init for this in-process substrate.
//
// With --transport=socket (or HCMPI_TRANSPORT=socket) the World additionally
// owns the process's view of the socket mesh (net::Fabric, DESIGN.md §9):
//
//   * launched (under hcmpi_launch): this process hosts the contiguous rank
//     block [local_lo, local_hi) and one Fabric connects it to its sibling
//     processes. Delivery between co-located ranks stays the direct
//     shared-memory endpoint call; everything else is framed onto the wire.
//   * loopback (no launch env): every rank still runs in this process but
//     gets its OWN Fabric, so all cross-rank traffic crosses real sockets —
//     the configuration tests, TSan and the bench harness use.
//
// Either way World::run only spawns threads for the locally hosted ranks,
// and teardown ends with a goodbye exchange that propagates a remote rank
// failure as a std::runtime_error on every surviving process.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/frame.h"
#include "smpi/endpoint.h"
#include "smpi/types.h"

namespace smpi {

class Comm;

class World {
 public:
  explicit World(int nprocs, ThreadLevel level = ThreadLevel::kMultiple);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return int(endpoints_.size()); }
  ThreadLevel thread_level() const { return level_; }
  Endpoint& endpoint(int rank) { return *endpoints_[std::size_t(rank)]; }

  // The contiguous block of world ranks hosted by this process. Equals
  // [0, size()) except under hcmpi_launch, where each process runs its own
  // slice. Collectives in tests must count arrivals against local_size().
  int local_lo() const;
  int local_hi() const;
  int local_size() const { return local_hi() - local_lo(); }
  bool is_local(int rank) const {
    return rank >= local_lo() && rank < local_hi();
  }
  // True when the job spans more than one OS process.
  bool multiproc() const;

  // Wire-level delivery from world rank src to world rank dst, exactly
  // once. Local destinations take the direct endpoint path, where an armed
  // fault plane can only make the message late (fault::cross_in_memory);
  // remote destinations are framed onto the socket fabric, whose Reorderer
  // drops any duplicate the wire produced. Reports kRankDead /
  // kConnRefused for unreachable peers instead of delivering into the void.
  ErrorCode deliver(int src, int dst, Envelope&& env);

  // Allocates a fresh communicator context id (used by Comm::dup()).
  std::uint32_t next_context() {
    return context_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  // Atomically reserves `n` consecutive context ids (Comm::split needs one
  // per color, and a racing dup from another communicator must not land in
  // the middle of the block).
  std::uint32_t next_context_block(std::uint32_t n) {
    return context_counter_.fetch_add(n, std::memory_order_relaxed);
  }

  // Creates the rank's view of COMM_WORLD (context 0).
  Comm comm(int rank);

  // --- socket-transport plumbing (no-ops in thread mode) ---------------------

  // Graceful fabric teardown: flush, then exchange goodbyes (ours flagged
  // with `local_error`). Returns true when any peer process reported its
  // ranks failed. Idempotent; the destructor calls it as a backstop.
  bool net_shutdown(bool local_error);

  // Spawns one thread per locally hosted rank running body(comm), joins
  // them, tears down the fabric, and rethrows the first local exception —
  // or a runtime_error when a rank on another process failed. The standard
  // entry point:
  //
  //   smpi::World::run(4, [](smpi::Comm& comm) { ... });
  static void run(int nprocs, const std::function<void(Comm&)>& body,
                  ThreadLevel level = ThreadLevel::kMultiple);

 private:
  struct Net;

  void net_ingest(net::Frame&& f);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  ThreadLevel level_;
  std::atomic<std::uint32_t> context_counter_{1};
  // Declared last: destroyed first, so fabric IO threads can still deliver
  // into live endpoints while they wind down.
  std::unique_ptr<Net> net_;
};

}  // namespace smpi
