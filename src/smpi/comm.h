// Communicator: a rank's view of a process group. Provides the MPI-style
// API surface (Table I of the paper lists the HCMPI mirror of it).
//
// Usage: World::run(nprocs, [](Comm& comm){ ... }) gives each rank thread
// its own Comm bound to the world group.
#pragma once

#include <cstddef>
#include <vector>

#include "smpi/endpoint.h"
#include "smpi/request.h"
#include "smpi/types.h"

namespace smpi {

class World;
class Comm;

// One rank's half of a collective, as a straight-line script of steps over
// the communicator's private collective context: send a byte range, receive
// into a byte range, or receive and combine into a byte range. Comm's
// *_script builders emit scripts (doing any local copy at build time);
// step() advances one without ever blocking, which is how the hcmpi
// communication worker runs collectives next to its other work, and Comm's
// blocking collectives are a script's wait(). The script keeps a pointer
// to the Comm that built it, which must outlive it.
class CollScript {
 public:
  CollScript() = default;
  // Move-only: steps may point into the script's own accumulator.
  CollScript(CollScript&&) = default;
  CollScript& operator=(CollScript&&) = default;

  // Advances as far as possible without blocking; true once finished.
  bool step();
  // Steps to completion, blocking on each pending receive.
  void wait();
  // The receive the script is stopped on, or null.
  const Request& pending() const { return pending_; }

 private:
  friend class Comm;
  enum class Kind : std::uint8_t { kSend, kRecv, kRecvCombine };
  struct Step {
    Kind kind;
    int peer;
    int tag;
    void* buf;  // read by kSend, written by the receives
    std::size_t bytes;
  };

  explicit CollScript(Comm& comm) : comm_(&comm) {}
  // A script whose receive-and-combine steps fold count elements of t.
  CollScript(Comm& comm, std::size_t count, Datatype t, Op op)
      : comm_(&comm), scratch_(count * datatype_size(t)), dtype_(t), op_(op),
        count_(count) {}

  void send(const void* buf, std::size_t bytes, int peer, int tag) {
    steps_.push_back({Kind::kSend, peer, tag, const_cast<void*>(buf), bytes});
  }
  void recv(void* buf, std::size_t bytes, int peer, int tag) {
    steps_.push_back({Kind::kRecv, peer, tag, buf, bytes});
  }
  void recv_combine(void* acc, int peer, int tag) {
    steps_.push_back({Kind::kRecvCombine, peer, tag, acc, scratch_.size()});
  }
  // Shapes shared by the rooted and the all- collectives.
  void reduce_tree(void* acc, int root);
  void bcast_tree(void* buf, std::size_t bytes, int root);
  void gather_to(const void* send, std::size_t bytes_per_rank, void* recv,
                 int root);

  Comm* comm_ = nullptr;
  std::vector<Step> steps_;
  std::size_t pc_ = 0;
  Request pending_;
  // acc_ is a non-root reduce's accumulator; a kRecvCombine step lands its
  // message in scratch_, then buf = op(buf, scratch_) over count_ elements.
  std::vector<std::uint8_t> acc_, scratch_;
  Datatype dtype_ = Datatype::kByte;
  Op op_ = Op::kSum;
  std::size_t count_ = 0;
};

class Comm {
 public:
  Comm(World& world, int rank, std::uint32_t context)
      : world_(&world), rank_(rank), context_(context) {}

  // Sub-communicator over a subset of world ranks; `rank` is the position
  // of this process inside `group`.
  Comm(World& world, int rank, std::uint32_t context,
       std::shared_ptr<const std::vector<int>> group)
      : world_(&world), rank_(rank), context_(context),
        group_(std::move(group)) {}

  int rank() const { return rank_; }
  int size() const;
  // Members of this communicator hosted by THIS process — == size() except
  // under hcmpi_launch. Tests counting per-rank side effects in captured
  // state must count against this, not size().
  int local_size() const;
  World& world() const { return *world_; }
  std::uint32_t context() const { return context_; }
  // This rank's endpoint: its doorbell rings on every delivery here.
  Endpoint& local_endpoint() const { return endpoint(rank_); }

  // Duplicates the communicator into a fresh context: messages on the dup
  // can never match messages on the parent. Collective: all ranks must call
  // it in the same order.
  Comm dup();

  // MPI_Comm_split: ranks with the same color land in one sub-communicator,
  // ordered by (key, old rank). Collective over this communicator. A
  // negative color (MPI_UNDEFINED) yields a null communicator (is_null()).
  Comm split(int color, int key);

  bool is_null() const { return rank_ < 0; }

  // MPI_Sendrecv: simultaneous send and receive (deadlock-free even in
  // rendezvous implementations; trivially so in this eager substrate).
  void sendrecv(const void* sendbuf, std::size_t sendbytes, int dest,
                int sendtag, void* recvbuf, std::size_t recvcap, int source,
                int recvtag, Status* st = nullptr);

  // --- point-to-point ---
  Request isend(const void* buf, std::size_t bytes, int dest, int tag);
  Request irecv(void* buf, std::size_t cap, int source, int tag);
  void send(const void* buf, std::size_t bytes, int dest, int tag);
  void recv(void* buf, std::size_t cap, int source, int tag,
            Status* st = nullptr);

  bool test(const Request& req, Status* st = nullptr);
  // testall: true iff all done; statuses filled for done entries.
  bool testall(const std::vector<Request>& reqs);
  // testany: index of a completed request or -1.
  int testany(const std::vector<Request>& reqs, Status* st = nullptr);
  void wait(const Request& req, Status* st = nullptr);
  void waitall(const std::vector<Request>& reqs);
  // Index of a completed request; -1 (MPI_UNDEFINED) when no entry is
  // active, i.e. the list is empty or all null.
  int waitany(const std::vector<Request>& reqs, Status* st = nullptr);
  // Cancels a pending receive; sends complete eagerly and cannot be
  // cancelled. Returns true if the request was cancelled.
  bool cancel(const Request& req);

  bool iprobe(int source, int tag, Status* st = nullptr);
  void probe(int source, int tag, Status* st = nullptr);

  // --- collectives (every rank of the group must participate) ---
  // Each is a step script (CollScript); the blocking calls wait on it.
  CollScript barrier_script();
  CollScript bcast_script(void* buf, std::size_t bytes, int root);
  CollScript reduce_script(const void* in, void* out, std::size_t count,
                           Datatype t, Op op, int root);
  CollScript allreduce_script(const void* in, void* out, std::size_t count,
                              Datatype t, Op op);
  CollScript scan_script(const void* in, void* out, std::size_t count,
                         Datatype t, Op op);
  CollScript scatter_script(const void* send, std::size_t bytes_per_rank,
                            void* recv, int root);
  CollScript gather_script(const void* send, std::size_t bytes_per_rank,
                           void* recv, int root);
  CollScript allgather_script(const void* send, std::size_t bytes_per_rank,
                              void* recv);
  CollScript alltoall_script(const void* send, std::size_t bytes_per_rank,
                             void* recv);

  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void reduce(const void* in, void* out, std::size_t count, Datatype t, Op op,
              int root);
  void allreduce(const void* in, void* out, std::size_t count, Datatype t,
                 Op op);
  void scan(const void* in, void* out, std::size_t count, Datatype t, Op op);
  void scatter(const void* send, std::size_t bytes_per_rank, void* recv,
               int root);
  void gather(const void* send, std::size_t bytes_per_rank, void* recv,
              int root);
  void allgather(const void* send, std::size_t bytes_per_rank, void* recv);
  void alltoall(const void* send, std::size_t bytes_per_rank, void* recv);

 private:
  Endpoint& endpoint(int rank) const;
  // Translates a rank local to this communicator into a world rank.
  int world_rank(int local) const {
    return group_ ? (*group_)[std::size_t(local)] : local;
  }
  std::uint32_t coll_context() const { return context_ | kCollectiveContextBit; }

  // Delivery through World::deliver, exactly once: with injection off
  // this is endpoint(dest).deliver() or a framed socket send; with
  // injection on a message may arrive late, and a fail-stopped peer is
  // reported as kRankDead instead of delivering into the void.
  ErrorCode wire_deliver(int dest, Envelope&& env);

  friend class CollScript;

  // Sends on the collective context; reports a fail-stopped end as
  // kRankDead rather than throwing.
  ErrorCode csend(const void* buf, std::size_t bytes, int dest, int tag);
  // Posts a receive on this rank's endpoint in `context`.
  Request post_recv(void* buf, std::size_t cap, int source, int tag,
                    std::uint32_t context);

  World* world_;
  int rank_;
  std::uint32_t context_;
  std::shared_ptr<const std::vector<int>> group_;  // null = whole world
};

}  // namespace smpi
