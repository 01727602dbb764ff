// Collectives as step scripts over the point-to-point layer, in a private
// context so they can never match user traffic. Algorithms: dissemination
// barrier, binomial-tree bcast/reduce, reduce+bcast allreduce, chain scan,
// root-centric gather/scatter, gather+bcast allgather and all-pairs
// alltoall — the classic implementations the paper's MPI baselines rely on.
// Collectives are FIFO per rank and matching is FIFO per (source, tag,
// context), so one fixed tag per algorithm is unambiguous.
#include <cstring>

#include "smpi/comm.h"

namespace smpi {

namespace {
constexpr int kTagBarrier = 1000;  // +round
constexpr int kTagBcast = 2000;
constexpr int kTagReduce = 3000;
constexpr int kTagScan = 4000;
constexpr int kTagGather = 5000;
constexpr int kTagScatter = 6000;
constexpr int kTagAlltoall = 8000;

std::uint8_t* at(void* base, int rank, std::size_t bytes_per_rank) {
  return static_cast<std::uint8_t*>(base) + std::size_t(rank) * bytes_per_rank;
}
const std::uint8_t* at(const void* base, int rank,
                       std::size_t bytes_per_rank) {
  return static_cast<const std::uint8_t*>(base) +
         std::size_t(rank) * bytes_per_rank;
}
}  // namespace

ErrorCode Comm::csend(const void* buf, std::size_t bytes, int dest, int tag) {
  Envelope env;
  env.source = rank_;
  env.tag = tag;
  env.context = coll_context();
  env.payload.assign(buf, bytes);
  return wire_deliver(dest, std::move(env));
}

bool CollScript::step() {
  for (; pc_ < steps_.size(); ++pc_) {
    const Step& s = steps_[pc_];
    if (s.kind == Kind::kSend) {
      comm_->csend(s.buf, s.bytes, s.peer, s.tag);
      continue;
    }
    const bool combine = s.kind == Kind::kRecvCombine;
    if (!pending_) {
      pending_ = comm_->post_recv(combine ? scratch_.data() : s.buf, s.bytes,
                                  s.peer, s.tag, comm_->coll_context());
    }
    if (!pending_->done()) return false;
    pending_.reset();
    if (combine) apply_op(op_, dtype_, s.buf, scratch_.data(), count_);
  }
  return true;
}

void CollScript::wait() {
  while (!step()) comm_->wait(pending_);
}

// Binomial-tree combine toward root (valid for the commutative op set this
// substrate exposes): fold in each child's partial, then pass to the parent.
void CollScript::reduce_tree(void* acc, int root) {
  const int p = comm_->size();
  const int vr = (comm_->rank() - root + p) % p;
  for (int mask = 1; mask < p; mask <<= 1) {
    if (vr & mask) {
      send(acc, scratch_.size(), (vr - mask + root) % p, kTagReduce);
      return;
    }
    if (vr + mask < p) recv_combine(acc, (vr + mask + root) % p, kTagReduce);
  }
}

// Binomial-tree broadcast from root: receive from the parent, then forward
// to the children, largest subtree first. Masks below a rank's receive mask
// are clear in its virtual rank, so vr + mask < p is the only guard needed.
void CollScript::bcast_tree(void* buf, std::size_t bytes, int root) {
  const int p = comm_->size();
  const int vr = (comm_->rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      recv(buf, bytes, (vr - mask + root) % p, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vr + mask < p) send(buf, bytes, (vr + mask + root) % p, kTagBcast);
  }
}

void CollScript::gather_to(const void* send_buf, std::size_t bytes_per_rank,
                           void* recv_buf, int root) {
  const int me = comm_->rank();
  if (me != root) {
    send(send_buf, bytes_per_rank, root, kTagGather);
    return;
  }
  if (bytes_per_rank > 0) {
    std::memcpy(at(recv_buf, me, bytes_per_rank), send_buf, bytes_per_rank);
  }
  for (int r = 0; r < comm_->size(); ++r) {
    if (r != root) {
      recv(at(recv_buf, r, bytes_per_rank), bytes_per_rank, r, kTagGather);
    }
  }
}

CollScript Comm::barrier_script() {
  CollScript s(*this);
  const int p = size();
  for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
    s.send(nullptr, 0, (rank_ + dist) % p, kTagBarrier + k);
    s.recv(nullptr, 0, (rank_ - dist % p + p) % p, kTagBarrier + k);
  }
  return s;
}

CollScript Comm::bcast_script(void* buf, std::size_t bytes, int root) {
  CollScript s(*this);
  s.bcast_tree(buf, bytes, root);
  return s;
}

CollScript Comm::reduce_script(const void* in, void* out, std::size_t count,
                               Datatype t, Op op, int root) {
  CollScript s(*this, count, t, op);
  // The root folds straight into out; the others into a copy of in.
  void* acc = out;
  if (rank_ != root) {
    s.acc_.resize(s.scratch_.size());
    acc = s.acc_.data();
  }
  if (!s.scratch_.empty()) std::memmove(acc, in, s.scratch_.size());
  s.reduce_tree(acc, root);
  return s;
}

CollScript Comm::allreduce_script(const void* in, void* out,
                                  std::size_t count, Datatype t, Op op) {
  CollScript s(*this, count, t, op);
  if (!s.scratch_.empty()) std::memmove(out, in, s.scratch_.size());
  s.reduce_tree(out, /*root=*/0);
  s.bcast_tree(out, s.scratch_.size(), /*root=*/0);
  return s;
}

CollScript Comm::scan_script(const void* in, void* out, std::size_t count,
                             Datatype t, Op op) {
  // Inclusive chain scan: combine the prefix from rank-1, forward to rank+1.
  CollScript s(*this, count, t, op);
  if (!s.scratch_.empty()) std::memmove(out, in, s.scratch_.size());
  if (rank_ > 0) s.recv_combine(out, rank_ - 1, kTagScan);
  if (rank_ + 1 < size()) s.send(out, s.scratch_.size(), rank_ + 1, kTagScan);
  return s;
}

CollScript Comm::gather_script(const void* send, std::size_t bytes_per_rank,
                               void* recv, int root) {
  CollScript s(*this);
  s.gather_to(send, bytes_per_rank, recv, root);
  return s;
}

CollScript Comm::scatter_script(const void* send, std::size_t bytes_per_rank,
                                void* recv, int root) {
  CollScript s(*this);
  if (rank_ != root) {
    s.recv(recv, bytes_per_rank, root, kTagScatter);
    return s;
  }
  for (int r = 0; r < size(); ++r) {
    if (r != root) {
      s.send(at(send, r, bytes_per_rank), bytes_per_rank, r, kTagScatter);
    }
  }
  if (bytes_per_rank > 0) {
    std::memcpy(recv, at(send, root, bytes_per_rank), bytes_per_rank);
  }
  return s;
}

CollScript Comm::allgather_script(const void* send,
                                  std::size_t bytes_per_rank, void* recv) {
  CollScript s(*this);
  s.gather_to(send, bytes_per_rank, recv, /*root=*/0);
  s.bcast_tree(recv, bytes_per_rank * std::size_t(size()), /*root=*/0);
  return s;
}

CollScript Comm::alltoall_script(const void* send, std::size_t bytes_per_rank,
                                 void* recv) {
  // Every send is eager, so all of them go first; the source tells the
  // pairs apart, so a single tag suffices.
  CollScript s(*this);
  if (bytes_per_rank > 0) {
    std::memcpy(at(recv, rank_, bytes_per_rank),
                at(send, rank_, bytes_per_rank), bytes_per_rank);
  }
  for (int r = 0; r < size(); ++r) {
    if (r != rank_) {
      s.send(at(send, r, bytes_per_rank), bytes_per_rank, r, kTagAlltoall);
    }
  }
  for (int r = 0; r < size(); ++r) {
    if (r != rank_) {
      s.recv(at(recv, r, bytes_per_rank), bytes_per_rank, r, kTagAlltoall);
    }
  }
  return s;
}

void Comm::barrier() { barrier_script().wait(); }

void Comm::bcast(void* buf, std::size_t bytes, int root) {
  bcast_script(buf, bytes, root).wait();
}

void Comm::reduce(const void* in, void* out, std::size_t count, Datatype t,
                  Op op, int root) {
  reduce_script(in, out, count, t, op, root).wait();
}

void Comm::allreduce(const void* in, void* out, std::size_t count, Datatype t,
                     Op op) {
  allreduce_script(in, out, count, t, op).wait();
}

void Comm::scan(const void* in, void* out, std::size_t count, Datatype t,
                Op op) {
  scan_script(in, out, count, t, op).wait();
}

void Comm::gather(const void* send, std::size_t bytes_per_rank, void* recv,
                  int root) {
  gather_script(send, bytes_per_rank, recv, root).wait();
}

void Comm::scatter(const void* send, std::size_t bytes_per_rank, void* recv,
                   int root) {
  scatter_script(send, bytes_per_rank, recv, root).wait();
}

void Comm::allgather(const void* send, std::size_t bytes_per_rank,
                     void* recv) {
  allgather_script(send, bytes_per_rank, recv).wait();
}

void Comm::alltoall(const void* send, std::size_t bytes_per_rank,
                    void* recv) {
  alltoall_script(send, bytes_per_rank, recv).wait();
}

}  // namespace smpi
