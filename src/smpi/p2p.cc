#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "fault/fault.h"
#include "prof/prof.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/trace.h"

namespace smpi {

ErrorCode Comm::wire_deliver(int dest, Envelope&& env) {
  // World::deliver picks the wire: direct endpoint call for co-located
  // ranks (late, never lost, when injection is armed), framed socket
  // transmission for remote ones.
  return world_->deliver(world_rank(rank_), world_rank(dest), std::move(env));
}

Request Comm::isend(const void* buf, std::size_t bytes, int dest, int tag) {
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("smpi: isend destination rank out of range");
  }
  Envelope env;
  env.source = rank_;
  env.tag = tag;
  env.context = context_;
  env.payload.assign(buf, bytes);
  prof::Probe p;
  if (p.telemetry()) [[unlikely]] env.ts_inject = support::trace::now_ns();
  ErrorCode wire = wire_deliver(dest, std::move(env));

  // Eager/buffered mode: the payload is out of the user buffer, so the send
  // completes now — with the wire's verdict in the status (kRankDead when
  // the peer fail-stopped; delivery errors are otherwise retried away).
  Status st;
  st.source = rank_;
  st.tag = tag;
  st.count_bytes = wire == ErrorCode::kOk ? bytes : 0;
  st.error = wire;
  return endpoint(rank_).completed_send(st);
}

Request Comm::irecv(void* buf, std::size_t cap, int source, int tag) {
  if (source != kAnySource && (source < 0 || source >= size())) {
    throw std::out_of_range("smpi: irecv source rank out of range");
  }
  return post_recv(buf, cap, source, tag, context_);
}

Request Comm::post_recv(void* buf, std::size_t cap, int source, int tag,
                        std::uint32_t context) {
  return endpoint(rank_).post_recv(buf, cap, source, tag, context);
}

void Comm::send(const void* buf, std::size_t bytes, int dest, int tag) {
  isend(buf, bytes, dest, tag);
}

void Comm::recv(void* buf, std::size_t cap, int source, int tag, Status* st) {
  Request req = irecv(buf, cap, source, tag);
  wait(req, st);
}

bool Comm::test(const Request& req, Status* st) {
  if (!req || !req->done()) return false;
  if (st != nullptr) *st = req->status;
  return true;
}

bool Comm::testall(const std::vector<Request>& reqs) {
  for (const Request& r : reqs) {
    if (r && !r->done()) return false;
  }
  return true;
}

int Comm::testany(const std::vector<Request>& reqs, Status* st) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] && reqs[i]->done()) {
      if (st != nullptr) *st = reqs[i]->status;
      return int(i);
    }
  }
  return -1;
}

void Comm::wait(const Request& req, Status* st) {
  if (req && !req->done()) {
    Endpoint& ep = req->owner != nullptr ? *req->owner : endpoint(rank_);
    ep.wait_request(req);
  }
  if (req && st != nullptr) *st = req->status;
}

void Comm::waitall(const std::vector<Request>& reqs) {
  for (const Request& r : reqs) wait(r);
}

int Comm::waitany(const std::vector<Request>& reqs, Status* st) {
  // All pending requests are receives posted on this rank's endpoint. With
  // no active (non-null) request the answer is -1, MPI_UNDEFINED.
  const int i = endpoint(rank_).wait_any(reqs);
  if (i >= 0 && st != nullptr) *st = reqs[std::size_t(i)]->status;
  return i;
}

bool Comm::cancel(const Request& req) {
  if (!req || req->kind != ReqKind::kRecv || req->done()) return false;
  Endpoint& ep = req->owner != nullptr ? *req->owner : endpoint(rank_);
  return ep.cancel_recv(req);
}

bool Comm::iprobe(int source, int tag, Status* st) {
  return endpoint(rank_).iprobe(source, tag, context_, st);
}

void Comm::probe(int source, int tag, Status* st) {
  endpoint(rank_).probe(source, tag, context_, st);
}

}  // namespace smpi
