// HCMPI collectives (paper §II-C): the computation task builds the smpi step
// script and prescribes it as one communication task; the communication
// worker steps it between its point-to-point polls. Collectives execute in
// FIFO order per rank.
#include "hcmpi/context.h"

namespace hcmpi {

RequestHandle Context::submit_collective(smpi::CollScript script) {
  CommTask* t = allocate_task();
  t->kind = CommKind::kCollective;
  t->script = std::make_unique<smpi::CollScript>(std::move(script));
  t->finish = nullptr;
  RequestHandle req(&t->request);
  // Linked like p2p requests so a deadlined finalize barrier is cancellable
  // (Space::finalize timeout; see the kCancel path).
  req->task.store(t, std::memory_order_release);
  req->task_gen.store(t->gen.load(std::memory_order_acquire),
                      std::memory_order_release);
  submit(t);
  return req;
}

void Context::wait_collective(smpi::CollScript script) {
  // A blocking collective issued on the communication worker would block
  // the only thread able to execute it.
  hc::check::on_blocking_call("blocking collective");
  // Block without helping: executing arbitrary stolen tasks here could run
  // another collective call and scramble the per-rank collective order.
  block_until(submit_collective(std::move(script)));
}

RequestHandle Context::submit_nb_barrier() {
  return submit_collective(sys_comm_.barrier_script());
}

RequestHandle Context::submit_nb_allreduce(const void* in, void* out,
                                           std::size_t count, Datatype dt,
                                           Op op) {
  return submit_collective(sys_comm_.allreduce_script(in, out, count, dt, op));
}

void Context::barrier() { wait_collective(comm_.barrier_script()); }

void Context::bcast(void* buf, std::size_t bytes, int root) {
  wait_collective(comm_.bcast_script(buf, bytes, root));
}

void Context::reduce(const void* in, void* out, std::size_t count, Datatype t,
                     Op op, int root) {
  wait_collective(comm_.reduce_script(in, out, count, t, op, root));
}

void Context::allreduce(const void* in, void* out, std::size_t count,
                        Datatype t, Op op) {
  wait_collective(comm_.allreduce_script(in, out, count, t, op));
}

void Context::scan(const void* in, void* out, std::size_t count, Datatype t,
                   Op op) {
  wait_collective(comm_.scan_script(in, out, count, t, op));
}

void Context::gather(const void* send, std::size_t bytes_per_rank, void* recv,
                     int root) {
  wait_collective(comm_.gather_script(send, bytes_per_rank, recv, root));
}

void Context::scatter(const void* send, std::size_t bytes_per_rank,
                      void* recv, int root) {
  wait_collective(comm_.scatter_script(send, bytes_per_rank, recv, root));
}

}  // namespace hcmpi
