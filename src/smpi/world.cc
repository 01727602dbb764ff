#include "smpi/world.h"

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fault/fault.h"
#include "net/boot.h"
#include "net/fabric.h"
#include "smpi/comm.h"

namespace smpi {

namespace {

// Per-process World instance counter: distinguishes the UDS paths of Worlds
// created back-to-back in one process. Under hcmpi_launch every process
// creates its Worlds in the same order (SPMD), so the counters agree across
// the job and sibling fabrics rendezvous on the same paths.
std::atomic<int> g_job{0};

// Session directory for loopback fabrics when HCMPI_SESSION is not set: one
// mkdtemp per process, shared by all Worlds (the job counter disambiguates).
const std::string& default_session() {
  static const std::string s = [] {
    const char* t = std::getenv("TMPDIR");
    std::string d = (t != nullptr && *t != '\0') ? t : "/tmp";
    d += "/hcmpi.XXXXXX";
    std::vector<char> buf(d.begin(), d.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) return std::string("/tmp");
    return std::string(buf.data());
  }();
  return s;
}

net::FabricOptions base_options(const net::ProcEnv& env, int job) {
  net::FabricOptions o;
  o.session = env.session.empty() ? default_session() : env.session;
  o.job = job;
  o.heartbeat_ms = env.heartbeat_ms;
  o.death_timeout_ms = env.death_timeout_ms;
  o.connect_window_ms = env.connect_window_ms;
  o.rto_ms = env.rto_ms;
  o.sendq_cap = env.sendq_cap;
  o.shutdown_timeout_ms = env.shutdown_timeout_ms;
  return o;
}

}  // namespace

// The socket side of a World. Launched mode: one Fabric spanning all job
// processes (including rank-less ones — goodbye/error propagation must reach
// them too). Loopback mode: one Fabric per rank, proc id == rank id, all in
// this process.
struct World::Net {
  bool launched = false;
  int nprocs = 1;           // fabric mesh size
  int rpp = 1;              // ranks per process (launched)
  int local_lo = 0;
  int local_hi = 0;
  std::vector<std::unique_ptr<net::Fabric>> fabrics;
  std::atomic<bool> shut{false};
  bool remote_error = false;

  Net(World& w, int n) {
    const net::ProcEnv& env = net::proc_env();
    const int job = g_job.fetch_add(1, std::memory_order_relaxed);
    launched = env.launched;
    auto deliver = [&w](net::Frame&& f) { w.net_ingest(std::move(f)); };
    if (launched) {
      nprocs = env.nprocs;
      rpp = std::max(env.ranks_per_proc, (n + nprocs - 1) / nprocs);
      local_lo = std::min(n, env.proc * rpp);
      local_hi = std::min(n, local_lo + rpp);
      net::FabricOptions o = base_options(env, job);
      o.proc = env.proc;
      o.nprocs = nprocs;
      o.rank_base = local_lo;
      o.rank_count = local_hi - local_lo;
      fabrics.push_back(std::make_unique<net::Fabric>(o, deliver));
    } else {
      nprocs = n;
      rpp = 1;
      local_lo = 0;
      local_hi = n;
      fabrics.reserve(std::size_t(n));
      for (int r = 0; r < n; ++r) {
        net::FabricOptions o = base_options(env, job);
        o.proc = r;
        o.nprocs = n;
        o.rank_base = r;
        o.rank_count = 1;
        fabrics.push_back(std::make_unique<net::Fabric>(o, deliver));
      }
    }
  }

  int proc_of(int rank) const { return launched ? rank / rpp : rank; }
  net::Fabric& fabric_for(int src_rank) {
    return launched ? *fabrics[0] : *fabrics[std::size_t(src_rank)];
  }
  // Is (src -> dst) a same-process delivery (shared-memory fast path)?
  bool local(int src, int dst) const {
    return launched ? (dst >= local_lo && dst < local_hi) : dst == src;
  }
};

World::World(int nprocs) {
  endpoints_.reserve(std::size_t(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    endpoints_.push_back(std::make_unique<Endpoint>(r));
  }
  if (net::mode() == net::Mode::kSocket && nprocs > 1) {
    net_ = std::make_unique<Net>(*this, nprocs);
  }
}

World::~World() {
  net_shutdown(false);  // backstop; run() already did this on the main path
}

Comm World::comm(int rank) { return Comm(*this, rank, /*context=*/0); }

int World::local_lo() const { return net_ ? net_->local_lo : 0; }
int World::local_hi() const { return net_ ? net_->local_hi : size(); }
bool World::multiproc() const { return net_ && net_->launched; }

void World::net_ingest(net::Frame&& f) {
  net::ByteReader rd(f.payload);
  std::int32_t src_w, dst_w, source, tag;
  std::uint32_t context;
  std::uint64_t ts;
  if (!rd.i32(&src_w) || !rd.i32(&dst_w) || !rd.i32(&source) ||
      !rd.i32(&tag) || !rd.u32(&context) || !rd.u64(&ts)) {
    return;  // torn subheader — the framing layer already validated length
  }
  if (dst_w < 0 || dst_w >= size()) return;
  Envelope env;
  env.source = source;
  env.tag = tag;
  env.context = context;
  env.payload.assign(f.payload.data() + rd.off, f.payload.size() - rd.off);
  env.ts_inject = ts;
  endpoint(dst_w).deliver(std::move(env));
}

ErrorCode World::deliver(int src, int dst, Envelope&& env) {
  if (net_ && !net_->local(src, dst)) {
    // Remote: frame it onto the fabric. The fault plane hooks the fabric's
    // transmit point (real drops repaired by retransmission), so the only
    // checks here are fail-stop ones.
    if (fault::enabled() &&
        (fault::rank_dead(src) || fault::rank_dead(dst))) {
      return ErrorCode::kRankDead;
    }
    net::Frame f;
    f.kind = net::FrameKind::kSmpi;
    net::put_i32(f.payload, src);
    net::put_i32(f.payload, dst);
    net::put_i32(f.payload, env.source);
    net::put_i32(f.payload, env.tag);
    net::put_u32(f.payload, env.context);
    // Trace epochs differ across real processes; only loopback timestamps
    // are comparable end to end.
    net::put_u64(f.payload, net_->launched ? 0 : env.ts_inject);
    f.payload.insert(f.payload.end(), env.payload.data(),
                     env.payload.data() + env.payload.size());
    switch (net_->fabric_for(src).send(net_->proc_of(dst), f)) {
      case net::Fabric::SendResult::kOk:
        return ErrorCode::kOk;
      case net::Fabric::SendResult::kRefused:
        return ErrorCode::kConnRefused;
      case net::Fabric::SendResult::kWouldBlock:
        return ErrorCode::kWouldBlock;  // unreachable: send() parks
      case net::Fabric::SendResult::kPeerDead:
      case net::Fabric::SendResult::kClosed:
        return ErrorCode::kRankDead;
    }
    return ErrorCode::kRankDead;
  }

  // Local (thread mode, or co-located ranks in socket mode): the direct
  // endpoint call. An in-memory channel loses and duplicates nothing, so an
  // armed fault plane only makes the message late.
  if (fault::enabled() && !fault::cross_in_memory(src, dst)) {
    return ErrorCode::kRankDead;
  }
  endpoint(dst).deliver(std::move(env));
  return ErrorCode::kOk;
}

bool World::net_shutdown(bool local_error) {
  if (!net_) return false;
  bool expected = false;
  if (!net_->shut.compare_exchange_strong(expected, true)) {
    return net_->remote_error;
  }
  bool err = false;
  if (net_->fabrics.size() == 1) {
    err = net_->fabrics[0]->shutdown(local_error);
  } else {
    // Loopback fabrics must shut down CONCURRENTLY: each one's goodbye
    // phase waits on goodbyes from all the others.
    std::atomic<bool> any{false};
    std::vector<std::jthread> ts;
    ts.reserve(net_->fabrics.size());
    for (auto& f : net_->fabrics) {
      ts.emplace_back([&any, &f, local_error] {
        if (f->shutdown(local_error)) any.store(true);
      });
    }
    ts.clear();  // join
    err = any.load();
  }
  net_->remote_error = err;
  return err;
}

void World::run(int nprocs, const std::function<void(Comm&)>& body) {
  World world(nprocs);
  std::exception_ptr first_error;
  std::mutex err_mu;
  {
    std::vector<std::jthread> threads;
    threads.reserve(std::size_t(world.local_size()));
    for (int r = world.local_lo(); r < world.local_hi(); ++r) {
      threads.emplace_back([&world, &body, &first_error, &err_mu, r] {
        try {
          Comm comm = world.comm(r);
          body(comm);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }  // join
  bool local_failed;
  {
    std::lock_guard<std::mutex> lk(err_mu);
    local_failed = bool(first_error);
  }
  const bool remote_failed = world.net_shutdown(local_failed);
  if (first_error) std::rethrow_exception(first_error);
  if (remote_failed) {
    throw std::runtime_error("smpi: a rank on another process failed");
  }
}

}  // namespace smpi
