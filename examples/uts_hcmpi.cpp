// Distributed UTS on HCMPI — the paper's §IV-B application for real (not
// simulated): multiple ranks, each with computation workers and a dedicated
// communication worker, exploring one deterministic tree with two-level work
// stealing:
//
//   * intra-rank: a shared pool drained by self-rescheduling worker tasks;
//   * inter-rank: steal requests serviced by a *listener task* — an
//     async-await chain on an ANY_SOURCE receive, exactly the paper's
//     "the HCMPI runtime uses a listener task for external steal requests
//     while the computation workers are busy";
//   * termination: Safra's token-ring detection (the paper's reference code
//     uses token-passing termination), followed by a DONE ring.
//
// The total node count, summed over the wire, and the XOR of every node's
// digest, XORed over the wire, must equal the sequential traversal's — UTS's
// whole point — on every process of the job.
// Run: ./uts_hcmpi [--ranks=4] [--workers=2] [--gen_mx=7] [--chunk=16]
//      (or under tools/hcmpi_launch -n N, one rank block per process)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "apps/uts/uts.h"
#include "core/api.h"
#include "core/ddf.h"
#include "hcmpi/context.h"
#include "smpi/world.h"
#include "support/flags.h"
#include "support/observe.h"
#include "support/rng.h"

namespace {

constexpr int kStealTag = 1;   // thief -> victim: {thief rank}
constexpr int kReplyTag = 2;   // victim -> thief: node array (empty = fail)
constexpr int kTokenTag = 3;   // Safra token: {long q; char color}
constexpr int kDoneTag = 4;

struct SafraToken {
  long q = 0;
  std::uint8_t black = 0;
};

struct RankState {
  hcmpi::Context& ctx;
  uts::Params params;
  int chunk;

  std::mutex mu;
  std::vector<uts::Node> pool;

  std::atomic<std::uint64_t> explored{0};
  std::atomic<std::uint64_t> digest{0};  // XOR of uts::node_digest
  std::atomic<bool> done{false};
  std::atomic<bool> thief_outstanding{false};
  std::atomic<int> active_workers{0};

  // Safra's counters over the *work-bearing* messages only: c = loot
  // replies sent - received; black when loot arrived since the last token
  // pass. Steal requests and empty (fail) replies cannot reactivate an idle
  // rank, so excluding them keeps the probe sound while the steal-retry
  // spin would otherwise re-blacken every rank forever.
  std::atomic<long> msg_count{0};
  std::atomic<bool> black{false};
  std::atomic<bool> holding_token{false};
  SafraToken held_token{};

  // Outstanding internal receives, cancelled at shutdown. req_mu orders
  // arming one against announce_done: a receive armed after the cancels
  // would never complete, and the rank's finish would never drain.
  std::mutex req_mu;
  hcmpi::RequestHandle token_req;
  hcmpi::RequestHandle done_req;
  hcmpi::RequestHandle thief_reply_req;
  SafraToken token_buf{};
  std::uint8_t done_buf = 0;
  std::vector<uts::Node> reply_buf;
  // Outbound buffers: an isend's payload must stay live until the
  // communication worker issues it (the standard MPI rule). Each message
  // kind has at most one in flight per rank, so one slot each suffices.
  int steal_msg_out = 0;
  SafraToken token_out{};
  std::uint8_t done_out = 1;
  std::vector<uts::Node> loot_out;
  support::Xoshiro256 rng;

  RankState(hcmpi::Context& c, const uts::Params& p, int ch)
      : ctx(c), params(p), chunk(ch),
        rng(0xBADD1Eull * std::uint64_t(c.rank() + 1)) {}

  bool idle() {
    std::lock_guard<std::mutex> lk(mu);
    return pool.empty() && !thief_outstanding.load() &&
           active_workers.load() == 0;
  }
};

void worker_loop(RankState& st);
void install_listener(RankState& st);
void arm_token_handler(RankState& st);
void maybe_forward_token(RankState& st);

// --- inter-rank stealing ------------------------------------------------------

void serve_steal(RankState& st, int thief) {
  // loot_out persists in RankState: at most one reply is in flight because
  // the next request is only received after this listener re-arms, and the
  // eager substrate has copied the payload by the time that request's
  // reply is built (the communication worker serializes both).
  st.loot_out.clear();
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (int(st.pool.size()) > st.chunk) {
      st.loot_out.assign(st.pool.begin(), st.pool.begin() + st.chunk);
      st.pool.erase(st.pool.begin(), st.pool.begin() + st.chunk);
    }
  }
  // An empty reply is a failed steal (the paper's "empty message"). This
  // runs on the communication worker already: send synchronously.
  st.ctx.user_comm().send(st.loot_out.data(),
                          st.loot_out.size() * sizeof(uts::Node), thief,
                          kReplyTag);
  if (!st.loot_out.empty()) st.msg_count.fetch_add(1);
}

// The listener runs on the communication worker (paper §IV-B: "The HCMPI
// runtime uses a listener task for external steal requests while the
// computation workers are busy"): a poller that probes for requests and
// answers immediately — never starved behind computation tasks.
void install_listener(RankState& st) {
  st.ctx.set_poller([&st](smpi::Comm&) {
    smpi::Comm& user = st.ctx.user_comm();
    bool progress = false;
    smpi::Status probe;
    while (user.iprobe(smpi::kAnySource, kStealTag, &probe)) {
      int thief = 0;
      user.recv(&thief, sizeof thief, probe.source, kStealTag);
      serve_steal(st, thief);
      progress = true;
    }
    return progress;
  });
}

void try_global_steal(RankState& st) {
  if (st.done.load() || st.ctx.size() < 2) return;
  if (st.thief_outstanding.exchange(true)) return;  // one conversation
  int victim = int(st.rng.next_below(std::uint64_t(st.ctx.size() - 1)));
  if (victim >= st.ctx.rank()) ++victim;
  st.steal_msg_out = st.ctx.rank();
  st.reply_buf.resize(std::size_t(st.chunk));
  hcmpi::RequestHandle reply;
  {
    std::lock_guard<std::mutex> lk(st.req_mu);
    if (st.done.load()) {
      st.thief_outstanding.store(false);
      return;
    }
    reply = st.thief_reply_req = st.ctx.irecv(
        st.reply_buf.data(), st.reply_buf.size() * sizeof(uts::Node), victim,
        kReplyTag);
  }
  st.ctx.isend(&st.steal_msg_out, sizeof st.steal_msg_out, victim,
               kStealTag);
  hc::async_await({reply.get()}, [&st, reply] {
    if (reply->get().cancelled) return;
    std::size_t got = reply->get().count_bytes / sizeof(uts::Node);
    if (got > 0) {
      st.black.store(true);     // reactivated by in-flight work
      st.msg_count.fetch_sub(1);
      std::lock_guard<std::mutex> lk(st.mu);
      st.pool.insert(st.pool.end(), st.reply_buf.begin(),
                     st.reply_buf.begin() + long(got));
    }
    st.thief_outstanding.store(false);
    hc::async([&st] { worker_loop(st); });  // resume exploring
    maybe_forward_token(st);
  });
}

// --- computation workers ---------------------------------------------------------

void worker_loop(RankState& st) {
  if (st.done.load()) return;
  st.active_workers.fetch_add(1);
  std::vector<uts::Node> batch;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    std::size_t take = std::min<std::size_t>(st.pool.size(), 64);
    batch.assign(st.pool.end() - long(take), st.pool.end());
    st.pool.resize(st.pool.size() - take);
  }
  if (!batch.empty()) {
    std::uint64_t n = 0, digest = 0;
    std::vector<uts::Node> spawned;
    while (!batch.empty()) {
      uts::Node node = batch.back();
      batch.pop_back();
      ++n;
      digest ^= uts::node_digest(node);
      int k = uts::num_children(node, st.params);
      for (int i = 0; i < k; ++i) {
        spawned.push_back(uts::make_child(node, std::uint32_t(i)));
      }
    }
    st.explored.fetch_add(n);
    st.digest.fetch_xor(digest);
    if (!spawned.empty()) {
      std::lock_guard<std::mutex> lk(st.mu);
      st.pool.insert(st.pool.end(), spawned.begin(), spawned.end());
    }
    st.active_workers.fetch_sub(1);
    hc::async([&st] { worker_loop(st); });  // yield to listener DDTs
  } else {
    st.active_workers.fetch_sub(1);
    try_global_steal(st);
    maybe_forward_token(st);
  }
}

// --- Safra's termination ring -------------------------------------------------------

void send_token(RankState& st, SafraToken tok) {
  st.token_out = tok;  // persistent send buffer (one token in the ring)
  int next = (st.ctx.rank() + 1) % st.ctx.size();
  st.ctx.isend(&st.token_out, sizeof st.token_out, next, kTokenTag);
}

// Non-initiator pass: fold in this rank's counter and color (Safra). The
// initiator's counter is only applied at evaluation time, never at probe
// start — adding it in both places double-counts and the probe never ends.
void forward_token(RankState& st, SafraToken tok) {
  tok.q += st.msg_count.load();
  if (st.black.exchange(false)) tok.black = 1;
  send_token(st, tok);
}

void announce_done(RankState& st) {
  hcmpi::RequestHandle pending[3];
  {
    std::lock_guard<std::mutex> lk(st.req_mu);
    st.done.store(true);
    pending[0] = st.token_req;
    pending[1] = st.done_req;
    pending[2] = st.thief_reply_req;
  }
  if (st.ctx.rank() + 1 < st.ctx.size()) {
    st.ctx.isend(&st.done_out, sizeof st.done_out, st.ctx.rank() + 1,
                 kDoneTag);
  }
  // Tear down the persistent receives so the enclosing finish can drain.
  // A thief conversation can be mid-flight here: its victim may already
  // have shut its listener down, so the reply will never come — cancel it.
  // (cancel helps run tasks while it waits, so not under req_mu.)
  for (const hcmpi::RequestHandle& r : pending) {
    if (r) st.ctx.cancel(r);
  }
}

void maybe_forward_token(RankState& st) {
  if (st.done.load() || !st.holding_token.load()) return;
  if (!st.idle()) return;
  if (!st.holding_token.exchange(false)) return;
  SafraToken tok = st.held_token;
  if (st.ctx.rank() == 0) {
    // Probe returned: terminated iff the token and rank 0 are white and the
    // global message count balances.
    bool white = tok.black == 0 && !st.black.load();
    if (white && tok.q + st.msg_count.load() == 0) {
      announce_done(st);
      return;
    }
    st.black.store(false);
    send_token(st, SafraToken{});  // restart the probe, fresh and white
  } else {
    forward_token(st, tok);
  }
}

void arm_token_handler(RankState& st) {
  hcmpi::RequestHandle req;
  {
    std::lock_guard<std::mutex> lk(st.req_mu);
    if (st.done.load()) return;
    req = st.token_req =
        st.ctx.irecv(&st.token_buf, sizeof(SafraToken),
                     (st.ctx.rank() - 1 + st.ctx.size()) % st.ctx.size(),
                     kTokenTag);
  }
  hc::async_await({req.get()}, [&st, req] {
    if (req->get().cancelled || st.done.load()) return;
    st.held_token = st.token_buf;
    st.holding_token.store(true);
    arm_token_handler(st);
    maybe_forward_token(st);
    if (!st.done.load() && st.holding_token.load()) {
      // Busy: poll again once we go idle (cheap periodic check).
      hc::async([&st] { maybe_forward_token(st); });
    }
  });
}

void arm_done_handler(RankState& st) {
  if (st.ctx.rank() == 0) return;  // rank 0 announces, never receives DONE
  st.done_req = st.ctx.irecv(&st.done_buf, sizeof st.done_buf,
                             st.ctx.rank() - 1, kDoneTag);
  hcmpi::RequestHandle req = st.done_req;
  hc::async_await({req.get()}, [&st, req] {
    if (req->get().cancelled) return;
    announce_done(st);
  });
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags(argc, argv);
  support::Observe obs(flags);  // --trace=<file> / --metrics
  const int ranks = int(flags.get_int("ranks", 4));
  const int workers = int(flags.get_int("workers", 2));
  const int chunk = int(flags.get_int("chunk", 16));
  uts::Params params = uts::t1();
  params.gen_mx = int(flags.get_int("gen_mx", 7));
  params.root_seed = std::uint32_t(flags.get_int("seed", 10));
  flags.reject_unread();
  if (chunk < 1) {
    std::fprintf(stderr, "uts_hcmpi: --chunk must be at least 1\n");
    return 2;
  }

  uts::CountResult seq = uts::count_sequential(params);

  // Filled for the ranks this process hosts; the total comes over the wire.
  std::vector<std::uint64_t> explored_per_rank(std::size_t(ranks), 0);
  std::vector<char> hosted(std::size_t(ranks), 0);
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> digest{0};
  smpi::World::run(ranks, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = workers});
    RankState st(ctx, params, chunk);
    if (ctx.rank() == 0) st.pool.push_back(uts::make_root(params));
    install_listener(st);
    ctx.run([&] {
      hc::finish([&] {
        arm_token_handler(st);
        arm_done_handler(st);
        for (int w = 0; w < workers; ++w) {
          hc::async([&st] { worker_loop(st); });
        }
        if (ctx.rank() == 0) {
          // Rank 0 owns the token initially, marked black: the first idle
          // moment *starts* a probe rather than evaluating one — declaring
          // termination before a full white round would race in-flight
          // steal requests (Safra's invariant).
          st.held_token = SafraToken{0, 1};
          st.holding_token.store(true);
          hc::async([&st] { maybe_forward_token(st); });
        }
      });
      long mine = long(st.explored.load()), sum = 0;
      ctx.allreduce(&mine, &sum, 1, hcmpi::Datatype::kLong, hcmpi::Op::kSum);
      total.store(std::uint64_t(sum));
      long my_digest = long(st.digest.load()), all_digest = 0;
      ctx.allreduce(&my_digest, &all_digest, 1, hcmpi::Datatype::kLong,
                    hcmpi::Op::kBxor);
      digest.store(std::uint64_t(all_digest));
    });
    explored_per_rank[std::size_t(ctx.rank())] = st.explored.load();
    hosted[std::size_t(ctx.rank())] = 1;
  });

  const bool match = total.load() == seq.nodes && digest.load() == seq.digest;
  std::printf("uts_hcmpi: %s\n", params.name().c_str());
  std::printf("  sequential: %llu nodes, digest %016llx\n",
              (unsigned long long)seq.nodes, (unsigned long long)seq.digest);
  std::printf("  distributed: %llu nodes, digest %016llx over %d ranks x %d "
              "workers -> %s\n",
              (unsigned long long)total.load(),
              (unsigned long long)digest.load(), ranks, workers,
              match ? "MATCH" : "MISMATCH");
  for (int r = 0; r < ranks; ++r) {
    if (!hosted[std::size_t(r)]) continue;
    std::printf("    rank %d explored %llu\n", r,
                (unsigned long long)explored_per_rank[std::size_t(r)]);
  }
  return match ? 0 : 1;
}
