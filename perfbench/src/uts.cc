// Workload `uts` (a probe of the traced pass, not gated; see README.md):
// distributed UTS over HCMPI on the thread transport, the scheme of
// examples/uts_hcmpi.cpp. Each rank drains a shared node pool with
// self-rescheduling worker tasks; an idle rank sends a steal request that
// the victim's listener poller (on its communication worker) answers with
// up to kChunk nodes; Safra's token ring detects termination. One round is
// one traversal of the whole forest.
//
// Inputs: a forest of kTrees T1-family geometric trees (b0=4, gen_mx=8)
// whose root seeds are drawn from --seed, keeping draws whose depth-4
// frontier predicts 210-290 k nodes per tree (geometric trees vary widely
// in size and shape by root; a forest of similar trees keeps every seed's
// round close to 1 M nodes and averages the shape out).
//
// Check: each round's node count and XOR digest of node states, gathered
// over the wire to rank 0, must equal the benchmark's own sequential
// traversal.
#include <algorithm>
#include <cstring>
#include <deque>
#include <mutex>

#include "apps/uts/uts.h"
#include "bench.h"
#include "smpi/world.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/spin.h"

namespace pb {

namespace {

constexpr int kChunk = 16;  // nodes per steal reply
constexpr int kBatch = 64;  // nodes a worker task expands before yielding
constexpr int kTrees = 4;   // roots of the forest one round traverses

std::uint64_t fold(const uts::Node& n) {
  std::uint64_t a = 0, b = 0;
  std::uint32_t c = 0;
  std::memcpy(&a, n.state.data(), 8);
  std::memcpy(&b, n.state.data() + 8, 8);
  std::memcpy(&c, n.state.data() + 16, 4);
  return a ^ (b * 31) ^ (std::uint64_t(c) << 17) ^ std::uint64_t(n.depth);
}

struct Digest {
  std::uint64_t nodes = 0;
  std::uint64_t xor_states = 0;
};

// The benchmark's own sequential traversal (explicit stack, no runtime).
Digest traverse(const uts::Params& p) {
  Digest d;
  std::vector<uts::Node> stack{uts::make_root(p)};
  while (!stack.empty()) {
    uts::Node n = stack.back();
    stack.pop_back();
    ++d.nodes;
    d.xor_states ^= fold(n);
    int k = uts::num_children(n, p);
    for (int i = 0; i < k; ++i) stack.push_back(uts::make_child(n, std::uint32_t(i)));
  }
  return d;
}

// Nodes at depth 4: the subtrees below them are independent, so this
// predicts the whole tree's size (each expects ~(4^5-1)/3 descendants).
std::uint64_t frontier4(const uts::Params& p) {
  std::vector<uts::Node> level{uts::make_root(p)};
  for (int d = 0; d < 4 && !level.empty(); ++d) {
    std::vector<uts::Node> next;
    for (const uts::Node& n : level) {
      int k = uts::num_children(n, p);
      for (int i = 0; i < k; ++i) next.push_back(uts::make_child(n, std::uint32_t(i)));
    }
    level.swap(next);
  }
  return level.size();
}

// The forest's trees: same shape parameters, different root seeds.
std::vector<uts::Params> choose_forest(std::uint64_t seed) {
  std::vector<uts::Params> trees;
  uts::Params p = uts::t1();
  p.gen_mx = 8;
  for (std::uint64_t i = 0; trees.size() < kTrees; ++i) {
    p.root_seed = std::uint32_t(support::SplitMix64::mix(seed * 7919 + i));
    std::uint64_t f = frontier4(p);
    if (f >= 620 && f <= 840) trees.push_back(p);
  }
  return trees;
}

struct SafraToken {
  long q = 0;
  std::uint8_t black = 0;
};

struct Shared {
  const uts::Params* params = nullptr;  // shape shared by every tree
  Digest ref;
  std::vector<uts::Node> roots;
  Timed timed;  // rank 0
};

// One rank's state for one round (the example's RankState).
struct Rank {
  hcmpi::Context& ctx;
  const uts::Params& params;
  const int tag_steal, tag_reply, tag_token, tag_done;
  const bool timed;
  Reservoir& steal_rtt_us;  // latency samples of both ranks

  // Workers take from the back (depth-first), steals from the front (the
  // shallowest nodes, the biggest loot); a deque keeps both O(1). A spin
  // lock, because the listener runs on the communication worker, which
  // must not sleep in the kernel behind a busy computation worker.
  support::SpinLock mu;
  std::deque<uts::Node> pool;

  std::atomic<std::uint64_t> explored{0};
  std::atomic<std::uint64_t> digest{0};
  std::atomic<bool> done{false};
  std::atomic<bool> thief_outstanding{false};
  std::atomic<int> active_workers{0};

  // Safra's counters over loot-bearing replies only (see the example).
  std::atomic<long> msg_count{0};
  std::atomic<bool> black{false};
  std::atomic<bool> holding_token{false};
  SafraToken held_token{};

  hcmpi::RequestHandle token_req, done_req, thief_reply_req;
  SafraToken token_buf{};
  std::uint8_t done_buf = 0;
  std::vector<uts::Node> reply_buf;
  int steal_msg_out = 0;
  SafraToken token_out{};
  std::uint8_t done_out = 1;
  std::vector<uts::Node> loot_out;
  std::uint64_t conversations = 0;

  Rank(hcmpi::Context& c, const uts::Params& p, int round, bool t, Reservoir& rtt)
      : ctx(c), params(p), tag_steal(100 + 4 * round), tag_reply(101 + 4 * round),
        tag_token(102 + 4 * round), tag_done(103 + 4 * round), timed(t),
        steal_rtt_us(rtt) {}

  bool idle() {
    std::lock_guard<support::SpinLock> lk(mu);
    return pool.empty() && !thief_outstanding.load() && active_workers.load() == 0;
  }
};

void worker_loop(Rank& st);
void maybe_forward_token(Rank& st);

void serve_steal(Rank& st, int thief) {
  st.loot_out.clear();
  {
    std::lock_guard<support::SpinLock> lk(st.mu);
    if (int(st.pool.size()) > kChunk) {
      st.loot_out.assign(st.pool.begin(), st.pool.begin() + kChunk);
      st.pool.erase(st.pool.begin(), st.pool.begin() + kChunk);
    }
  }
  st.ctx.user_comm().send(st.loot_out.data(), st.loot_out.size() * sizeof(uts::Node),
                          thief, st.tag_reply);
  if (!st.loot_out.empty()) st.msg_count.fetch_add(1);
}

// The listener runs on the communication worker as its poller, so steal
// requests are answered even while the computation worker is busy.
void install_listener(Rank& st) {
  st.ctx.set_poller([&st](smpi::Comm&) {
    smpi::Comm& user = st.ctx.user_comm();
    bool progress = false;
    smpi::Status probe;
    while (user.iprobe(smpi::kAnySource, st.tag_steal, &probe)) {
      trace::Scope span(trace::kStealServe, 0);
      int thief = 0;
      user.recv(&thief, sizeof thief, probe.source, st.tag_steal);
      serve_steal(st, thief);
      progress = true;
    }
    return progress;
  });
}

void try_global_steal(Rank& st) {
  if (st.done.load()) return;
  if (st.thief_outstanding.exchange(true)) return;  // one conversation
  const int victim = 1 - st.ctx.rank();
  const std::uint64_t op = ++st.conversations;
  st.steal_msg_out = st.ctx.rank();
  st.reply_buf.resize(std::size_t(kChunk));
  const std::uint64_t posted = now_ns();
  hcmpi::RequestHandle reply =
      irecv(st.ctx, st.reply_buf.data(), st.reply_buf.size() * sizeof(uts::Node),
            victim, st.tag_reply, op);
  st.thief_reply_req = reply;
  const std::uint64_t sent = now_ns();
  isend(st.ctx, &st.steal_msg_out, sizeof st.steal_msg_out, victim, st.tag_steal, op);
  await({reply.get()}, [&st, reply, posted, sent] {
    if (reply->get().cancelled) return;
    const std::uint64_t start = now_ns();
    if (st.timed) st.steal_rtt_us.add(double(start - sent) * 1e-3);
    trace::sample(trace::kRequest, double(start - posted));
    std::size_t got = reply->get().count_bytes / sizeof(uts::Node);
    if (got > 0) {
      st.black.store(true);
      st.msg_count.fetch_sub(1);
      std::lock_guard<support::SpinLock> lk(st.mu);
      st.pool.insert(st.pool.end(), st.reply_buf.begin(), st.reply_buf.begin() + long(got));
    }
    st.thief_outstanding.store(false);
    spawn([&st] { worker_loop(st); });
    maybe_forward_token(st);
  }, op);
}

void worker_loop(Rank& st) {
  if (st.done.load()) return;
  st.active_workers.fetch_add(1);
  std::vector<uts::Node> batch;
  {
    std::lock_guard<support::SpinLock> lk(st.mu);
    std::size_t take = std::min<std::size_t>(st.pool.size(), kBatch);
    batch.assign(st.pool.end() - long(take), st.pool.end());
    st.pool.resize(st.pool.size() - take);
  }
  if (!batch.empty()) {
    std::uint64_t n = 0, x = 0;
    std::vector<uts::Node> spawned;
    while (!batch.empty()) {
      uts::Node node = batch.back();
      batch.pop_back();
      ++n;
      x ^= fold(node);
      int k = uts::num_children(node, st.params);
      for (int i = 0; i < k; ++i) spawned.push_back(uts::make_child(node, std::uint32_t(i)));
    }
    st.explored.fetch_add(n);
    st.digest.fetch_xor(x);
    if (!spawned.empty()) {
      std::lock_guard<support::SpinLock> lk(st.mu);
      st.pool.insert(st.pool.end(), spawned.begin(), spawned.end());
    }
    st.active_workers.fetch_sub(1);
    spawn([&st] { worker_loop(st); });  // yield to listener DDTs
  } else {
    st.active_workers.fetch_sub(1);
    try_global_steal(st);
    maybe_forward_token(st);
  }
}

void send_token(Rank& st, SafraToken tok) {
  st.token_out = tok;
  isend(st.ctx, &st.token_out, sizeof st.token_out, 1 - st.ctx.rank(), st.tag_token);
}

void announce_done(Rank& st) {
  st.done.store(true);
  if (st.ctx.rank() == 0) {
    isend(st.ctx, &st.done_out, sizeof st.done_out, 1, st.tag_done);
  }
  if (st.token_req) st.ctx.cancel(st.token_req);
  if (st.done_req) st.ctx.cancel(st.done_req);
  if (st.thief_reply_req) st.ctx.cancel(st.thief_reply_req);
}

void maybe_forward_token(Rank& st) {
  if (st.done.load() || !st.holding_token.load()) return;
  if (!st.idle()) return;
  if (!st.holding_token.exchange(false)) return;
  SafraToken tok = st.held_token;
  if (st.ctx.rank() == 0) {
    bool white = tok.black == 0 && !st.black.load();
    if (white && tok.q + st.msg_count.load() == 0) {
      announce_done(st);
      return;
    }
    st.black.store(false);
    send_token(st, SafraToken{});
  } else {
    tok.q += st.msg_count.load();
    if (st.black.exchange(false)) tok.black = 1;
    send_token(st, tok);
  }
}

void arm_token_handler(Rank& st) {
  if (st.done.load()) return;
  st.token_req = irecv(st.ctx, &st.token_buf, sizeof(SafraToken), 1 - st.ctx.rank(),
                       st.tag_token);
  hcmpi::RequestHandle req = st.token_req;
  await({req.get()}, [&st, req] {
    if (req->get().cancelled || st.done.load()) return;
    st.held_token = st.token_buf;
    st.holding_token.store(true);
    arm_token_handler(st);
    maybe_forward_token(st);
    if (!st.done.load() && st.holding_token.load()) {
      spawn([&st] { maybe_forward_token(st); });
    }
  });
}

void arm_done_handler(Rank& st) {
  if (st.ctx.rank() == 0) return;
  st.done_req = irecv(st.ctx, &st.done_buf, sizeof st.done_buf, 0, st.tag_done);
  hcmpi::RequestHandle req = st.done_req;
  await({req.get()}, [&st, req] {
    if (req->get().cancelled) return;
    announce_done(st);
  });
}

// Receives whatever a finished round left behind (a steal request served
// after its thief cancelled, an empty reply), so no stale message stays in
// the unexpected queues.
void drain(Rank& st) {
  smpi::Comm& user = st.ctx.user_comm();
  smpi::Status probe;
  std::vector<std::uint8_t> sink(kChunk * sizeof(uts::Node));
  for (int tag : {st.tag_steal, st.tag_reply}) {
    while (user.iprobe(smpi::kAnySource, tag, &probe)) {
      user.recv(sink.data(), sink.size(), probe.source, tag);
    }
  }
}

void rank_body(smpi::Comm& comm, const Options& o, Shared& sh, Checks& checks,
               LayerCounters& counters) {
  hcmpi::Context ctx(comm, {.num_workers = kWorkersPerRank});
  pin_rank_threads(ctx);
  ctx.run([&] {
    Rounds rounds(ctx, o);
    bool timed = false;
    RoundClock clock;
    while (rounds.next(&timed)) {
      Rank st(ctx, *sh.params, rounds.index(), timed, sh.timed.latency_us);
      if (ctx.rank() == 0) st.pool.assign(sh.roots.begin(), sh.roots.end());
      install_listener(st);
      ctx.barrier();
      if (ctx.rank() == 0 && timed) clock.start();
      hc::finish([&] {
        arm_token_handler(st);
        arm_done_handler(st);
        spawn([&st] { worker_loop(st); });
        if (ctx.rank() == 0) {
          // Start holding a black token: the first idle moment starts a
          // probe rather than evaluating one (Safra's invariant).
          st.held_token = SafraToken{0, 1};
          st.holding_token.store(true);
          spawn([&st] { maybe_forward_token(st); });
        }
      });
      ctx.barrier();
      if (ctx.rank() == 0 && timed) clock.stop(sh.timed, double(sh.ref.nodes));
      ctx.clear_poller();
      ctx.barrier();
      drain(st);
      Digest mine{st.explored.load(), st.digest.load()};
      Digest all[kRanks];
      ctx.gather(&mine, sizeof mine, all, 0);
      if (ctx.rank() == 0) {
        Digest sum;
        for (const Digest& d : all) {
          sum.nodes += d.nodes;
          sum.xor_states ^= d.xor_states;
        }
        checks.expect(sum.nodes == sh.ref.nodes && sum.xor_states == sh.ref.xor_states,
                      "uts: node count or digest differs from the sequential traversal");
      }
    }
    counters = rounds.counters;
  });
}

}  // namespace

void run_uts(const Options& o, Checks& checks, Metrics& m) {
  const std::vector<uts::Params> trees = choose_forest(o.seed);
  Shared sh;
  sh.params = &trees[0];
  trace::set_timed(true);  // the sequential traversal is a span of its own
  const std::uint64_t t0 = now_ns();
  for (const uts::Params& p : trees) {
    sh.roots.push_back(uts::make_root(p));
    Digest d = traverse(p);
    sh.ref.nodes += d.nodes;
    sh.ref.xor_states ^= d.xor_states;
  }
  const std::uint64_t t1 = now_ns();
  trace::span(trace::kUtsSeq, t0, t1, 0);
  trace::set_timed(false);
  if (o.wrong_reference) sh.ref.xor_states ^= 1;
  m["info.forest_nodes"] = double(sh.ref.nodes);
  if (trace::enabled()) m["apps.uts_seq_nodes_per_s"] = double(sh.ref.nodes) / (double(t1 - t0) * 1e-9);

  LayerCounters counters[kRanks];
  auto& reg = support::MetricsRegistry::global();
  const std::uint64_t msgs0 = reg.counter_value("smpi.messages_delivered");
  smpi::World::run(kRanks, [&](smpi::Comm& comm) {
    rank_body(comm, o, sh, checks, counters[comm.rank()]);
  });
  sh.timed.report(m);
  if (trace::enabled()) {
    LayerCounters total;
    for (const auto& c : counters) total += c;
    report_layers(total, sh.timed.work, sh.timed.wall_s,
                  reg.counter_value("smpi.messages_delivered") - msgs0, m);
    std::vector<double> s = trace::samples(trace::kStealServe);
    if (!s.empty()) m["hcmpi.steal_serve_us.p50"] = quantile(s, 0.5) * 1e-3;
  }
}

}  // namespace pb
