// Public Habanero-C style API: async, finish, async_at, parallel_for.
//
//   hc::Runtime rt({.num_workers = 4});
//   rt.launch([&] {
//     hc::finish([&] {
//       for (int i = 0; i < n; ++i) hc::async([=] { work(i); });
//     });
//   });
//
// `async` must run under a live finish scope (launch() provides the root
// scope). `finish` may nest arbitrarily and propagates the first exception
// thrown by any governed task after the scope drains (global quiescence, as
// in Habanero-Java).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/place.h"
#include "core/runtime.h"

namespace hc {

namespace detail {
inline Runtime& require_runtime() {
  Runtime* rt = Runtime::current_runtime();
  if (rt == nullptr) {
    throw std::logic_error("hc: API called outside Runtime::launch()");
  }
  return *rt;
}
inline FinishScope* require_finish() {
  FinishScope* fs = Runtime::current_finish();
  if (fs == nullptr) {
    throw std::logic_error("hc: async outside any finish scope");
  }
  return fs;
}
}  // namespace detail

// Spawns fn as a child task of the current finish scope.
template <typename F>
void async(F&& fn) {
  Runtime& rt = detail::require_runtime();
  FinishScope* fs = detail::require_finish();
  fs->inc();
  Task* t = rt.create_task(std::forward<F>(fn), fs);
  t->check_strand = check::on_spawn();
  rt.schedule(t);
}

// Spawns fn with affinity to `place` (HPT). The task lands in the place's
// queue and is picked up by workers whose leaf-to-root path contains it.
template <typename F>
void async_at(Place* place, F&& fn) {
  Runtime& rt = detail::require_runtime();
  FinishScope* fs = detail::require_finish();
  fs->inc();
  Task* t = rt.create_task(std::forward<F>(fn), fs);
  t->check_strand = check::on_spawn();
  place->push(t);
  rt.notify_work();
}

// Runs body, then waits until every task transitively spawned inside it has
// terminated. Rethrows the first captured task exception.
template <typename F>
void finish(F&& body) {
  Runtime& rt = detail::require_runtime();
  FinishScope* parent = Runtime::current_finish();
  FinishScope scope(rt, parent);
  Runtime::set_current_finish(&scope);
  try {
    body();
  } catch (...) {
    // HC semantics: finish waits for quiescence even on an exceptional exit.
    Runtime::set_current_finish(parent);
    scope.capture_exception(std::current_exception());
    scope.wait_and_rethrow();
    return;  // unreachable: wait_and_rethrow rethrows
  }
  Runtime::set_current_finish(parent);
  scope.wait_and_rethrow();
}

// Divide-and-conquer parallel loop over [begin, end): recursively splits
// until the span is <= grain, then runs body(i) sequentially. Equivalent to
// the paper's chunked `finish for { async IN(i) ... }` idiom (Fig. 2).
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  F&& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  struct Recur {
    static void go(std::size_t b, std::size_t e, std::size_t g, const F& f) {
      while (e - b > g) {
        std::size_t mid = b + (e - b) / 2;
        async([mid, e, g, &f] { go(mid, e, g, f); });
        e = mid;
      }
      for (std::size_t i = b; i < e; ++i) f(i);
    }
  };
  finish([&] { Recur::go(begin, end, grain, body); });
}

}  // namespace hc
