// Data-Driven Futures (DDFs) and Data-Driven Tasks (DDTs) — paper §II-A and
// Taşırlar & Sarkar, ICPP'11.
//
// A DDF is a dynamic-single-assignment container: exactly one put(); get()
// before the put is a program error (we throw). Tasks declare dependences
// with async_await (AND list: runs when *all* DDFs are put) or
// async_await_any (OR list: runs when *any* is put; a token bit guarantees
// exactly-once release — paper Fig. 12). HCMPI_Request is a DDF, which is
// what lets communication completions drive computation tasks.
//
// Wait lists are Treiber stacks closed by swapping in a READY sentinel on
// put, so registration and satisfaction need no locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/api.h"
#include "core/runtime.h"

namespace hc {

class SingleAssignmentViolation : public std::logic_error {
 public:
  SingleAssignmentViolation()
      : std::logic_error("hc: DDF_PUT on an already-put DDF") {}
};

class PrematureGet : public std::logic_error {
 public:
  PrematureGet() : std::logic_error("hc: DDF_GET before DDF_PUT") {}
};

class DdfBase {
 public:
  DdfBase() = default;
  DdfBase(const DdfBase&) = delete;
  DdfBase& operator=(const DdfBase&) = delete;
  virtual ~DdfBase();

  // seq_cst, as is the put's swap of the wait list: a thread that parks on
  // a put (hcmpi::RequestImpl) checks this after registering.
  bool satisfied() const {
    return head_.load(std::memory_order_seq_cst) == kReady;
  }

  // Attempts to register node (task.h); returns false if the DDF is already
  // satisfied (node not consumed, caller keeps ownership). Internal to the
  // await machinery, not part of the user API.
  bool subscribe(WaitNode* node);

 protected:
  // Two-phase publication so a racing double put is detected *before* the
  // payload slot is written: claim() CASes the value pointer (throws on a
  // second put), the caller then constructs the payload, and
  // release_waiters() makes it visible and fires DDTs.
  void claim(void* payload);
  void release_waiters();

  // Pooled reuse: back to the empty, unput state. The caller guarantees that
  // no waiter is registered and that no other thread can reach the DDF.
  void clear_state() {
    check::on_ddf_destroy(this);
    head_.store(nullptr, std::memory_order_relaxed);
    value_.store(nullptr, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uintptr_t kReadyBits = 1;
  static inline WaitNode* const kReady =
      reinterpret_cast<WaitNode*>(kReadyBits);

  std::atomic<WaitNode*> head_{nullptr};
  std::atomic<void*> value_{nullptr};
};

// One pending OR await (async_await_any): the task plus its dependence
// list. It registers on every DDF at once, with a heap node each, and the
// puts race on the token bit; the frame lives until its last node is
// released, which may be long after the task ran. An AND await needs none
// of this: its frame is the task's own AndFrame (task.h).
struct AwaitFrame {
  Task* task = nullptr;
  Runtime* rt = nullptr;
  std::vector<DdfBase*> deps;
  std::atomic<bool> fired{false};    // token bit (paper Fig. 12)
  std::atomic<int> refs{1};          // outstanding WaitNodes + in-flight uses

  void ref() { refs.fetch_add(1, std::memory_order_relaxed); }
  void unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  // Fires the frame at most once.
  void fire_once();
  // Cancels the frame: the task will never run (owning DDF destroyed first).
  void abandon();
};

// Typed DDF holding its value inline.
template <typename T>
class Ddf : public DdfBase {
 public:
  Ddf() = default;
  ~Ddf() override {
    if (satisfied()) std::launder(reinterpret_cast<T*>(storage_))->~T();
  }

  void put(T value) {
    claim(storage_);  // throws on double put, before storage is touched
    ::new (static_cast<void*>(storage_)) T(std::move(value));
    release_waiters();
  }

  // Non-blocking read; throws PrematureGet if the producer has not put yet
  // (the paper's "program error").
  const T& get() const {
    if (!satisfied()) throw PrematureGet();
    check::on_ddf_get(this);  // acquire the putter's happens-before history
    return *std::launder(reinterpret_cast<const T*>(storage_));
  }

 protected:
  // For pooled subclasses (hcmpi requests): destroys any value and returns
  // to the unput state, under clear_state()'s guarantees.
  void clear_for_reuse() {
    if (satisfied()) std::launder(reinterpret_cast<T*>(storage_))->~T();
    clear_state();
  }

 private:
  alignas(T) unsigned char storage_[sizeof(T)];
};

template <typename T>
using DdfPtr = std::shared_ptr<Ddf<T>>;

template <typename T>
DdfPtr<T> ddf_create() {
  return std::make_shared<Ddf<T>>();
}

namespace detail {
// Copies deps[0, n) into t's AndFrame and scans them: parks the frame on the
// first unsatisfied input, or schedules t on rt when every input is put.
void start_await(Runtime& rt, Task* t, DdfBase* const* deps, std::size_t n);
void register_await_any(AwaitFrame* frame);
}  // namespace detail

// Spawns fn as a DDT gated on ALL of deps[0, n) (the await clause). The
// pointers are copied into the task, so the caller's array may go at once.
// The task belongs to the current finish scope from the moment of this
// call, so an enclosing finish waits for it even while its inputs are
// missing.
template <typename F>
void async_await(DdfBase* const* deps, std::size_t n, F&& fn) {
  Runtime& rt = detail::require_runtime();
  FinishScope* fs = detail::require_finish();
  fs->inc();
  Task* t = rt.create_task(std::forward<F>(fn), fs);
  t->check_strand = check::on_spawn();
  detail::start_await(rt, t, deps, n);
}

template <typename F>
void async_await(std::initializer_list<DdfBase*> deps, F&& fn) {
  async_await(deps.begin(), deps.size(), std::forward<F>(fn));
}

template <typename F>
void async_await(const std::vector<DdfBase*>& deps, F&& fn) {
  async_await(deps.data(), deps.size(), std::forward<F>(fn));
}

// Spawns fn gated on ANY of deps (waitany / OR list).
template <typename F>
void async_await_any(std::vector<DdfBase*> deps, F&& fn) {
  Runtime& rt = detail::require_runtime();
  FinishScope* fs = detail::require_finish();
  fs->inc();
  auto* frame = new AwaitFrame;
  frame->task = rt.create_task(std::forward<F>(fn), fs);
  frame->task->check_strand = check::on_spawn();
  frame->rt = &rt;
  frame->deps = std::move(deps);
  detail::register_await_any(frame);
}

// Convenience overloads for shared_ptr handles.
template <typename F, typename... Ts>
void async_await(F&& fn, const DdfPtr<Ts>&... dep) {
  async_await({static_cast<DdfBase*>(dep.get())...}, std::forward<F>(fn));
}

// Dependence-list builder mirroring the paper's Fig. 12 API:
//
//   hc::DdfList ddl(hc::DdfList::Kind::kAnd);   // DDF_LIST_CREATE_AND()
//   ddl.add(x.get());                           // DDF_LIST_ADD(DDFX, ddl)
//   ddl.add(y.get());
//   ddl.async_await([...]{ ... });              // async await (ddl) {...}
//
// An AND list releases the task when every DDF is put; an OR list when any
// one is (exactly once, via the token bit).
class DdfList {
 public:
  enum class Kind { kAnd, kOr };

  explicit DdfList(Kind kind) : kind_(kind) {}

  void add(DdfBase* d) { deps_.push_back(d); }
  std::size_t size() const { return deps_.size(); }
  Kind kind() const { return kind_; }

  // Spawns fn gated on the list. The list is left as it was: it may be
  // awaited again, or extended first.
  template <typename F>
  void async_await(F&& fn) {
    if (kind_ == Kind::kAnd) {
      hc::async_await(deps_.data(), deps_.size(), std::forward<F>(fn));
    } else {
      hc::async_await_any(deps_, std::forward<F>(fn));
    }
  }

 private:
  Kind kind_;
  std::vector<DdfBase*> deps_;
};

// async_future: spawn fn and return a DDF holding its result — the
// future-flavored composition of async + DDF_PUT.
template <typename F>
auto async_future(F&& fn) -> DdfPtr<std::invoke_result_t<F>> {
  using T = std::invoke_result_t<F>;
  auto d = ddf_create<T>();
  async([d, fn = std::forward<F>(fn)]() mutable { d->put(fn()); });
  return d;
}

}  // namespace hc
