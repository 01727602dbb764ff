// Intrusive reference-counted handle. T counts its own references through
// ref() and unref(), and decides in unref() what the last release does —
// for the pooled request types, return the object to its pool rather than
// free it, so handing out a handle allocates nothing.
#pragma once

#include <cstddef>
#include <utility>

namespace support {

template <typename T>
class RefPtr {
 public:
  RefPtr() = default;
  RefPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  // Takes a new reference on p.
  explicit RefPtr(T* p) : p_(p) {
    if (p_ != nullptr) p_->ref();
  }
  RefPtr(const RefPtr& o) : RefPtr(o.p_) {}
  RefPtr(RefPtr&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  RefPtr& operator=(RefPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~RefPtr() {
    if (p_ != nullptr) p_->unref();
  }

  void reset() { RefPtr().swap(*this); }
  void swap(RefPtr& o) noexcept { std::swap(p_, o.p_); }

  T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const RefPtr& a, const RefPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator==(const RefPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  T* p_ = nullptr;
};

}  // namespace support
