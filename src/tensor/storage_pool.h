#ifndef ARMNET_TENSOR_STORAGE_POOL_H_
#define ARMNET_TENSOR_STORAGE_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

// Pooled tensor storage (DESIGN.md §9).
//
// Every Tensor allocation normally hits the global allocator with a fresh
// std::vector<float>. Steady-state inference allocates the same handful of
// buffer sizes over and over (one batch worth of intermediates per forward
// pass, all dead by the next batch), so a TensorPool recycles those buffers
// through size-bucketed free lists instead.
//
// Opt-in and scoped: nothing changes until a ScopedTensorPool installs a
// pool for the current thread. The pool object itself is thread-safe — the
// same TensorPool may be installed on many threads at once (e.g. serving
// workers) — while installation is per-thread, so one thread's scope never
// reroutes another thread's allocations.
//
// Lifetime: buffers may outlive the scope and the pool. The storage handle's
// deleter holds a shared_ptr to the pool's core; returning a buffer after
// the TensorPool is destroyed simply frees it.

namespace armnet {

namespace tensor_internal {

struct PoolCore;

// Storage for `n` floats. Served from the current thread's active pool when
// one is installed, otherwise from the heap. `zero` guarantees all n
// elements read 0.0f (recycled buffers hold stale data); pass false only
// when the caller overwrites every element.
std::shared_ptr<std::vector<float>> AllocateStorage(size_t n, bool zero);

}  // namespace tensor_internal

// Counters for one TensorPool. Monotonic except bytes_pooled (a gauge).
struct TensorPoolStats {
  int64_t hits = 0;        // acquisitions served from a free list
  int64_t misses = 0;      // acquisitions that fell through to the heap
  int64_t returns = 0;     // buffers recycled back into a free list
  int64_t dropped = 0;     // returns freed instead (pool closed/bucket full)
  int64_t bytes_served = 0;  // cumulative bytes handed out (hits + misses)
  int64_t bytes_pooled = 0;  // bytes currently sitting in free lists
};

// A size-bucketed buffer recycler. Buckets are power-of-two float counts;
// each holds up to a fixed number of idle buffers (excess returns are
// freed). All methods are thread-safe.
class TensorPool {
 public:
  TensorPool();
  // Frees all idle buffers and closes the core: storage still alive in
  // escaped Tensors stays valid and is heap-freed on its final release.
  ~TensorPool();

  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

  TensorPoolStats stats() const;

 private:
  friend class ScopedTensorPool;

  std::shared_ptr<tensor_internal::PoolCore> core_;
};

// RAII: routes the current thread's Tensor allocations through `pool` for
// the guard's lifetime. Scopes nest (inner pool wins; the outer one is
// restored on exit). The referenced TensorPool must outlive the scope.
class ScopedTensorPool {
 public:
  explicit ScopedTensorPool(TensorPool& pool);
  ~ScopedTensorPool();

  ScopedTensorPool(const ScopedTensorPool&) = delete;
  ScopedTensorPool& operator=(const ScopedTensorPool&) = delete;

 private:
  std::shared_ptr<tensor_internal::PoolCore> prev_;
};

}  // namespace armnet

#endif  // ARMNET_TENSOR_STORAGE_POOL_H_
