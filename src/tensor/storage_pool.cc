#include "tensor/storage_pool.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/sync.h"

namespace armnet {

namespace tensor_internal {

namespace {

// Idle buffers kept per size bucket; returns beyond this are freed so a
// burst of large intermediates cannot pin memory forever.
constexpr size_t kMaxIdlePerBucket = 64;

size_t RoundUpPow2(size_t n) {
  size_t b = 1;
  while (b < n) b <<= 1;
  return b;
}

}  // namespace

// Shared between the TensorPool handle, every scope that installs it, and
// the deleter of every storage block it has served. The mutex guards the
// free lists and the stats.
struct PoolCore {
  Mutex mu;
  bool closed ARMNET_GUARDED_BY(mu) = false;
  // bucket (pow2 float count) -> idle buffers whose capacity >= bucket.
  std::unordered_map<size_t, std::vector<std::unique_ptr<std::vector<float>>>>
      buckets ARMNET_GUARDED_BY(mu);
  TensorPoolStats stats ARMNET_GUARDED_BY(mu);
};

namespace {

// The innermost active pool for this thread; null means heap allocation.
thread_local std::shared_ptr<PoolCore> g_active_pool;

// Deleter for pooled storage: returns the buffer to its bucket, or frees it
// when the pool is gone/full. Holds the core alive so escaped tensors stay
// safe past the pool's destruction.
struct PoolReturn {
  std::shared_ptr<PoolCore> core;
  size_t bucket;

  void operator()(std::vector<float>* buf) const {
    {
      MutexLock lock(core->mu);
      auto& idle = core->buckets[bucket];
      if (!core->closed && idle.size() < kMaxIdlePerBucket) {
        idle.emplace_back(buf);
        core->stats.returns += 1;
        core->stats.bytes_pooled +=
            static_cast<int64_t>(bucket * sizeof(float));
        return;
      }
      core->stats.dropped += 1;
    }
    delete buf;
  }
};

}  // namespace

std::shared_ptr<std::vector<float>> AllocateStorage(size_t n, bool zero) {
  const std::shared_ptr<PoolCore>& core = g_active_pool;
  if (core == nullptr) {
    // No pool installed: plain heap storage, zero-filled by the vector.
    return std::make_shared<std::vector<float>>(n, 0.0f);
  }

  const size_t bucket = RoundUpPow2(std::max<size_t>(n, size_t{1}));
  std::unique_ptr<std::vector<float>> buf;
  {
    MutexLock lock(core->mu);
    auto it = core->buckets.find(bucket);
    if (it != core->buckets.end() && !it->second.empty()) {
      buf = std::move(it->second.back());
      it->second.pop_back();
      core->stats.hits += 1;
      core->stats.bytes_pooled -=
          static_cast<int64_t>(bucket * sizeof(float));
    } else {
      core->stats.misses += 1;
    }
    core->stats.bytes_served += static_cast<int64_t>(n * sizeof(float));
  }
  if (buf == nullptr) {
    buf = std::make_unique<std::vector<float>>();
    buf->reserve(bucket);
  }
  if (zero) {
    buf->assign(n, 0.0f);
  } else {
    // resize() value-initializes only the elements it appends; recycled
    // prefixes keep stale data, which the caller promised to overwrite.
    buf->resize(n);
  }
  return std::shared_ptr<std::vector<float>>(buf.release(),
                                             PoolReturn{core, bucket});
}

}  // namespace tensor_internal

TensorPool::TensorPool()
    : core_(std::make_shared<tensor_internal::PoolCore>()) {}

TensorPool::~TensorPool() {
  MutexLock lock(core_->mu);
  core_->closed = true;
  core_->buckets.clear();
  core_->stats.bytes_pooled = 0;
}

TensorPoolStats TensorPool::stats() const {
  MutexLock lock(core_->mu);
  return core_->stats;
}

ScopedTensorPool::ScopedTensorPool(TensorPool& pool)
    : prev_(std::move(tensor_internal::g_active_pool)) {
  ARMNET_DCHECK(pool.core_ != nullptr);
  tensor_internal::g_active_pool = pool.core_;
}

ScopedTensorPool::~ScopedTensorPool() {
  tensor_internal::g_active_pool = std::move(prev_);
}

}  // namespace armnet
