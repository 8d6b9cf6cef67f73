#include "tensor/storage.h"

#include <list>
#include <unordered_map>
#include <utility>

namespace cppflare::tensor::storage {

namespace {

/// Set when this thread's cache has been destroyed (thread exit); tensors
/// that die later, e.g. in static destructors, free their buffers directly.
thread_local bool tls_cache_gone = false;

class Cache {
 public:
  ~Cache() { tls_cache_gone = true; }

  std::vector<float> take(std::size_t capacity) {
    const auto it = by_capacity_.find(capacity);
    if (it == by_capacity_.end() || it->second.empty()) return {};
    // The most recently released buffer of this capacity: warmest in cache.
    const auto node = it->second.back();
    it->second.pop_back();
    std::vector<float> out = std::move(*node);
    lru_.erase(node);
    bytes_ -= capacity * sizeof(float);
    return out;
  }

  void put(std::vector<float>&& buffer) {
    const std::size_t capacity = buffer.capacity();
    lru_.push_front(std::move(buffer));
    by_capacity_[capacity].push_back(lru_.begin());
    bytes_ += capacity * sizeof(float);
    while (bytes_ > kStorageCacheBytes) evict_oldest();
  }

  std::size_t bytes() const { return bytes_; }

 private:
  void evict_oldest() {
    const auto node = std::prev(lru_.end());
    const std::size_t capacity = node->capacity();
    // The globally oldest buffer is also the oldest of its capacity.
    auto& bucket = by_capacity_[capacity];
    bucket.erase(bucket.begin());
    lru_.erase(node);
    bytes_ -= capacity * sizeof(float);
  }

  std::list<std::vector<float>> lru_;  // front = most recently released
  std::unordered_map<std::size_t, std::vector<std::list<std::vector<float>>::iterator>>
      by_capacity_;  // per capacity, oldest first
  std::size_t bytes_ = 0;
};

Cache& cache() {
  thread_local Cache c;
  return c;
}

/// A cached buffer of capacity n, or an empty vector.
std::vector<float> take(std::size_t n) {
  if (n < kStorageMinFloats || tls_cache_gone) return {};
  return cache().take(n);
}

}  // namespace

std::vector<float> acquire(std::size_t n) {
  std::vector<float> out = take(n);
  out.assign(n, 0.0f);
  return out;
}

std::vector<float> acquire_for_overwrite(std::size_t n) {
  // A released buffer keeps its size, so a reused one of the same shape
  // resizes in place; only a shorter one zero-fills its tail.
  std::vector<float> out = take(n);
  out.resize(n);
  return out;
}

void release(std::vector<float>& buffer) {
  const std::size_t capacity = buffer.capacity();
  if (capacity < kStorageMinFloats || tls_cache_gone ||
      capacity * sizeof(float) > kStorageCacheBytes) {
    std::vector<float>().swap(buffer);
    return;
  }
  cache().put(std::move(buffer));
  buffer = {};
}

std::size_t cached_bytes() { return tls_cache_gone ? 0 : cache().bytes(); }

}  // namespace cppflare::tensor::storage
