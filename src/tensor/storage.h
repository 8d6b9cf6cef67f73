// Recycled float storage for tensor data and gradient buffers (internal).
//
// A training step allocates the same set of buffer sizes every step: every
// activation and every gradient. Freed to malloc, the
// large ones go back to the kernel (unmapped or trimmed) and the next step
// faults them in again page by page. Instead, a TensorImpl hands its
// buffers to a per-thread cache when it dies, and the next allocation of
// the same capacity on that thread takes one back.
//
// The cache is bounded (kStorageCacheBytes per thread, least recently
// released evicted first) and only holds buffers of at least
// kStorageMinFloats; smaller ones are cheap for malloc and never leave its
// bins. A buffer released on another thread simply joins that thread's
// cache. Nothing here is shared between threads.
#pragma once

#include <cstddef>
#include <vector>

namespace cppflare::tensor::storage {

inline constexpr std::size_t kStorageMinFloats = 1024;
inline constexpr std::size_t kStorageCacheBytes = std::size_t{256} << 20;

/// A zero-filled buffer of n floats; reuses a cached buffer of capacity n
/// when this thread holds one.
std::vector<float> acquire(std::size_t n);

/// A buffer of n floats with unspecified contents (stale values of a reused
/// buffer, zeros of a fresh one); the caller writes every element before
/// anything reads it.
std::vector<float> acquire_for_overwrite(std::size_t n);

/// Empties `buffer`, keeping its allocation in this thread's cache when it
/// qualifies.
void release(std::vector<float>& buffer);

/// Bytes this thread's cache currently holds.
std::size_t cached_bytes();

}  // namespace cppflare::tensor::storage
