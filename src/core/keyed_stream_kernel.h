// ChaCha20 block kernels behind core::KeyedStream (internal).
//
// Three kernels compute the same RFC 8439 block function: a portable
// scalar one, an AVX2 one (8 blocks per pass) and an AVX-512F one (16
// blocks per pass). KeyedStream picks one per process from CPUID
// (DESIGN.md "ChaCha20 dispatch"), and the privacy filters' bulk kernels
// (flare/privacy_kernels.h) run at the same ISA tier. This header exists so
// tests and benches can name a kernel and cross-check them. It is not a
// knob: nothing in the runtime selects a kernel by configuration.
#pragma once

#include <cstdint>

#include "core/keyed_stream.h"

namespace cppflare::core {

enum class KeyedStreamKernel : std::uint8_t { kScalar, kAvx2, kAvx512 };

inline constexpr KeyedStreamKernel kAllKeyedStreamKernels[] = {
    KeyedStreamKernel::kScalar, KeyedStreamKernel::kAvx2,
    KeyedStreamKernel::kAvx512};

/// True when this build and this CPU can run `kernel`.
bool keyed_stream_kernel_supported(KeyedStreamKernel kernel);

/// The kernel every default-constructed KeyedStream uses in this process:
/// the widest supported one.
KeyedStreamKernel keyed_stream_active_kernel();

/// "scalar", "avx2" or "avx512f".
const char* keyed_stream_kernel_name(KeyedStreamKernel kernel);

/// A stream bound to `kernel`, which must be supported.
KeyedStream keyed_stream_with_kernel(KeyedStreamKernel kernel,
                                     const Digest& key,
                                     const KeyedStream::Nonce& nonce);

}  // namespace cppflare::core
