// Poly1305 block kernels behind core::Poly1305 (internal).
//
// Two kernels compute the same RFC 8439 §2.5 accumulation: a constant-time
// scalar one (radix 2^64) and an AVX2 one (eight blocks per step in two
// 4-lane accumulators, radix 2^26). Poly1305 picks one per process from
// CPUID (DESIGN.md "Poly1305 dispatch"); this header exists so tests and
// benches can name a kernel and cross-check them. It is not a knob: nothing in the runtime selects a
// kernel by configuration.
#pragma once

#include <cstdint>

#include "core/poly1305.h"

namespace cppflare::core {

enum class Poly1305Kernel : std::uint8_t { kScalar, kAvx2 };

inline constexpr Poly1305Kernel kAllPoly1305Kernels[] = {Poly1305Kernel::kScalar,
                                                         Poly1305Kernel::kAvx2};

/// True when this build and this CPU can run `kernel`.
bool poly1305_kernel_supported(Poly1305Kernel kernel);

/// The kernel every Poly1305 uses in this process: the widest supported one.
Poly1305Kernel poly1305_active_kernel();

/// "scalar" or "avx2".
const char* poly1305_kernel_name(Poly1305Kernel kernel);

/// An authenticator bound to `kernel`, which must be supported.
Poly1305 poly1305_with_kernel(Poly1305Kernel kernel, const Poly1305::Key& key);

}  // namespace cppflare::core
