// SHA-256 compression kernels behind core::Sha256 (internal).
//
// Two kernels compute the same FIPS 180-4 compression function over whole
// 64-byte blocks: a portable scalar one and an x86 SHA-NI one. Sha256 picks
// one per process from CPUID (DESIGN.md "SHA-256 dispatch"); this header
// exists so tests and benches can name a kernel and cross-check them. It is
// not a knob: nothing in the runtime selects a kernel by configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sha256.h"

namespace cppflare::core {

enum class Sha256Kernel : std::uint8_t { kScalar, kShaNi };

/// True when this build and this CPU can run `kernel`.
bool sha256_kernel_supported(Sha256Kernel kernel);

/// The kernel every default-constructed Sha256 uses in this process.
Sha256Kernel sha256_active_kernel();

/// "scalar" or "sha-ni".
const char* sha256_kernel_name(Sha256Kernel kernel);

/// A hasher bound to `kernel`, which must be supported.
Sha256 sha256_with_kernel(Sha256Kernel kernel);

/// HMAC-SHA256 computed with `kernel`, which must be supported.
Digest hmac_sha256_with_kernel(Sha256Kernel kernel,
                               const std::vector<std::uint8_t>& key,
                               const std::uint8_t* message, std::size_t len);

}  // namespace cppflare::core
