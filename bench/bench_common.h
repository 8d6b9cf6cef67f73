// Shared helpers for the table/figure bench binaries.
#pragma once

#include <sched.h>

#include <cstdio>
#include <string>

#include "core/keyed_stream_kernel.h"
#include "core/logging.h"
#include "core/poly1305_kernel.h"
#include "core/sha256_kernel.h"
#include "tensor/gemm_kernel.h"
#include "train/experiment.h"

namespace cppflare::bench {

/// Banner + scale dump shared by the experiment benches.
inline void print_header(const std::string& title,
                         const train::ExperimentScale& scale) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
  std::printf(
      "reproduction scale (override via REPRO_* env vars):\n"
      "  patients=%lld (paper: 8638)  pretrain_seqs=%lld (paper: 453377)\n"
      "  clients=%lld  fl_rounds=%lld  local_epochs=%lld  batch=%lld (rnn) / "
      "%lld (transformer)  lr=%g\n"
      "  max_seq_len=%lld  vocab~=%lld\n\n",
      static_cast<long long>(scale.num_patients),
      static_cast<long long>(scale.pretrain_sequences),
      static_cast<long long>(scale.num_clients),
      static_cast<long long>(scale.fl_rounds),
      static_cast<long long>(scale.local_epochs),
      static_cast<long long>(scale.batch_size),
      static_cast<long long>(scale.transformer_batch_size), scale.lr,
      static_cast<long long>(scale.max_seq_len),
      static_cast<long long>(scale.num_drugs + scale.num_diagnoses +
                             scale.num_procedures + 2));
}

/// Silence the NVFlare-style component logs during measurement loops.
inline void quiet_logs() {
  core::LogConfig::instance().set_threshold(core::LogLevel::kWarn);
}

/// The host a measurement ran on, as a JSON object: usable cores, vector
/// ISA, the SHA-256, ChaCha20, Poly1305 and GEMM kernels this process picked, build
/// type and source revision. Numbers taken on different hosts do not compare.
inline std::string host_context_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  char out[512];
  std::snprintf(
      out, sizeof(out),
      "{\"cores\": %d, \"avx2\": %s, \"avx512f\": %s, \"sha256_kernel\": \"%s\", "
      "\"prg_kernel\": \"%s\", \"poly1305_kernel\": \"%s\", \"gemm_kernel\": \"%s\", "
      "\"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"}",
      cores, flag(__builtin_cpu_supports("avx2")), flag(__builtin_cpu_supports("avx512f")),
      core::sha256_kernel_name(core::sha256_active_kernel()),
      core::keyed_stream_kernel_name(core::keyed_stream_active_kernel()),
      core::poly1305_kernel_name(core::poly1305_active_kernel()),
      tensor::gemm_kernel_name(tensor::gemm_active_kernel()), CPPFLARE_BUILD_TYPE, CPPFLARE_GIT_SHA);
  return out;
}

}  // namespace cppflare::bench
