// Host context: cores, runtime ISA flags, build and source revision.
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "roundbench.h"

namespace roundbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

HostContext detect_host() {
  HostContext host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    host.avx2 = (ebx & (1u << 5)) != 0;
    host.avx512f = (ebx & (1u << 16)) != 0;
    host.sha_ni = (ebx & (1u << 29)) != 0;
  }
#endif
  host.build_type = ROUNDBENCH_BUILD_TYPE;
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.git_sha = ROUNDBENCH_GIT_SHA;
  return host;
}

std::string HostContext::json() const {
  std::string clamp_list = "[";
  for (std::size_t i = 0; i < clamps.size(); ++i) {
    clamp_list += (i ? ", " : "") + quoted(clamps[i]);
  }
  clamp_list += "]";
  return "{\"cores\": " + std::to_string(cores) +
         ", \"sha_ni\": " + (sha_ni ? "true" : "false") +
         ", \"avx2\": " + (avx2 ? "true" : "false") +
         ", \"avx512f\": " + (avx512f ? "true" : "false") +
         ", \"build_type\": " + quoted(build_type) +
         ", \"compiler\": " + quoted(compiler) + ", \"git_sha\": " + quoted(git_sha) +
         ", \"compute_threads\": " + std::to_string(compute_threads) +
         ", \"site_workers\": " + std::to_string(site_workers) +
         ", \"payload_floats\": " + std::to_string(payload_floats) +
         ", \"clamps\": " + clamp_list + "}";
}

}  // namespace roundbench
