// Thread-safe leveled logging with NVFlare-style line format:
//
//   2023-04-07 06:33:33,911 - CiBertLearner - INFO: Local epoch site-7: 1/10
//
// Each event names its component; all components share one sink and a
// global threshold. The format intentionally mirrors the NVFlare log lines
// shown in Fig. 3 of the paper so the demonstration bench reads the same.
//
// Structured event API:
//
//   LOG(info).msg("Round started").kv("round", r);
//   LOG_AS("ClientManager", warn).msg("bad token").kv("site", name);
//
// `LOG(level)` logs under the file's component — define
// `CPPFLARE_LOG_COMPONENT` ("MyComponent") anywhere above the first use —
// while `LOG_AS` names the component inline. Key-value pairs are appended
// to the message as ` key=value` (values with spaces are quoted), keeping
// lines grep- and machine-parsable.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/thread_annotations.h"

namespace cppflare::core {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Lowercase aliases so the LOG(level) macro reads naturally.
namespace log_levels {
inline constexpr LogLevel debug = LogLevel::kDebug;
inline constexpr LogLevel info = LogLevel::kInfo;
inline constexpr LogLevel warn = LogLevel::kWarn;
inline constexpr LogLevel error = LogLevel::kError;
}  // namespace log_levels

/// Returns the fixed uppercase name for a level ("INFO", ...).
const char* log_level_name(LogLevel level);

/// Global log configuration shared by every component.
class LogConfig {
 public:
  static LogConfig& instance();

  void set_threshold(LogLevel level);
  LogLevel threshold() const;

  /// Redirects output (default: std::clog). The stream must outlive all
  /// logging calls; passing nullptr restores the default sink.
  void set_sink(std::ostream* sink);

  /// Writes one formatted line; serialized by an internal mutex.
  void write_line(const std::string& line);

 private:
  LogConfig() = default;
  mutable Mutex mu_;
  LogLevel threshold_ CF_GUARDED_BY(mu_) = LogLevel::kInfo;
  // The pointer is guarded; the pointee (the stream) is serialized by the
  // same mutex because every write happens inside write_line's critical
  // section.
  std::ostream* sink_ CF_GUARDED_BY(mu_) CF_PT_GUARDED_BY(mu_) = nullptr;
};

/// One structured log line, built with chained calls and emitted when the
/// temporary dies at the end of the full expression:
///
///   LOG_AS("ScatterAndGather", info).msg("Round finished").kv("round", r);
///
/// Below the global threshold the event is inert: msg()/kv() are no-ops and
/// nothing is formatted or written.
class LogEvent {
 public:
  LogEvent(std::string_view component, LogLevel level);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  /// Sets the human-readable message (at most once; later calls append
  /// after a space so shims can compose).
  LogEvent& msg(std::string_view message);

  LogEvent& kv(std::string_view key, std::string_view value);
  LogEvent& kv(std::string_view key, const char* value) {
    return kv(key, std::string_view(value));
  }
  LogEvent& kv(std::string_view key, const std::string& value) {
    return kv(key, std::string_view(value));
  }
  LogEvent& kv(std::string_view key, double value);
  LogEvent& kv(std::string_view key, bool value) {
    return kv(key, value ? std::string_view("true") : std::string_view("false"));
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LogEvent& kv(std::string_view key, T value) {
    return kv_int(key, static_cast<long long>(value));
  }

 private:
  LogEvent& kv_int(std::string_view key, long long value);
  void append_key(std::string_view key);

  bool active_;
  LogLevel level_;
  std::string component_;
  std::string body_;  // message followed by " key=value" pairs
};

/// Structured logging entry points. LOG(level) uses the translation unit's
/// CPPFLARE_LOG_COMPONENT (a string literal; define it before first use);
/// LOG_AS(component, level) names the component at the call site.
#define LOG(level)                       \
  ::cppflare::core::LogEvent(            \
      CPPFLARE_LOG_COMPONENT, ::cppflare::core::log_levels::level)
#define LOG_AS(component, level) \
  ::cppflare::core::LogEvent((component), ::cppflare::core::log_levels::level)

/// Formats the current wall-clock time as "YYYY-MM-DD HH:MM:SS,mmm".
std::string timestamp_now();

}  // namespace cppflare::core
