#include "core/logging.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>

namespace cppflare::core {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogConfig& LogConfig::instance() {
  static LogConfig config;
  return config;
}

void LogConfig::set_threshold(LogLevel level) {
  MutexLock lock(mu_);
  threshold_ = level;
}

LogLevel LogConfig::threshold() const {
  MutexLock lock(mu_);
  return threshold_;
}

void LogConfig::set_sink(std::ostream* sink) {
  MutexLock lock(mu_);
  sink_ = sink;
}

void LogConfig::write_line(const std::string& line) {
  MutexLock lock(mu_);
  std::ostream& out = sink_ != nullptr ? *sink_ : std::clog;
  out << line << '\n';
  out.flush();
}

// ---------------------------------------------------------------------------
// LogEvent
// ---------------------------------------------------------------------------

LogEvent::LogEvent(std::string_view component, LogLevel level)
    : active_(level >= LogConfig::instance().threshold() &&
              level != LogLevel::kOff),
      level_(level) {
  if (active_) component_.assign(component);
}

LogEvent::~LogEvent() {
  if (!active_) return;
  std::string line = timestamp_now();
  line += " - ";
  line += component_;
  line += " - ";
  line += log_level_name(level_);
  line += ": ";
  line += body_;
  LogConfig::instance().write_line(line);
}

LogEvent& LogEvent::msg(std::string_view message) {
  if (!active_) return *this;
  if (!body_.empty()) body_ += ' ';
  body_.append(message);
  return *this;
}

void LogEvent::append_key(std::string_view key) {
  if (!body_.empty()) body_ += ' ';
  body_.append(key);
  body_ += '=';
}

LogEvent& LogEvent::kv(std::string_view key, std::string_view value) {
  if (!active_) return *this;
  append_key(key);
  const bool quote =
      value.empty() || value.find_first_of(" \t\"=") != std::string_view::npos;
  if (quote) {
    body_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += c;
    }
    body_ += '"';
  } else {
    body_.append(value);
  }
  return *this;
}

LogEvent& LogEvent::kv(std::string_view key, double value) {
  if (!active_) return *this;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", value);
  append_key(key);
  body_ += buf;
  return *this;
}

LogEvent& LogEvent::kv_int(std::string_view key, long long value) {
  if (!active_) return *this;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  append_key(key);
  body_ += buf;
  return *this;
}

std::string timestamp_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const auto ms = duration_cast<milliseconds>(now.time_since_epoch()) % 1000;
  const std::time_t t = system_clock::to_time_t(now);
  std::tm tm_buf{};
  localtime_r(&t, &tm_buf);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d,%03d",
                tm_buf.tm_year + 1900, tm_buf.tm_mon + 1, tm_buf.tm_mday,
                tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
                static_cast<int>(ms.count()));
  return buf;
}

}  // namespace cppflare::core
