// Structured JSON-lines logging for the long-running service pieces
// (scand, ScanService, the watchdog).
//
// Each log call emits exactly one JSON object on one line:
//
//   {"ts": "2026-08-08T12:34:56.789Z", "level": "info",
//    "event": "request_done", "trace_id": "a1b2c3d4e5f60718",
//    "app": "foxypress", "verdict": "vulnerable", "total_ms": 46.2}
//
// Schema (stable; ci/check.sh step 6 validates every line against it):
//  - "ts"       ISO-8601 UTC wall time with millisecond precision. Always
//               present, always first.
//  - "level"    "debug" | "info" | "warn" | "error".
//  - "event"    machine-readable event name (snake_case, no spaces).
//  - "trace_id" the request's trace ID when the event belongs to one
//               (omitted otherwise) — the same ID carried by the scan's
//               report JSON, Chrome-trace spans and metric exemplars, so
//               one grep over the log reconstructs a request end-to-end.
//  - "suppressed" present only on the first line after rate limiting
//               dropped lines for this (level, event) key; counts drops.
//  - any further fields are event-specific key/value pairs.
//
// The logger is thread-safe (one mutex serializes formatting + the sink
// write, so lines never interleave) and cheap when disabled: a call
// below min_level returns after one atomic load, no formatting.
// Rate limiting is per (level, event) key over fixed one-second windows
// so a hot loop cannot flood the sink; suppressed counts are reported,
// never silently dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace uchecker::logging {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Stable lower-case name ("debug", "info", "warn", "error").
[[nodiscard]] std::string_view level_name(Level level);
// Parses a level name (case-insensitive); nullopt-like: returns true and
// sets `out` on success.
[[nodiscard]] bool parse_level(std::string_view name, Level* out);

// One typed key/value pair. Built implicitly at call sites:
//   log.info("request_done", trace_id,
//            {{"app", name}, {"total_ms", 46.2}, {"cached", true}});
class Field {
 public:
  Field(std::string_view key, std::string_view value)
      : key_(key), kind_(Kind::kString), str_(value) {}
  Field(std::string_view key, const char* value)
      : key_(key), kind_(Kind::kString), str_(value) {}
  Field(std::string_view key, const std::string& value)
      : key_(key), kind_(Kind::kString), str_(value) {}
  Field(std::string_view key, bool value)
      : key_(key), kind_(Kind::kBool), bool_(value) {}
  Field(std::string_view key, double value)
      : key_(key), kind_(Kind::kDouble), num_(value) {}
  Field(std::string_view key, std::int64_t value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  Field(std::string_view key, std::uint64_t value)
      : key_(key), kind_(Kind::kInt), int_(static_cast<std::int64_t>(value)) {}
  Field(std::string_view key, int value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  Field(std::string_view key, unsigned value)
      : key_(key), kind_(Kind::kInt), int_(value) {}

  // Appends `"key": value` (JSON-escaped) to `out`.
  void append_to(std::string& out) const;

 private:
  enum class Kind { kString, kBool, kDouble, kInt };
  std::string_view key_;
  Kind kind_;
  std::string_view str_;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
};

struct LoggerOptions {
  Level min_level = Level::kInfo;
  // Max emitted lines per second per (level, event) key; 0 = unlimited.
  std::uint32_t rate_limit_per_sec = 0;
};

class Logger {
 public:
  explicit Logger(LoggerOptions options = {});
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  // Replaces the sink. The default sink writes to stderr. The sink is
  // called with the full line (no trailing newline) under the logger
  // mutex, so it needs no locking of its own.
  void set_sink(std::function<void(const std::string&)> sink);
  // Appends to `path`; returns false (and keeps the current sink) if the
  // file cannot be opened.
  [[nodiscard]] bool open_file(const std::string& path);

  void set_min_level(Level level);
  [[nodiscard]] Level min_level() const;

  void log(Level level, std::string_view event, std::string_view trace_id,
           std::initializer_list<Field> fields = {});

  void debug(std::string_view event, std::string_view trace_id = {},
             std::initializer_list<Field> fields = {}) {
    log(Level::kDebug, event, trace_id, fields);
  }
  void info(std::string_view event, std::string_view trace_id = {},
            std::initializer_list<Field> fields = {}) {
    log(Level::kInfo, event, trace_id, fields);
  }
  void warn(std::string_view event, std::string_view trace_id = {},
            std::initializer_list<Field> fields = {}) {
    log(Level::kWarn, event, trace_id, fields);
  }
  void error(std::string_view event, std::string_view trace_id = {},
             std::initializer_list<Field> fields = {}) {
    log(Level::kError, event, trace_id, fields);
  }

  // Totals since construction (emitted excludes rate-limited drops).
  [[nodiscard]] std::uint64_t emitted() const;
  [[nodiscard]] std::uint64_t suppressed() const;

 private:
  struct RateState {
    std::int64_t window_start_ms = 0;
    std::uint32_t in_window = 0;
    std::uint64_t suppressed = 0;  // pending, reported on next emit
  };

  LoggerOptions options_;
  std::atomic<int> min_level_;
  mutable std::mutex mu_;
  std::function<void(const std::string&)> sink_;
  void* file_ = nullptr;  // FILE*, owned; kept opaque so <cstdio> stays out
  std::map<std::string, RateState, std::less<>> rate_;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace uchecker::logging
