#include "support/logging.h"

#include <cinttypes>
#include <cstdio>
#include <ctime>

#include <chrono>

#include "support/jsonlite.h"
#include "support/strutil.h"

namespace uchecker::logging {

namespace {

// ISO-8601 UTC with millisecond precision: 2026-08-08T12:34:56.789Z
std::string format_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "info";
}

bool parse_level(std::string_view name, Level* out) {
  const std::string lower = strutil::to_lower(name);
  if (lower == "debug") { *out = Level::kDebug; return true; }
  if (lower == "info") { *out = Level::kInfo; return true; }
  if (lower == "warn" || lower == "warning") { *out = Level::kWarn; return true; }
  if (lower == "error") { *out = Level::kError; return true; }
  return false;
}

void Field::append_to(std::string& out) const {
  out += strutil::quote(key_);
  out += ": ";
  switch (kind_) {
    case Kind::kString:
      out += strutil::quote(str_);
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kDouble:
      out += jsonlite::format_number(num_);
      break;
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out += buf;
      break;
    }
  }
}

Logger::Logger(LoggerOptions options)
    : options_(options), min_level_(static_cast<int>(options.min_level)) {}

Logger::~Logger() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void Logger::set_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    file_ = nullptr;
  }
  sink_ = std::move(sink);
}

bool Logger::open_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
  file_ = f;
  sink_ = [this](const std::string& line) {
    auto* fp = static_cast<std::FILE*>(file_);
    std::fwrite(line.data(), 1, line.size(), fp);
    std::fputc('\n', fp);
    std::fflush(fp);
  };
  return true;
}

void Logger::set_min_level(Level level) {
  min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

Level Logger::min_level() const {
  return static_cast<Level>(min_level_.load(std::memory_order_relaxed));
}

void Logger::log(Level level, std::string_view event,
                 std::string_view trace_id,
                 std::initializer_list<Field> fields) {
  if (static_cast<int>(level) < min_level_.load(std::memory_order_relaxed)) {
    return;
  }

  std::lock_guard<std::mutex> lock(mu_);

  std::uint64_t report_suppressed = 0;
  if (options_.rate_limit_per_sec > 0) {
    std::string key;
    key.reserve(event.size() + 8);
    key += level_name(level);
    key += '/';
    key += event;
    auto it = rate_.find(key);
    if (it == rate_.end()) it = rate_.emplace(std::move(key), RateState{}).first;
    RateState& rs = it->second;
    const std::int64_t now_ms = steady_ms();
    if (now_ms - rs.window_start_ms >= 1000) {
      rs.window_start_ms = now_ms;
      rs.in_window = 0;
    }
    if (rs.in_window >= options_.rate_limit_per_sec) {
      ++rs.suppressed;
      ++suppressed_;
      return;
    }
    ++rs.in_window;
    report_suppressed = rs.suppressed;
    rs.suppressed = 0;
  }

  std::string line;
  line.reserve(160);
  line += "{\"ts\": \"";
  line += format_timestamp();
  line += "\", \"level\": \"";
  line += level_name(level);
  line += "\", \"event\": ";
  line += strutil::quote(event);
  if (!trace_id.empty()) {
    line += ", \"trace_id\": ";
    line += strutil::quote(trace_id);
  }
  if (report_suppressed > 0) {
    line += ", \"suppressed\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, report_suppressed);
    line += buf;
  }
  for (const Field& f : fields) {
    line += ", ";
    f.append_to(line);
  }
  line += '}';

  ++emitted_;
  if (sink_) {
    sink_(line);
  } else {
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fputc('\n', stderr);
  }
}

std::uint64_t Logger::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::uint64_t Logger::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

}  // namespace uchecker::logging
