#include "service/scan_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "core/detector/app_loader.h"
#include "core/detector/report_io.h"
#include "support/jsonlite.h"
#include "support/profile.h"
#include "support/prom_export.h"
#include "support/sarif_export.h"
#include "support/strutil.h"
#include "support/telemetry.h"

namespace uchecker::service {
namespace {

std::string error_response(std::string_view message) {
  return "{\"status\": \"error\", \"message\": " +
         strutil::quote(message) + "}";
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Builds the Application named in a scan request: either an on-disk
// tree ("path") or inline sources ("app"). Returns nullopt with
// `error` set on any shape problem.
std::optional<core::Application> request_application(
    const jsonlite::Value& request, std::string& error) {
  if (const jsonlite::Value* path = request.find("path");
      path != nullptr && path->is_string()) {
    return core::load_application(path->str(), error);
  }
  const jsonlite::Value* app = request.find("app");
  if (app == nullptr || !app->is_object()) {
    error = "scan needs \"path\" (string) or \"app\" (object)";
    return std::nullopt;
  }
  const jsonlite::Value* name = app->find("name");
  const jsonlite::Value* files = app->find("files");
  if (name == nullptr || !name->is_string() || files == nullptr ||
      !files->is_array()) {
    error = "inline app needs \"name\" (string) and \"files\" (array)";
    return std::nullopt;
  }
  core::Application result;
  result.name = name->str();
  for (const jsonlite::Value& file : files->items()) {
    const jsonlite::Value* fname = file.find("name");
    const jsonlite::Value* content = file.find("content");
    if (fname == nullptr || !fname->is_string() || content == nullptr ||
        !content->is_string()) {
      error = "each file needs \"name\" and \"content\" strings";
      return std::nullopt;
    }
    result.files.push_back(core::AppFile{fname->str(), content->str()});
  }
  if (result.files.empty()) {
    error = "inline app has no files";
    return std::nullopt;
  }
  return result;
}

using jsonlite::format_number;

}  // namespace

ScanServer::ScanServer(ScanService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

ScanServer::~ScanServer() {
  request_stop();
  {
    const std::lock_guard<std::mutex> lock(threads_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    listen_fd_ = -1;
  }
}

bool ScanServer::listen() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  // A stale socket from a crashed daemon (kill -9 leaves it behind)
  // must not block recovery: remove it before binding.
  ::unlink(options_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  return true;
}

int ScanServer::run() {
  if (listen_fd_ < 0) return 1;
  while (!stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int timeout_ms = static_cast<int>(options_.poll_interval.count());
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    const std::lock_guard<std::mutex> lock(threads_mu_);
    connections_.emplace_back([this, client] { serve_connection(client); });
  }
  {
    const std::lock_guard<std::mutex> lock(threads_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  return 0;
}

void ScanServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      const std::string response = handle_request(line);
      if (!send_all(fd, response + "\n")) {
        ::close(fd);
        return;
      }
    }
    buffer.erase(0, start);
    // A hostile client streaming an endless unterminated line must not
    // grow the buffer without bound.
    if (buffer.size() > (1u << 20)) {
      send_all(fd, error_response("request line too long") + "\n");
      break;
    }
  }
  ::close(fd);
}

std::string ScanServer::handle_request(const std::string& line) {
  const std::optional<jsonlite::Value> request = jsonlite::parse(line);
  if (!request.has_value() || !request->is_object()) {
    return error_response("request is not a JSON object");
  }
  const jsonlite::Value* op = request->find("op");
  if (op == nullptr || !op->is_string()) {
    return error_response("missing \"op\"");
  }

  // Daemon identity, shared by ping and status: engine version, pid and
  // uptime answer "which build am I talking to, and since when?".
  const auto identity = [this] {
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      service_.started_at())
            .count();
    return "\"version\": " + strutil::quote(core::kEngineVersion) +
           ", \"pid\": " + std::to_string(static_cast<long long>(::getpid())) +
           ", \"uptime_s\": " + format_number(uptime_s);
  };

  if (op->str() == "ping") {
    return "{\"status\": \"ok\", \"pong\": true, " + identity() + "}";
  }

  if (op->str() == "shutdown") {
    request_stop();
    return "{\"status\": \"ok\", \"stopping\": true}";
  }

  if (op->str() == "metrics") {
    std::string body = "# no telemetry attached\n";
    if (telemetry::Telemetry* t = service_.options().telemetry) {
      telemetry::PromOptions prom;
      prom.engine_version = std::string(core::kEngineVersion);
      prom.process_start = service_.started_at();
      body = telemetry::to_prometheus_text(*t, prom);
    }
    return "{\"status\": \"ok\", \"content_type\": "
           "\"text/plain; version=0.0.4\", \"metrics\": " +
           strutil::quote(body) + "}";
  }

  if (op->str() == "top") {
    std::size_t n = 10;
    if (const jsonlite::Value* nv = request->find("n");
        nv != nullptr && nv->is_number() && nv->number() > 0) {
      n = static_cast<std::size_t>(nv->number());
    }
    std::string out = "{\"status\": \"ok\", \"requests\": [";
    bool first = true;
    for (const RequestCost& c : service_.top_requests(n)) {
      if (!first) out += ", ";
      first = false;
      out += "{\"app\": " + strutil::quote(c.app) +
             ", \"trace_id\": " + strutil::quote(c.trace_id) +
             ", \"verdict\": " + strutil::quote(c.verdict) +
             ", \"total_ms\": " + format_number(c.total_ms) +
             ", \"parse_ms\": " + format_number(c.parse_ms) +
             ", \"interp_ms\": " + format_number(c.interp_ms) +
             ", \"solve_ms\": " + format_number(c.solve_ms) +
             ", \"solver_calls\": " + std::to_string(c.solver_calls) +
             ", \"cached\": " + (c.from_cache ? "true" : "false") +
             ", \"quarantined\": " + (c.quarantined ? "true" : "false") +
             ", \"top_root\": " + strutil::quote(c.top_root) +
             ", \"top_root_ms\": " + format_number(c.top_root_ms) + "}";
    }
    out += "]}";
    return out;
  }

  if (op->str() == "profile") {
    std::size_t n = 10;
    if (const jsonlite::Value* nv = request->find("n");
        nv != nullptr && nv->is_number() && nv->number() > 0) {
      n = static_cast<std::size_t>(nv->number());
    }
    std::string out = "{\"status\": \"ok\", \"profiling\": ";
    out += service_.options().scan.profile ? "true" : "false";
    out += ", \"scans\": [";
    bool first = true;
    for (const RecentProfile& p : service_.recent_profiles(n)) {
      if (!first) out += ", ";
      first = false;
      out += "{\"app\": " + strutil::quote(p.app) +
             ", \"trace_id\": " + strutil::quote(p.trace_id) +
             ", \"verdict\": " + strutil::quote(p.verdict) +
             ", \"profile\": " + profile::to_json(p.profile) + "}";
    }
    out += "]}";
    return out;
  }

  if (op->str() == "status") {
    std::string out = "{\"status\": \"ok\", " + identity() +
                      ", \"queue_depth\": " +
                      std::to_string(service_.queue_depth());
    if (telemetry::Telemetry* t = service_.options().telemetry) {
      out += ", \"counters\": {";
      bool first = true;
      for (const auto& [name, value] : t->metrics().counters()) {
        if (!first) out += ", ";
        first = false;
        out += strutil::quote(name) + ": " + std::to_string(value);
      }
      out += "}, \"gauges\": {";
      first = true;
      for (const auto& [name, value] : t->metrics().gauges()) {
        if (!first) out += ", ";
        first = false;
        out += strutil::quote(name) + ": " + std::to_string(value);
      }
      out += "}";
    }
    out += "}";
    return out;
  }

  if (op->str() == "scan") {
    std::string error;
    std::optional<core::Application> app = request_application(*request, error);
    if (!app.has_value()) return error_response(error);
    const jsonlite::Value* format = request->find("format");
    const bool want_sarif =
        format != nullptr && format->is_string() && format->str() == "sarif";
    std::string trace_id;
    if (const jsonlite::Value* tid = request->find("trace_id");
        tid != nullptr && tid->is_string()) {
      trace_id = tid->str();
    }

    std::future<ScanOutcome> future =
        service_.submit(*std::move(app), std::move(trace_id));
    if (!future.valid()) {
      return "{\"status\": \"overloaded\", \"queue_depth\": " +
             std::to_string(service_.queue_depth()) + "}";
    }
    ScanOutcome outcome = future.get();
    std::string out = "{\"status\": \"ok\", \"app\": " +
                      strutil::quote(outcome.report.app_name) +
                      ", \"trace_id\": " + strutil::quote(outcome.trace_id) +
                      ", \"verdict\": \"" +
                      std::string(core::verdict_slug(outcome.report.verdict)) +
                      "\", \"cached\": " +
                      (outcome.from_cache ? "true" : "false") +
                      ", \"quarantined\": " +
                      (outcome.quarantined ? "true" : "false");
    if (want_sarif) {
      out += ", \"sarif\": " + sarif::to_json(core::to_sarif(outcome.report));
    } else {
      out += ", \"report\": " + outcome.report_json;
    }
    out += "}";
    return out;
  }

  return error_response("unknown op: " + op->str());
}

}  // namespace uchecker::service
