#include "core/detector/scan_many.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace uchecker::core {
namespace {

// One app, with bounded transient retry and a final catch-all so the
// worker's thread boundary stays exception-free.
ScanReport scan_one(const Detector& detector, const Application& app) {
  for (unsigned attempt = 0;; ++attempt) {
    ScanReport report;
    try {
      report = detector.scan(app);
    } catch (const std::exception& e) {
      // scan() contains its own errors; this is belt and braces.
      report = ScanReport{};
      report.app_name = app.name;
      report.errors.push_back(ScanError{"scan", "", e.what(), false});
      report.verdict = Verdict::kAnalysisError;
    } catch (...) {
      report = ScanReport{};
      report.app_name = app.name;
      report.errors.push_back(ScanError{"scan", "", "unknown error", false});
      report.verdict = Verdict::kAnalysisError;
    }
    if (report.only_transient_errors() && attempt < kTransientRetries) {
      continue;
    }
    return report;
  }
}

}  // namespace

std::vector<ScanReport> scan_many(const Detector& detector,
                                  const std::vector<Application>& apps,
                                  const ScanManyOptions& options) {
  return scan_many(detector, apps, options.threads);
}

std::vector<ScanReport> scan_many(const Detector& detector,
                                  const std::vector<Application>& apps,
                                  unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<unsigned>(threads, static_cast<unsigned>(apps.size()));
  std::vector<ScanReport> reports(apps.size());
  if (apps.empty()) return reports;

  if (threads <= 1) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      reports[i] = scan_one(detector, apps[i]);
    }
    return reports;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= apps.size()) return;
        // scan_one never throws, so nothing can cross this noexcept
        // thread boundary and call std::terminate.
        reports[i] = scan_one(detector, apps[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return reports;
}

}  // namespace uchecker::core
