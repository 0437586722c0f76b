#include "phpparse/parse_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "phpparse/parser.h"

namespace uchecker::phpparse {
namespace {

// One file, one arena, one sink. Never throws: exceptions become the
// unit's exception_ptr so they can cross the thread join.
void parse_one(const SourceFile& file, ParsedUnit& unit) {
  unit.attempted = true;
  unit.diags.set_phase("parse");
  try {
    unit.ast = parse_php(file, unit.diags, unit.arena);
  } catch (...) {
    unit.error = std::current_exception();
  }
}

}  // namespace

std::size_t resolve_parse_threads(std::size_t requested,
                                  std::size_t file_count) {
  std::size_t n = requested;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
  }
  // No files still resolves to one (idle) thread, not to the auto width.
  return std::max<std::size_t>(std::min(n, file_count), 1);
}

std::vector<ParsedUnit> parse_files(
    const std::vector<const SourceFile*>& files, std::size_t threads,
    const Deadline* deadline) {
  std::vector<ParsedUnit> units(files.size());
  const auto expired = [deadline] {
    return deadline != nullptr && deadline->expired();
  };

  if (threads <= 1 || files.size() <= 1) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (expired()) break;
      parse_one(*files[i], units[i]);
    }
    return units;
  }

  // Work stealing via one shared counter; every worker owns the unit it
  // claimed outright (distinct slot, own arena/sink), so the counter is
  // the only synchronization besides the joins.
  std::atomic<std::size_t> next{0};
  const std::size_t worker_count =
      std::min(resolve_parse_threads(threads, files.size()), files.size());
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= files.size() || expired()) return;
        parse_one(*files[i], units[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return units;
}

}  // namespace uchecker::phpparse
