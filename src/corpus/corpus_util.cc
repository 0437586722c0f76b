#include "corpus/corpus_util.h"

#include <algorithm>

#include "support/source.h"

namespace uchecker::corpus::detail {

std::size_t count_loc(const std::string& content) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    if (is_code_line(std::string_view(content).substr(start, end - start))) {
      ++count;
    }
    if (end == content.size()) break;
    start = end + 1;
  }
  return count;
}

void pad_to_loc(core::Application& app, std::size_t target_loc, unsigned seed,
                const std::string& prefix) {
  std::size_t current = 0;
  for (const core::AppFile& f : app.files) current += count_loc(f.content);
  int chunk_index = 0;
  while (current + 16 < target_loc) {
    const std::size_t remaining = target_loc - current;
    const std::size_t chunk = std::min<std::size_t>(remaining, 8000);
    std::string content =
        filler_php(chunk, seed + static_cast<unsigned>(chunk_index), prefix);
    current += count_loc(content);
    app.files.push_back(core::AppFile{
        prefix + "-includes-" + std::to_string(chunk_index) + ".php",
        std::move(content)});
    ++chunk_index;
  }
}

}  // namespace uchecker::corpus::detail
