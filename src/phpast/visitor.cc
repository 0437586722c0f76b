#include "phpast/visitor.h"

#include <algorithm>

namespace uchecker::phpast {

std::uint32_t max_line(const Node& node) {
  std::uint32_t result = 0;
  walk(node, [&result](const Node& n) {
    result = std::max(result, n.loc().line);
    return true;
  });
  return result;
}

std::uint32_t min_line(const Node& node) {
  std::uint32_t result = 0;
  walk(node, [&result](const Node& n) {
    if (n.loc().line != 0 && (result == 0 || n.loc().line < result)) {
      result = n.loc().line;
    }
    return true;
  });
  return result;
}

}  // namespace uchecker::phpast
