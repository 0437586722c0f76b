#include "core/detector/app_loader.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace uchecker::core {
namespace {

namespace fs = std::filesystem;

bool is_php_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".php" || ext == ".module" || ext == ".inc";
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  out = buffer.str();
  return true;
}

}  // namespace

std::optional<Application> load_application(
    const std::string& root, std::string& error,
    std::vector<std::string>* unreadable) {
  Application app;
  app.name = root;
  const auto add_file = [&](const fs::path& path, std::string name) {
    std::string content;
    if (read_file(path, content)) {
      app.files.push_back(AppFile{std::move(name), std::move(content)});
    } else if (unreadable != nullptr) {
      // Degrade, don't die: a permission-denied or vanished file should
      // not cost the report for the rest of the tree.
      unreadable->push_back(path.string());
    }
  };

  const fs::path root_path(root);
  std::error_code ec;
  if (fs::is_regular_file(root_path, ec)) {
    add_file(root_path, root_path.filename().string());
  } else if (fs::is_directory(root_path, ec)) {
    // Directory order varies by filesystem, and file order sets FileIds,
    // root order and finding order: collect, then add by relative path.
    std::vector<std::pair<std::string, fs::path>> found;
    for (const auto& entry : fs::recursive_directory_iterator(root_path, ec)) {
      if (!is_php_file(entry.path())) continue;
      std::error_code sec;
      // Broken symlinks fail is_regular_file; route them through
      // add_file so they are reported, not silently dropped.
      if (entry.is_regular_file(sec) || fs::is_symlink(entry.path(), sec)) {
        found.emplace_back(fs::relative(entry.path(), root_path, ec).string(),
                           entry.path());
      }
    }
    std::sort(found.begin(), found.end());
    for (auto& [name, path] : found) add_file(path, std::move(name));
  } else {
    error = root + " is not a file or directory";
    return std::nullopt;
  }
  if (app.files.empty()) {
    error = "no readable PHP files found under " + root;
    return std::nullopt;
  }
  return app;
}

}  // namespace uchecker::core
