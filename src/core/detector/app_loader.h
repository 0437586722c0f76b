// Builds an Application from PHP sources on disk: the one directory
// loader shared by scan_directory, scand and their tests.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/detector/detector.h"

namespace uchecker::core {

// Recursively collects *.php / *.module / *.inc files under `root` (or
// the single file itself) into an Application named after the path;
// file names are relative to `root`, and files come in the order of those
// names whatever the directory order. Symlinks are followed, and a
// broken one counts as unreadable. Unreadable files are skipped, and
// their paths appended to `unreadable` when it is non-null. Returns
// nullopt with `error` set when `root` is neither a file nor a
// directory, or when no file could be read.
[[nodiscard]] std::optional<Application> load_application(
    const std::string& root, std::string& error,
    std::vector<std::string>* unreadable = nullptr);

}  // namespace uchecker::core
