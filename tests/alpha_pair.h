// Two uploads that differ only in the names of their symbols: the
// same guarded move_uploaded_file, reading $_FILES[field] and
// $_POST[flag]. Each app's sink query is the other's up to renaming, so
// one solve answers both, and each witness must come back in its own
// app's names (s_files_<field>_ext).
#pragma once

#include <string>

#include "core/detector/detector.h"

namespace uchecker::testing_alpha {

inline core::Application upload_app(const std::string& field,
                                    const std::string& flag) {
  core::Application app;
  app.name = "alpha-" + field;
  app.files.push_back(core::AppFile{
      "upload.php",
      "<?php\n"
      "$file = $_FILES['" + field + "'];\n"
      "$target = '/var/www/uploads/' . $file['name'];\n"
      "if (isset($_POST['" + flag + "'])) {\n"
      "    move_uploaded_file($file['tmp_name'], $target);\n"
      "}\n"});
  return app;
}

inline core::Application original_app() { return upload_app("avatar", "save"); }
inline core::Application renamed_app() { return upload_app("photo", "keep"); }

}  // namespace uchecker::testing_alpha
