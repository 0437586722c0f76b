// Quickstart: scan one PHP snippet with the public Detector API and
// print its text report (core::to_text, what scan_directory prints):
// stats, the verdict and each finding with its source line and witness.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/detector/detector.h"
#include "core/detector/report_io.h"

int main() {
  using namespace uchecker::core;

  // The vulnerable example of the paper's Listing 4: the uploaded file's
  // client-supplied name is used as the destination without validation.
  Application app;
  app.name = "quickstart-demo";
  app.files.push_back(AppFile{"upload.php", R"php(<?php
$path_array = wp_upload_dir();
$pathAndName = $path_array['path'] . "/" . $_FILES['upload_file']['name'];
if (strlen($_FILES['upload_file']['name']) > 5) {
    move_uploaded_file($_FILES['upload_file']['tmp_name'], $pathAndName);
}
)php"});

  Detector detector;
  const ScanReport report = detector.scan(app);

  std::fputs(to_text(report).c_str(), stdout);
  return report.vulnerable() ? 0 : 1;
}
