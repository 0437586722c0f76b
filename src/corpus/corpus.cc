#include "corpus/corpus.h"

#include "corpus/corpus_util.h"

namespace uchecker::corpus {

std::vector<CorpusEntry> full_corpus() {
  std::vector<CorpusEntry> all = known_vulnerable();
  for (CorpusEntry& e : benign()) all.push_back(std::move(e));
  for (CorpusEntry& e : new_vulnerable()) all.push_back(std::move(e));
  return all;
}

core::Application synth_app(const SynthSpec& spec) {
  core::Application app;
  app.name = spec.name;

  std::string handler = "<?php\nfunction synth_handle_upload() {\n";
  handler += "    $updir = wp_upload_dir();\n";
  handler += "    $dir = $updir['basedir'] . '/synth/';\n";
  handler += "    $trace = array();\n";
  for (int i = 0; i < spec.sequential_ifs; ++i) {
    handler += "    if (isset($_POST['opt_" + std::to_string(i) + "'])) {\n";
    handler += spec.arms_reach_sink
                   ? "        $dir .= 'opt" + std::to_string(i) + "/';\n"
                   : "        $trace[] = 'opt" + std::to_string(i) + "';\n";
    handler += "    }\n";
  }
  if (spec.switch_ways > 1) {
    handler += "    $mode = 'none';\n";
    handler += "    switch ($_POST['mode']) {\n";
    for (int i = 0; i < spec.switch_ways - 1; ++i) {
      handler += "        case 'mode" + std::to_string(i) + "':\n";
      handler += "            $mode = 'm" + std::to_string(i) + "';\n";
      handler += "            break;\n";
    }
    handler += "        default:\n";
    handler += "            $mode = 'none';\n";
    handler += "            break;\n";
    handler += "    }\n";
  }
  handler += "    $file = $_FILES['synth_file'];\n";
  if (!spec.vulnerable) {
    handler +=
        "    $ext = strtolower(pathinfo($file['name'], PATHINFO_EXTENSION));\n"
        "    if (!in_array($ext, array('jpg', 'png', 'gif'))) {\n"
        "        wp_die('rejected');\n"
        "    }\n";
  }
  handler += spec.arms_reach_sink && spec.switch_ways > 1
                 ? "    $target = $dir . $mode . '/' . $file['name'];\n"
                 : "    $target = $dir . $file['name'];\n";
  handler += "    if (move_uploaded_file($file['tmp_name'], $target)) {\n";
  handler += spec.arms_reach_sink ? "        $dir .= 'saved/';\n"
                                  : "        $trace[] = 'saved';\n";
  handler += "    }\n";
  handler += "    echo json_encode($trace);\n";
  handler += "}\n";

  std::string main_file = "<?php\n/*\nPlugin Name: " + spec.name + "\n*/\n";
  main_file += "add_action('wp_ajax_synth_upload', 'synth_handle_upload');\n";

  app.files.push_back(core::AppFile{spec.name + ".php", std::move(main_file)});
  app.files.push_back(core::AppFile{spec.name + "-handler.php", std::move(handler)});
  for (int i = 0; i < spec.filler_files; ++i) {
    const std::size_t chunk = spec.filler_loc / (spec.filler_files > 0 ? spec.filler_files : 1);
    app.files.push_back(core::AppFile{
        spec.name + "-lib-" + std::to_string(i) + ".php",
        filler_php(chunk, 1000 + static_cast<unsigned>(i), "synth")});
  }
  return app;
}

}  // namespace uchecker::corpus
