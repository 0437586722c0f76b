#include "core/sinks.h"

#include <algorithm>

namespace uchecker::core {

bool is_terminator(std::string_view name) {
  return name == "wp_die" || name == "wp_send_json" ||
         name == "wp_send_json_error" || name == "wp_send_json_success" ||
         name == "wp_redirect_and_exit" || name == "drupal_exit";
}

SinkRegistry::SinkRegistry() {
  specs_.push_back(SinkSpec{"move_uploaded_file", SinkSignature::kSrcDst});
  specs_.push_back(SinkSpec{"file_put_contents", SinkSignature::kDstSrc});
  // The paper's spelling of the same builtin.
  specs_.push_back(SinkSpec{"file_put_content", SinkSignature::kDstSrc});
  // Copy/rename-after-upload family: plugins that stage the upload in a
  // temp location and persist it with copy()/rename() share
  // move_uploaded_file's (src, dst) shape and constraint model.
  specs_.push_back(SinkSpec{"copy", SinkSignature::kSrcDst});
  specs_.push_back(SinkSpec{"rename", SinkSignature::kSrcDst});
}

void SinkRegistry::add(SinkSpec spec) { specs_.push_back(std::move(spec)); }

bool SinkRegistry::is_sink(std::string_view lower_name) const {
  for (const SinkSpec& s : specs_) {
    if (s.name == lower_name) return true;
  }
  return false;
}

SinkSignature SinkRegistry::signature(std::string_view lower_name) const {
  for (const SinkSpec& s : specs_) {
    if (s.name == lower_name) return s.signature;
  }
  return SinkSignature::kSrcDst;
}

const SinkRegistry& SinkRegistry::paper_defaults() {
  // Strictly the paper's sink vocabulary — without the copy()/rename()
  // family the default constructor adds. Baseline comparisons against
  // the paper's numbers use this registry.
  static const SinkRegistry* registry = [] {
    auto* reg = new SinkRegistry();
    reg->specs_.erase(
        std::remove_if(reg->specs_.begin(), reg->specs_.end(),
                       [](const SinkSpec& s) {
                         return s.name == "copy" || s.name == "rename";
                       }),
        reg->specs_.end());
    return reg;
  }();
  return *registry;
}

}  // namespace uchecker::core
