// The file-writing sink vocabulary shared by the call-graph builder and
// the symbolic interpreter.
//
// The paper models two sinks: move_uploaded_file(e_src, e_dst) and
// file_put_contents(e_dst, e_src). Real plugins also persist uploads
// through copy()/rename() after staging them, so the default registry
// recognizes that family too (ScanOptions::vuln is unaffected — the
// constraint model is identical, only the set of recognized calls
// grows).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace uchecker::core {

// Positional convention of a sink's (source, destination) arguments.
enum class SinkSignature {
  kSrcDst,  // f(src, dst): move_uploaded_file, copy, rename
  kDstSrc,  // f(dst, src): file_put_contents
};

struct SinkSpec {
  std::string name;  // lowercase function name
  SinkSignature signature = SinkSignature::kSrcDst;
};

class SinkRegistry {
 public:
  // The default scan registry: the paper's sinks (move_uploaded_file,
  // file_put_contents and the paper's own "file_put_content" spelling)
  // plus the copy()/rename() staging family.
  SinkRegistry();

  // Registers an additional sink (lowercase name).
  void add(SinkSpec spec);

  [[nodiscard]] bool is_sink(std::string_view lower_name) const;
  // Signature lookup; defaults to kSrcDst for unknown names.
  [[nodiscard]] SinkSignature signature(std::string_view lower_name) const;

  [[nodiscard]] const std::vector<SinkSpec>& specs() const { return specs_; }

  // Strictly the paper's registry (shared, immutable): no copy/rename.
  // For baseline comparisons against the paper's published numbers.
  [[nodiscard]] static const SinkRegistry& paper_defaults();

 private:
  std::vector<SinkSpec> specs_;
};

// Builtins that terminate the PHP request: execution does not continue
// past them, so paths through them never reach a later sink. Both the
// symbolic interpreter and the static pre-pass stop a path here.
[[nodiscard]] bool is_terminator(std::string_view name);

}  // namespace uchecker::core
