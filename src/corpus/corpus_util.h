// Internal helpers shared by the corpus translation units.
#pragma once

#include <string>

#include "corpus/corpus.h"

namespace uchecker::corpus::detail {

// Physical LoC of a PHP source: its lines that is_code_line() accepts.
[[nodiscard]] std::size_t count_loc(const std::string& content);

// Appends deterministic filler files until the app reaches ~target LoC.
void pad_to_loc(core::Application& app, std::size_t target_loc, unsigned seed,
                const std::string& prefix);

}  // namespace uchecker::corpus::detail
