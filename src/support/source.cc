#include "support/source.h"

#include <algorithm>

#include "support/strutil.h"

namespace uchecker {

bool is_code_line(std::string_view line) {
  const std::string_view text = strutil::trim(line);
  return !text.empty() && !text.starts_with("//") && !text.starts_with("#") &&
         !text.starts_with("*") && !text.starts_with("/*");
}

SourceFile::SourceFile(FileId id, std::string name, std::string content)
    : id_(id), name_(std::move(name)), content_(std::move(content)) {
  line_offsets_.push_back(0);
  for (std::size_t i = 0; i < content_.size(); ++i) {
    if (content_[i] == '\n') line_offsets_.push_back(i + 1);
  }
  // A line's view keeps its '\n' (and the empty view after a final
  // '\n'); is_code_line trims both away.
  const std::string_view text(content_);
  for (std::size_t i = 0; i < line_offsets_.size(); ++i) {
    const std::size_t end =
        i + 1 < line_offsets_.size() ? line_offsets_[i + 1] : text.size();
    if (is_code_line(text.substr(line_offsets_[i], end - line_offsets_[i]))) {
      ++loc_count_;
    }
  }
}

std::uint32_t SourceFile::line_count() const {
  // The sentinel offset after a trailing '\n' does not start a real line.
  if (!line_offsets_.empty() && line_offsets_.back() == content_.size() &&
      !content_.empty()) {
    return static_cast<std::uint32_t>(line_offsets_.size() - 1);
  }
  return static_cast<std::uint32_t>(line_offsets_.size());
}

std::string_view SourceFile::line(std::uint32_t line_no) const {
  if (line_no == 0 || line_no > line_count()) return {};
  const std::size_t start = line_offsets_[line_no - 1];
  std::size_t end = (line_no < line_offsets_.size()) ? line_offsets_[line_no]
                                                     : content_.size();
  // Trim the trailing newline (and a CR if present).
  while (end > start && (content_[end - 1] == '\n' || content_[end - 1] == '\r')) {
    --end;
  }
  return std::string_view(content_).substr(start, end - start);
}

SourceLoc SourceFile::loc_for_offset(std::size_t offset) const {
  offset = std::min(offset, content_.size());
  // upper_bound gives the first line start strictly beyond `offset`.
  auto it = std::upper_bound(line_offsets_.begin(), line_offsets_.end(), offset);
  const auto line_idx = static_cast<std::uint32_t>(it - line_offsets_.begin());
  const std::size_t line_start = line_offsets_[line_idx - 1];
  return SourceLoc{id_, line_idx, static_cast<std::uint32_t>(offset - line_start + 1)};
}

FileId SourceManager::add_file(std::string name, std::string content) {
  const FileId id{static_cast<std::uint32_t>(files_.size() + 1)};
  files_.emplace_back(id, std::move(name), std::move(content));
  return id;
}

const SourceFile* SourceManager::file(FileId id) const {
  if (!id.valid() || id.value > files_.size()) return nullptr;
  return &files_[id.value - 1];
}

const SourceFile* SourceManager::file_by_name(std::string_view name) const {
  for (const SourceFile& f : files_) {
    if (f.name() == name) return &f;
  }
  return nullptr;
}

std::string SourceManager::describe(SourceLoc loc) const {
  const SourceFile* f = file(loc.file);
  if (f == nullptr) return "<unknown>";
  std::string out = f->name();
  if (loc.line != 0) {
    out += ":" + std::to_string(loc.line);
    if (loc.column != 0) out += ":" + std::to_string(loc.column);
  }
  return out;
}

std::uint64_t SourceManager::total_loc() const {
  std::uint64_t total = 0;
  for (const SourceFile& f : files_) total += f.loc_count();
  return total;
}

}  // namespace uchecker
