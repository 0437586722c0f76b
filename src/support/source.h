// Source file management: files, line/column mapping, source locations.
//
// Every AST node and every heap-graph object carries a SourceLoc so that
// detection reports can point at exact lines of PHP source (the paper's
// "Source-Code-Focused" design objective).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace uchecker {

// Identifies a file registered with a SourceManager. Value 0 is invalid.
struct FileId {
  std::uint32_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(FileId, FileId) = default;
};

// A 1-based line/column position inside a file. line==0 means "unknown".
struct SourceLoc {
  FileId file;
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const { return file.valid() && line != 0; }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

// The physical-LoC line rule: a line counts as code unless, trimmed of
// whitespace, it is empty or starts a comment ("//", "#", "*", "/*").
// SourceFile::loc_count(), locality's per-function LoC and the corpus
// generators' size targets all count lines with it.
[[nodiscard]] bool is_code_line(std::string_view line);

// One registered source file. Owns the content; hands out string_views
// that remain valid for the lifetime of the SourceManager.
class SourceFile {
 public:
  SourceFile(FileId id, std::string name, std::string content);

  [[nodiscard]] FileId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string_view content() const { return content_; }

  // Number of newline-terminated (or final partial) lines.
  [[nodiscard]] std::uint32_t line_count() const;

  // 1-based line lookup. Returns an empty view for out-of-range lines.
  [[nodiscard]] std::string_view line(std::uint32_t line_no) const;

  // Maps a byte offset into the content to a (line, column) pair.
  [[nodiscard]] SourceLoc loc_for_offset(std::size_t offset) const;

  // Byte offset of each line start (always non-empty; [0] == 0). The
  // lexer walks this incrementally instead of binary-searching per
  // token via loc_for_offset.
  [[nodiscard]] const std::vector<std::size_t>& line_offsets() const {
    return line_offsets_;
  }

  // "Physical lines of code": the lines is_code_line() accepts. Counted
  // once, when the file is registered, so reading it is free and safe
  // from any thread. Used by the locality-analysis LoC accounting.
  [[nodiscard]] std::uint32_t loc_count() const { return loc_count_; }

 private:
  FileId id_;
  std::string name_;
  std::string content_;
  std::vector<std::size_t> line_offsets_;  // byte offset of each line start
  std::uint32_t loc_count_ = 0;
};

// Registry of all files in a scan. Append-only; FileIds are stable, and
// so are SourceFile addresses: files live in a deque, so a pointer from
// file() survives later add_file calls. The parallel parse pool relies
// on this — registration hands out per-file pointers that stay valid
// while more files are registered and while workers lex from them.
class SourceManager {
 public:
  SourceManager() = default;

  SourceManager(const SourceManager&) = delete;
  SourceManager& operator=(const SourceManager&) = delete;
  SourceManager(SourceManager&&) = default;
  SourceManager& operator=(SourceManager&&) = default;

  // Registers a file and returns its id. `name` is typically a path.
  FileId add_file(std::string name, std::string content);

  [[nodiscard]] const SourceFile* file(FileId id) const;
  [[nodiscard]] const SourceFile* file_by_name(std::string_view name) const;
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }

  // All registered files, in registration order.
  [[nodiscard]] const std::deque<SourceFile>& files() const { return files_; }

  // Human-readable "name:line:col" rendering of a location.
  [[nodiscard]] std::string describe(SourceLoc loc) const;

  // Total physical LoC across all files (for the "% of LoC analyzed"
  // column of Table III).
  [[nodiscard]] std::uint64_t total_loc() const;

 private:
  std::deque<SourceFile> files_;
};

}  // namespace uchecker
