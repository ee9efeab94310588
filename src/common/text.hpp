// Text helpers: fixed-width table rendering used by the bench harnesses
// to print the paper's tables, plus small string utilities.
#pragma once

#include <string>
#include <vector>

namespace hwpat {

/// Renders rows of cells as an aligned plain-text table, in the style the
/// bench binaries use to regenerate the paper's tables.
class TextTable {
 public:
  /// Adds a header row; a separator line is drawn beneath it.
  void header(std::vector<std::string> cells);
  /// Adds a data row.
  void row(std::vector<std::string> cells);
  /// Renders the table with two-space column gaps.
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  int header_rows_ = 0;
};

/// join({"a","b"}, ", ") == "a, b"
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// True when `s` starts with `prefix`.
[[nodiscard]] bool starts_with(const std::string& s, const std::string& prefix);

}  // namespace hwpat
