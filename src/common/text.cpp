#include "common/text.hpp"

#include <algorithm>
#include <sstream>

namespace hwpat {

void TextTable::header(std::vector<std::string> cells) {
  rows_.insert(rows_.begin() + header_rows_, std::move(cells));
  ++header_rows_;
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths;
  for (const auto& r : rows_) {
    if (widths.size() < r.size()) widths.resize(r.size(), 0);
    for (std::size_t i = 0; i < r.size(); ++i)
      widths[i] = std::max(widths[i], r[i].size());
  }
  std::ostringstream os;
  int printed = 0;
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << r[i];
      if (i + 1 < r.size())
        os << std::string(widths[i] - r[i].size() + 2, ' ');
    }
    os << '\n';
    ++printed;
    if (printed == header_rows_) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < widths.size(); ++i)
        total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
      os << std::string(total, '-') << '\n';
    }
  }
  return os.str();
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

}  // namespace hwpat
