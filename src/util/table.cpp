#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

namespace vihot::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

void banner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

void print_cdf_ascii(std::ostream& os,
                     const std::vector<std::pair<double, double>>& curve,
                     const std::string& x_label, int bar_width) {
  os << "  " << x_label << "  CDF\n";
  for (const auto& [x, p] : curve) {
    const int filled =
        static_cast<int>(std::round(p * static_cast<double>(bar_width)));
    os << "  " << fmt(x, 1) << "\t" << fmt(p, 2) << " |"
       << std::string(static_cast<std::size_t>(filled), '#')
       << std::string(static_cast<std::size_t>(bar_width - filled), '.')
       << "|\n";
  }
}

}  // namespace vihot::util
