// Console table / CSV rendering for the bench harnesses.
//
// Every bench binary prints the rows or series of one paper table/figure;
// this keeps the formatting in one place so outputs stay uniform and easy
// to diff against EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vihot::util {

/// A simple left-aligned text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with column widths fitted to content.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (default 2 digits).
[[nodiscard]] std::string fmt(double v, int precision = 2);

/// Prints a bench section banner, e.g. "== Fig. 10a: ... ==".
void banner(std::ostream& os, const std::string& title);

/// Renders an ASCII sparkline-style CDF curve: one row per grid point.
/// Useful for eyeballing the CDF figures directly in the terminal.
void print_cdf_ascii(std::ostream& os,
                     const std::vector<std::pair<double, double>>& curve,
                     const std::string& x_label, int bar_width = 50);

}  // namespace vihot::util
