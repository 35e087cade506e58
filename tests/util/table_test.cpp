#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace vihot::util {
namespace {

TEST(TableTest, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(TableTest, BannerContainsTitle) {
  std::ostringstream os;
  banner(os, "Fig. 10a");
  EXPECT_NE(os.str().find("Fig. 10a"), std::string::npos);
}

TEST(TableTest, CdfAsciiRendersBars) {
  std::ostringstream os;
  print_cdf_ascii(os, {{0.0, 0.0}, {5.0, 0.5}, {10.0, 1.0}}, "deg", 10);
  const std::string out = os.str();
  EXPECT_NE(out.find("#####....."), std::string::npos);  // 0.5 bar
  EXPECT_NE(out.find("##########"), std::string::npos);  // 1.0 bar
}

}  // namespace
}  // namespace vihot::util
