// Tests for storage/csv.h: round-trips, quoting, malformed input.

#include <cstdio>
#include <sstream>

#include "gtest/gtest.h"
#include "storage/csv.h"

namespace joinest {
namespace {

Schema MixedSchema() {
  return Schema({{"id", TypeKind::kInt64},
                 {"score", TypeKind::kDouble},
                 {"name", TypeKind::kString}});
}

Table MixedTable() {
  Table table(MixedSchema());
  table.AppendRow({Value(int64_t{1}), Value(2.5), Value(std::string("ann"))});
  table.AppendRow(
      {Value(int64_t{-7}), Value(1.0 / 3), Value(std::string("bob"))});
  return table;
}

TEST(CsvTest, WriteProducesHeaderAndRows) {
  std::ostringstream out;
  WriteCsv(MixedTable(), out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "id,score,name");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 2), "1,");
}

TEST(CsvTest, RoundTripPreservesValues) {
  std::ostringstream out;
  Table original = MixedTable();
  WriteCsv(original, out);
  std::istringstream in(out.str());
  auto read = ReadCsv(MixedSchema(), in);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->num_rows(), original.num_rows());
  for (int64_t r = 0; r < original.num_rows(); ++r) {
    for (int c = 0; c < original.num_columns(); ++c) {
      EXPECT_EQ(read->at(r, c), original.at(r, c)) << r << "," << c;
    }
  }
}

TEST(CsvTest, QuotingRoundTrip) {
  Schema schema({{"s", TypeKind::kString}});
  Table table(schema);
  table.AppendRow({Value(std::string("comma, inside"))});
  table.AppendRow({Value(std::string("quote \" inside"))});
  table.AppendRow({Value(std::string("plain"))});
  std::ostringstream out;
  WriteCsv(table, out);
  std::istringstream in(out.str());
  auto read = ReadCsv(schema, in);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->num_rows(), 3);
  EXPECT_EQ(read->at(0, 0).AsString(), "comma, inside");
  EXPECT_EQ(read->at(1, 0).AsString(), "quote \" inside");
  EXPECT_EQ(read->at(2, 0).AsString(), "plain");
}

TEST(CsvTest, HeaderMismatchRejected) {
  std::istringstream in("wrong,score,name\n1,2.5,x\n");
  EXPECT_FALSE(ReadCsv(MixedSchema(), in).ok());
}

TEST(CsvTest, ColumnCountMismatchRejected) {
  std::istringstream in("id,score\n1,2.5\n");
  EXPECT_FALSE(ReadCsv(MixedSchema(), in).ok());
}

TEST(CsvTest, RaggedRowRejected) {
  std::istringstream in("id,score,name\n1,2.5\n");
  const auto result = ReadCsv(MixedSchema(), in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, BadIntegerRejected) {
  std::istringstream in("id,score,name\nxyz,2.5,a\n");
  EXPECT_FALSE(ReadCsv(MixedSchema(), in).ok());
}

TEST(CsvTest, BadDoubleRejected) {
  std::istringstream in("id,score,name\n1,notanumber,a\n");
  EXPECT_FALSE(ReadCsv(MixedSchema(), in).ok());
}

// Typed storage holds int64s and finite doubles: an int64 beyond range
// must not saturate to INT64_MAX, and NaN or an infinity must not load.
// Each rejection names its line.
TEST(CsvTest, OutOfRangeInt64Rejected) {
  std::istringstream in("id,score,name\n1,2.5,a\n99999999999999999999,2.5,b\n");
  auto table = ReadCsv(MixedSchema(), in);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().ToString().find("line 3"), std::string::npos)
      << table.status();
}

TEST(CsvTest, NonFiniteDoublesRejected) {
  for (const char* text : {"nan", "inf", "-inf", "1e400"}) {
    std::istringstream in(std::string("id,score,name\n1,") + text + ",a\n");
    auto table = ReadCsv(MixedSchema(), in);
    ASSERT_FALSE(table.ok()) << text;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(table.status().ToString().find("line 2"), std::string::npos)
        << table.status();
  }
}

TEST(CsvTest, EmptyInputRejected) {
  std::istringstream in("");
  EXPECT_FALSE(ReadCsv(MixedSchema(), in).ok());
}

TEST(CsvTest, HeaderOnlyGivesEmptyTable) {
  std::istringstream in("id,score,name\n");
  auto read = ReadCsv(MixedSchema(), in);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_rows(), 0);
}

TEST(CsvTest, BlankLinesSkipped) {
  std::istringstream in("id,score,name\n1,2.5,a\n\n2,3.5,b\n");
  auto read = ReadCsv(MixedSchema(), in);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), 2);
}

TEST(CsvTest, CrlfTolerated) {
  std::istringstream in("id,score,name\r\n1,2.5,a\r\n");
  auto read = ReadCsv(MixedSchema(), in);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), 1);
  EXPECT_EQ(read->at(0, 2).AsString(), "a");
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  Schema schema({{"s", TypeKind::kString}});
  std::istringstream in("s\n\"oops\n");
  EXPECT_FALSE(ReadCsv(schema, in).ok());
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = "/tmp/joinest_csv_test.csv";
  Table original = MixedTable();
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  auto read = ReadCsvFile(MixedSchema(), path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), original.num_rows());
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileNotFound) {
  EXPECT_EQ(ReadCsvFile(MixedSchema(), "/nonexistent/nope.csv")
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace joinest
