// Tests for types/: Value semantics and Schema resolution.

#include <cstdint>

#include "gtest/gtest.h"
#include "types/cell.h"
#include "types/schema.h"
#include "types/value.h"

namespace joinest {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value(int64_t{5}).type(), TypeKind::kInt64);
  EXPECT_EQ(Value(2.5).type(), TypeKind::kDouble);
  EXPECT_EQ(Value(std::string("hi")).type(), TypeKind::kString);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value(std::string("abc")).AsString(), "abc");
}

TEST(ValueTest, ToNumericWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{9}).ToNumeric(), 9.0);
  EXPECT_DOUBLE_EQ(Value(0.25).ToNumeric(), 0.25);
}

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(int64_t{4}));
  EXPECT_EQ(Value(std::string("a")), Value(std::string("a")));
  EXPECT_NE(Value(std::string("a")), Value(std::string("b")));
}

TEST(ValueTest, MixedNumericEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
}

TEST(ValueTest, OrderingSameType) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(std::string("abc")), Value(std::string("abd")));
  EXPECT_FALSE(Value(int64_t{2}) < Value(int64_t{1}));
}

TEST(ValueTest, OrderingMixedNumeric) {
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_LT(Value(0.5), Value(int64_t{1}));
}

// int64 and double compare exactly: 2^53 + 1 has no double, so widening
// it would round it onto 2^53.
TEST(ValueTest, MixedNumericComparisonIsExact) {
  const Value big_int(int64_t{9007199254740993});
  const Value big_double(9007199254740992.0);
  EXPECT_FALSE(big_int == big_double);
  EXPECT_TRUE(big_int != big_double);
  EXPECT_TRUE(big_double < big_int);
  EXPECT_FALSE(big_int < big_double);
  EXPECT_FALSE(big_int <= big_double);
  EXPECT_TRUE(big_int > big_double);
  EXPECT_TRUE(Value(int64_t{9007199254740992}) == big_double);
  // Beyond the int64 range and between integers.
  EXPECT_TRUE(Value(int64_t{INT64_MAX}) < Value(9223372036854775808.0));
  EXPECT_TRUE(Value(-9223372036854777856.0) < Value(int64_t{INT64_MIN}));
  EXPECT_TRUE(Value(int64_t{-3}) < Value(-2.5));
  EXPECT_TRUE(Value(-3.5) < Value(int64_t{-3}));
}

TEST(ValueTest, ComparisonOperatorsConsistent) {
  const Value a(int64_t{1}), b(int64_t{2});
  EXPECT_TRUE(a <= b);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(b >= b);
  EXPECT_FALSE(a >= b);
}

TEST(ValueTest, HashEqualValuesEqualHashes) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_EQ(Value(std::string("x")).Hash(), Value(std::string("x")).Hash());
  // Mixed-type equal values hash identically (hash-join correctness).
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(42.0).Hash());
}

TEST(ValueTest, HashSpreadsDenseKeys) {
  // Dense integer keys must not collide pairwise in the low bits.
  std::set<size_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) hashes.insert(Value(i).Hash());
  EXPECT_EQ(hashes.size(), 1000u);
}

// A numeric cell hashes as its Value does, so predicate transfer's filters
// select the same rows whichever side of the edge hashed them; a string
// cell hashes its dictionary code, and one code is one string.
TEST(ValueTest, CellHashMatchesValueHash) {
  for (const int64_t v : {int64_t{0}, int64_t{-7}, int64_t{4000000000},
                          int64_t{9007199254740993}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(HashCell(TypeKind::kInt64, v), Value(v).Hash()) << v;
  }
  for (const double d : {0.0, -0.0, 3.0, 2.5, -7.0, 1e19, 9007199254740992.0,
                         -9223372036854775808.0, 9223372036854775808.0}) {
    EXPECT_EQ(HashCell(TypeKind::kDouble, DoubleCell(d)), Value(d).Hash())
        << d;
  }
  EXPECT_EQ(HashCell(TypeKind::kDouble, DoubleCell(-0.0)),
            HashCell(TypeKind::kInt64, 0));
  EXPECT_NE(HashCell(TypeKind::kDouble, DoubleCell(9007199254740992.0)),
            HashCell(TypeKind::kInt64, 9007199254740993));
  const Cell pear = StringDictionary::Global().Intern("hash-pear");
  EXPECT_EQ(HashCell(TypeKind::kString, pear),
            HashCell(TypeKind::kString,
                     StringDictionary::Global().Intern("hash-pear")));
  EXPECT_NE(HashCell(TypeKind::kString, pear),
            HashCell(TypeKind::kString,
                     StringDictionary::Global().Intern("hash-plum")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value(std::string("s")).ToString(), "s");
  EXPECT_EQ(Value(2.0).ToString(), "2");
}

TEST(SchemaTest, ColumnLookup) {
  Schema schema({{"id", TypeKind::kInt64}, {"name", TypeKind::kString}});
  EXPECT_EQ(schema.num_columns(), 2);
  EXPECT_EQ(schema.FindColumn("id"), 0);
  EXPECT_EQ(schema.FindColumn("name"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

TEST(SchemaTest, ResolveColumnErrors) {
  Schema schema({{"id", TypeKind::kInt64}});
  EXPECT_TRUE(schema.ResolveColumn("id").ok());
  const auto missing = schema.ResolveColumn("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ColumnMetadata) {
  Schema schema({{"id", TypeKind::kInt64}, {"score", TypeKind::kDouble}});
  EXPECT_EQ(schema.column(1).name, "score");
  EXPECT_EQ(schema.column(1).type, TypeKind::kDouble);
}

TEST(SchemaTest, ToStringListsColumns) {
  Schema schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kString}});
  EXPECT_EQ(schema.ToString(), "(a INT64, b STRING)");
}

TEST(SchemaTest, EmptySchema) {
  Schema schema;
  EXPECT_EQ(schema.num_columns(), 0);
  EXPECT_EQ(schema.FindColumn("x"), -1);
}

}  // namespace
}  // namespace joinest
