// Tests for rewrite/: equivalence classes, the five transitive-closure
// rules, duplicate elimination, and multi-local-predicate merging.

#include "gtest/gtest.h"
#include "rewrite/equivalence.h"
#include "rewrite/local_merge.h"
#include "rewrite/transitive_closure.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

bool Contains(const std::vector<Predicate>& predicates, const Predicate& p) {
  const Predicate canonical = p.Canonical();
  for (const Predicate& q : predicates) {
    if (q.Canonical() == canonical) return true;
  }
  return false;
}

// ---------------------------------------------------------------- Classes

TEST(EquivalenceTest, JoinPredicatesMergeAcrossTables) {
  // x=y, y=z puts x, y, z in one class (the paper's Example 1a).
  const std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  EXPECT_EQ(classes.num_classes(), 1);
  EXPECT_TRUE(classes.SameClass(ColumnRef{0, 0}, ColumnRef{2, 0}));
}

TEST(EquivalenceTest, SeparateClassesStaySeparate) {
  const std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 1}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  EXPECT_EQ(classes.num_classes(), 2);
  EXPECT_FALSE(classes.SameClass(ColumnRef{0, 0}, ColumnRef{0, 1}));
}

TEST(EquivalenceTest, NonEqualityDoesNotMerge) {
  const std::vector<Predicate> predicates = {
      Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kLt,
                             ColumnRef{0, 1}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  EXPECT_EQ(classes.num_classes(), 2);  // Two singletons.
  EXPECT_FALSE(classes.SameClass(ColumnRef{0, 0}, ColumnRef{0, 1}));
}

TEST(EquivalenceTest, LocalEqualityMergesWithinTable) {
  const std::vector<Predicate> predicates = {
      Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                             ColumnRef{0, 1}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  EXPECT_TRUE(classes.SameClass(ColumnRef{0, 0}, ColumnRef{0, 1}));
}

TEST(EquivalenceTest, ClassOfUnknownColumnIsMinusOne) {
  const EquivalenceClasses classes = EquivalenceClasses::Build({});
  EXPECT_EQ(classes.ClassOf(ColumnRef{5, 5}), -1);
}

TEST(EquivalenceTest, MembersSortedAndComplete) {
  const std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{2, 0}, ColumnRef{0, 0}),
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 3}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  ASSERT_EQ(classes.num_classes(), 1);
  const auto& members = classes.members(0);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], (ColumnRef{0, 0}));
  EXPECT_EQ(members[1], (ColumnRef{1, 3}));
  EXPECT_EQ(members[2], (ColumnRef{2, 0}));
}

TEST(EquivalenceTest, MembersOfTableFilters) {
  const std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 1}),
  };
  const EquivalenceClasses classes = EquivalenceClasses::Build(predicates);
  ASSERT_EQ(classes.num_classes(), 1);
  EXPECT_EQ(classes.MembersOfTable(0, 1).size(), 2u);
  EXPECT_EQ(classes.MembersOfTable(0, 0).size(), 1u);
}

// ---------------------------------------------------------------- Closure

TEST(ClosureTest, RuleA_JoinJoinImpliesJoin) {
  // (R1.x = R2.y) AND (R2.y = R3.z) ⇒ (R1.x = R3.z).
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_TRUE(Contains(result.predicates,
                       Predicate::Join(ColumnRef{0, 0}, ColumnRef{2, 0})));
  EXPECT_EQ(result.num_derived, 1);
}

TEST(ClosureTest, RuleB_JoinJoinImpliesLocal) {
  // (R1.x = R2.y) AND (R1.x = R2.w) ⇒ (R2.y = R2.w).
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 1}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_TRUE(Contains(
      result.predicates,
      Predicate::LocalColCol(ColumnRef{1, 0}, CompareOp::kEq,
                             ColumnRef{1, 1})));
}

TEST(ClosureTest, RuleC_LocalLocalImpliesLocal) {
  // (R1.x = R1.y) AND (R1.y = R1.z) ⇒ (R1.x = R1.z).
  const std::vector<Predicate> input = {
      Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                             ColumnRef{0, 1}),
      Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kEq,
                             ColumnRef{0, 2}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_TRUE(Contains(
      result.predicates,
      Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                             ColumnRef{0, 2})));
}

TEST(ClosureTest, RuleD_JoinLocalImpliesJoin) {
  // (R1.x = R2.y) AND (R1.x = R1.v) ⇒ (R2.y = R1.v).
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                             ColumnRef{0, 1}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_TRUE(Contains(result.predicates,
                       Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 0})));
}

TEST(ClosureTest, RuleE_JoinConstantImpliesConstant) {
  // (R1.x = R2.y) AND (R1.x op c) ⇒ (R2.y op c).
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(100)),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_TRUE(Contains(
      result.predicates,
      Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kLt, V(100))));
}

TEST(ClosureTest, RuleE_PropagatesAllOperators) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}) {
    const std::vector<Predicate> input = {
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
        Predicate::LocalConst(ColumnRef{0, 0}, op, V(7)),
    };
    const ClosureResult result = ComputeTransitiveClosure(input);
    EXPECT_TRUE(Contains(result.predicates,
                         Predicate::LocalConst(ColumnRef{1, 0}, op, V(7))));
  }
}

TEST(ClosureTest, PaperSection8Closure) {
  // s=m, m=b, b=g, s<100 closes to 6 join predicates + 4 constants.
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
      Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}),
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(100)),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  int joins = 0, constants = 0;
  for (const Predicate& p : result.predicates) {
    if (p.kind == Predicate::Kind::kJoin) ++joins;
    if (p.kind == Predicate::Kind::kLocalConst) ++constants;
  }
  EXPECT_EQ(joins, 6);      // All pairs of {s, m, b, g}.
  EXPECT_EQ(constants, 4);  // s<100 propagated to m, b, g.
  EXPECT_EQ(result.classes.num_classes(), 1);
}

TEST(ClosureTest, DisabledOnlyDeduplicates) {
  const Predicate join = Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0});
  const std::vector<Predicate> input = {
      join, join, Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0})};
  ClosureOptions options;
  options.enabled = false;
  const ClosureResult result = ComputeTransitiveClosure(input, options);
  EXPECT_EQ(result.predicates.size(), 2u);
  EXPECT_EQ(result.num_derived, 0);
  // Classes are still built (estimation rules need them).
  EXPECT_EQ(result.classes.num_classes(), 1);
}

TEST(ClosureTest, IdempotentOnClosedSets) {
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(5)),
  };
  const ClosureResult once = ComputeTransitiveClosure(input);
  const ClosureResult twice = ComputeTransitiveClosure(once.predicates);
  EXPECT_EQ(twice.predicates.size(), once.predicates.size());
  EXPECT_EQ(twice.num_derived, 0);
}

TEST(ClosureTest, OriginalPredicatesComeFirst) {
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  ASSERT_GE(result.predicates.size(), 2u);
  EXPECT_EQ(result.predicates[0], input[0]);
  EXPECT_EQ(result.predicates[1], input[1]);
}

TEST(ClosureTest, DerivedEqualityCountIsAllPairs) {
  // A 4-column chain closes to C(4,2) = 6 equalities.
  const std::vector<Predicate> input = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}),
      Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}),
  };
  const ClosureResult result = ComputeTransitiveClosure(input);
  EXPECT_EQ(result.predicates.size(), 6u);
}

// ---------------------------------------------------------------- Merge

ColumnRestriction Merge(std::vector<std::pair<CompareOp, int64_t>> preds) {
  std::vector<Predicate> predicates;
  for (const auto& [op, c] : preds) {
    predicates.push_back(
        Predicate::LocalConst(ColumnRef{0, 0}, op, V(c)));
  }
  return MergeColumnPredicates(predicates);
}

TEST(LocalMergeTest, EmptyIsUnrestricted) {
  const ColumnRestriction r = MergeColumnPredicates({});
  EXPECT_TRUE(r.IsUnrestricted());
}

TEST(LocalMergeTest, SingleEquality) {
  const ColumnRestriction r = Merge({{CompareOp::kEq, 5}});
  ASSERT_TRUE(r.equals.has_value());
  EXPECT_EQ(r.equals->AsInt64(), 5);
}

TEST(LocalMergeTest, ConflictingEqualitiesContradict) {
  EXPECT_TRUE(Merge({{CompareOp::kEq, 3}, {CompareOp::kEq, 5}}).contradictory);
}

TEST(LocalMergeTest, EqualityDominatesCompatibleRange) {
  const ColumnRestriction r =
      Merge({{CompareOp::kLt, 10}, {CompareOp::kEq, 5}});
  EXPECT_FALSE(r.contradictory);
  ASSERT_TRUE(r.equals.has_value());
  EXPECT_FALSE(r.lower.has_value());
  EXPECT_FALSE(r.upper.has_value());
}

TEST(LocalMergeTest, EqualityOutsideRangeContradicts) {
  EXPECT_TRUE(Merge({{CompareOp::kLt, 5}, {CompareOp::kEq, 7}}).contradictory);
  EXPECT_TRUE(Merge({{CompareOp::kGt, 5}, {CompareOp::kEq, 5}}).contradictory);
}

TEST(LocalMergeTest, TightestRangePairChosen) {
  // The paper ([16]): choose the pair of range predicates forming the
  // tightest bound.
  const ColumnRestriction r = Merge({{CompareOp::kGt, 2},
                                     {CompareOp::kGe, 5},
                                     {CompareOp::kLt, 100},
                                     {CompareOp::kLe, 50}});
  ASSERT_TRUE(r.lower.has_value());
  EXPECT_EQ(r.lower->AsInt64(), 5);
  EXPECT_TRUE(r.lower_inclusive);
  ASSERT_TRUE(r.upper.has_value());
  EXPECT_EQ(r.upper->AsInt64(), 50);
  EXPECT_TRUE(r.upper_inclusive);
}

TEST(LocalMergeTest, StrictBeatsInclusiveAtSameBound) {
  const ColumnRestriction r =
      Merge({{CompareOp::kLe, 10}, {CompareOp::kLt, 10}});
  EXPECT_FALSE(r.upper_inclusive);
}

TEST(LocalMergeTest, EmptyRangeContradicts) {
  EXPECT_TRUE(Merge({{CompareOp::kLt, 2}, {CompareOp::kGt, 7}}).contradictory);
  EXPECT_TRUE(
      Merge({{CompareOp::kLt, 5}, {CompareOp::kGt, 5}}).contradictory);
}

TEST(LocalMergeTest, PinnedRangeBecomesEquality) {
  const ColumnRestriction r =
      Merge({{CompareOp::kLe, 5}, {CompareOp::kGe, 5}});
  EXPECT_FALSE(r.contradictory);
  ASSERT_TRUE(r.equals.has_value());
  EXPECT_EQ(r.equals->AsInt64(), 5);
}

TEST(LocalMergeTest, NotEqualAgainstEqualityContradicts) {
  EXPECT_TRUE(Merge({{CompareOp::kEq, 5}, {CompareOp::kNe, 5}}).contradictory);
  EXPECT_FALSE(
      Merge({{CompareOp::kEq, 5}, {CompareOp::kNe, 6}}).contradictory);
}

TEST(LocalMergeTest, IrrelevantExclusionsDropped) {
  const ColumnRestriction r =
      Merge({{CompareOp::kLt, 10}, {CompareOp::kNe, 50}});
  EXPECT_TRUE(r.excluded.empty());
}

TEST(LocalMergeTest, DuplicateExclusionsCollapse) {
  const ColumnRestriction r =
      Merge({{CompareOp::kNe, 5}, {CompareOp::kNe, 5}});
  EXPECT_EQ(r.excluded.size(), 1u);
}

// ------------------------------------------------------ Local selectivity

ColumnStats UniformStats(double d, double min, double max) {
  ColumnStats stats;
  stats.distinct_count = d;
  stats.min = min;
  stats.max = max;
  return stats;
}

TEST(LocalSelectivityTest, EqualityIsOneOverD) {
  const ColumnRestriction r = Merge({{CompareOp::kEq, 5}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(100, 0, 99));
  EXPECT_DOUBLE_EQ(est.selectivity, 0.01);
  EXPECT_DOUBLE_EQ(est.distinct_after, 1);
}

TEST(LocalSelectivityTest, PaperRangeSelectivity) {
  // s < 100 over a key column {0..999}: exactly 0.1 — the §8 experiment's
  // local selectivity.
  const ColumnRestriction r = Merge({{CompareOp::kLt, 100}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(1000, 0, 999));
  EXPECT_DOUBLE_EQ(est.selectivity, 0.1);
  EXPECT_DOUBLE_EQ(est.distinct_after, 100);  // d × S_L (paper §5).
}

TEST(LocalSelectivityTest, ContradictionIsZero) {
  const ColumnRestriction r = Merge({{CompareOp::kEq, 1}, {CompareOp::kEq, 2}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(100, 0, 99));
  EXPECT_DOUBLE_EQ(est.selectivity, 0);
  EXPECT_DOUBLE_EQ(est.distinct_after, 0);
}

TEST(LocalSelectivityTest, UnrestrictedIsOne) {
  const auto est = EstimateLocalSelectivity(MergeColumnPredicates({}),
                                            UniformStats(100, 0, 99));
  EXPECT_DOUBLE_EQ(est.selectivity, 1.0);
  EXPECT_DOUBLE_EQ(est.distinct_after, 100);
}

TEST(LocalSelectivityTest, BoundedRangeInterpolates) {
  // 25 <= x <= 74 over {0..99}: half the domain.
  const ColumnRestriction r =
      Merge({{CompareOp::kGe, 25}, {CompareOp::kLe, 74}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(100, 0, 99));
  EXPECT_NEAR(est.selectivity, 0.5, 0.01);
}

TEST(LocalSelectivityTest, NoStatsFallsBackToDefaults) {
  ColumnStats stats;  // No d, no min/max.
  const ColumnRestriction r = Merge({{CompareOp::kLt, 10}});
  const auto est = EstimateLocalSelectivity(r, stats);
  EXPECT_DOUBLE_EQ(est.selectivity, kDefaultRangeSelectivity);
}

TEST(LocalSelectivityTest, NotEqualChipsOneOverD) {
  const ColumnRestriction r = Merge({{CompareOp::kNe, 5}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(100, 0, 99));
  EXPECT_DOUBLE_EQ(est.selectivity, 0.99);
}

TEST(LocalSelectivityTest, HistogramOverridesUniformity) {
  // 90% of rows are 0; histogram should see that, uniformity would say 50%.
  std::vector<double> data(9000, 0.0);
  for (int i = 0; i < 1000; ++i) data.push_back(1.0);
  ColumnStats stats = UniformStats(2, 0, 1);
  stats.histogram =
      std::make_shared<Histogram>(Histogram::BuildEquiDepth(data, 8));
  const ColumnRestriction r = Merge({{CompareOp::kEq, 0}});
  const auto est = EstimateLocalSelectivity(r, stats);
  EXPECT_NEAR(est.selectivity, 0.9, 0.05);

  LocalSelectivityOptions no_hist;
  no_hist.use_histograms = false;
  const auto uniform = EstimateLocalSelectivity(r, stats, no_hist);
  EXPECT_DOUBLE_EQ(uniform.selectivity, 0.5);
}

TEST(LocalSelectivityTest, StringEqualityUsesUniformity) {
  ColumnStats stats;
  stats.distinct_count = 40;  // String column: no min/max, no histogram.
  std::vector<Predicate> predicates = {Predicate::LocalConst(
      ColumnRef{0, 0}, CompareOp::kEq, Value(std::string("bob")))};
  const ColumnRestriction r = MergeColumnPredicates(predicates);
  const auto est = EstimateLocalSelectivity(r, stats);
  EXPECT_DOUBLE_EQ(est.selectivity, 1.0 / 40);
  EXPECT_DOUBLE_EQ(est.distinct_after, 1);
}

TEST(LocalSelectivityTest, StringRangeUsesDefault) {
  ColumnStats stats;
  stats.distinct_count = 40;
  std::vector<Predicate> predicates = {Predicate::LocalConst(
      ColumnRef{0, 0}, CompareOp::kLt, Value(std::string("m")))};
  const ColumnRestriction r = MergeColumnPredicates(predicates);
  const auto est = EstimateLocalSelectivity(r, stats);
  EXPECT_DOUBLE_EQ(est.selectivity, kDefaultRangeSelectivity);
}

TEST(LocalSelectivityTest, RangeClampedToDomain) {
  // x < 1e9 over {0..99} selects everything.
  const ColumnRestriction r = Merge({{CompareOp::kLt, 1000000000}});
  const auto est = EstimateLocalSelectivity(r, UniformStats(100, 0, 99));
  EXPECT_DOUBLE_EQ(est.selectivity, 1.0);
}

}  // namespace
}  // namespace joinest

namespace joinest {
namespace {

// The closure keeps the classes it built over the given predicates; they
// must be the classes of its closed set, members and ids alike.
TEST(ClosureClasses, EqualClassesBuiltOverTheClosedSet) {
  const std::vector<std::vector<Predicate>> inputs = {
      {Predicate::Join({0, 0}, {1, 0}), Predicate::Join({1, 0}, {2, 1}),
       Predicate::LocalConst({0, 0}, CompareOp::kLt, Value(int64_t{50}))},
      {Predicate::Join({0, 1}, {1, 0}), Predicate::Join({0, 2}, {1, 0}),
       Predicate::LocalColCol({2, 0}, CompareOp::kEq, {2, 1}),
       Predicate::Join({2, 1}, {3, 0}),
       Predicate::LocalColCol({3, 1}, CompareOp::kLt, {3, 2}),
       Predicate::LocalConst({3, 0}, CompareOp::kEq, Value(int64_t{7})),
       Predicate::LocalConst({1, 1}, CompareOp::kGe, Value(2.5))},
      {Predicate::Join({0, 0}, {1, 0}), Predicate::Join({1, 1}, {2, 1}),
       Predicate::Join({2, 0}, {0, 0}), Predicate::Join({3, 2}, {1, 1}),
       Predicate::LocalColCol({1, 0}, CompareOp::kEq, {1, 1})},
  };
  for (const std::vector<Predicate>& input : inputs) {
    for (bool enabled : {true, false}) {
      ClosureOptions options;
      options.enabled = enabled;
      const ClosureResult closure = ComputeTransitiveClosure(input, options);
      const EquivalenceClasses rebuilt =
          EquivalenceClasses::Build(closure.predicates);
      EXPECT_EQ(closure.classes.classes(), rebuilt.classes());
      for (const std::vector<ColumnRef>& members : rebuilt.classes()) {
        for (const ColumnRef& ref : members) {
          EXPECT_EQ(closure.classes.ClassOf(ref), rebuilt.ClassOf(ref));
        }
      }
    }
  }
}

}  // namespace
}  // namespace joinest
