#include "rewrite/equivalence.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "common/union_find.h"

namespace joinest {

EquivalenceClasses EquivalenceClasses::Build(
    const std::vector<Predicate>& predicates) {
  // Dense ids for every column mentioned by any predicate.
  std::unordered_map<ColumnRef, int, ColumnRefHash> dense;
  std::vector<ColumnRef> columns;
  auto id_of = [&](ColumnRef ref) {
    const auto [it, inserted] =
        dense.emplace(ref, static_cast<int>(columns.size()));
    if (inserted) columns.push_back(ref);
    return it->second;
  };
  for (const Predicate& p : predicates) {
    id_of(p.left);
    if (p.kind != Predicate::Kind::kLocalConst) id_of(p.right);
  }

  UnionFind sets(static_cast<int>(columns.size()));
  for (const Predicate& p : predicates) {
    if (p.kind == Predicate::Kind::kLocalConst || !p.is_equality()) continue;
    sets.Union(id_of(p.left), id_of(p.right));
  }

  // One class per union-find root, members sorted by (table, column); the
  // classes are then ordered by their smallest member, so ids do not depend
  // on which member union-find made the root.
  std::vector<std::vector<ColumnRef>> by_root(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    by_root[static_cast<size_t>(sets.Find(static_cast<int>(i)))].push_back(
        columns[i]);
  }
  EquivalenceClasses result;
  for (std::vector<ColumnRef>& members : by_root) {
    if (members.empty()) continue;
    std::sort(members.begin(), members.end());
    result.classes_.push_back(std::move(members));
  }
  std::sort(result.classes_.begin(), result.classes_.end(),
            [](const std::vector<ColumnRef>& a,
               const std::vector<ColumnRef>& b) { return a[0] < b[0]; });
  result.class_of_.reserve(columns.size());
  size_t total_members = 0;
  for (size_t c = 0; c < result.classes_.size(); ++c) {
    JOINEST_DCHECK(!result.classes_[c].empty()) << "empty equivalence class";
    total_members += result.classes_[c].size();
    for (const ColumnRef& ref : result.classes_[c]) {
      result.class_of_[ref] = static_cast<int>(c);
    }
  }
  // Classes partition the mentioned columns: disjoint (no column maps to two
  // classes) and complete (every column maps somewhere).
  JOINEST_DCHECK_EQ(total_members, result.class_of_.size())
      << "equivalence classes overlap";
  JOINEST_DCHECK_EQ(total_members, columns.size())
      << "equivalence classes lost a column";
  return result;
}

int EquivalenceClasses::ClassOf(ColumnRef column) const {
  const auto it = class_of_.find(column);
  return it == class_of_.end() ? -1 : it->second;
}

const std::vector<ColumnRef>& EquivalenceClasses::members(int id) const {
  JOINEST_CHECK_GE(id, 0);
  JOINEST_CHECK_LT(id, num_classes());
  return classes_[id];
}

std::vector<ColumnRef> EquivalenceClasses::MembersOfTable(int id,
                                                          int table) const {
  std::vector<ColumnRef> result;
  for (const ColumnRef& ref : members(id)) {
    if (ref.table == table) result.push_back(ref);
  }
  return result;
}

std::vector<int> EquivalenceClasses::TablesOfClass(int id) const {
  std::vector<int> result;
  for (const ColumnRef& ref : members(id)) {
    if (result.empty() || result.back() != ref.table) {
      result.push_back(ref.table);
    }
  }
  // Members are sorted by (table, column), so duplicates are adjacent and
  // the table list comes out sorted.
  return result;
}

}  // namespace joinest
