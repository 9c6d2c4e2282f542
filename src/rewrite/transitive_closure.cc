#include "rewrite/transitive_closure.h"

#include <unordered_set>

#include "common/check.h"
#include "obs/trace.h"

namespace joinest {

ClosureResult ComputeTransitiveClosure(const std::vector<Predicate>& input,
                                       const ClosureOptions& options) {
  Span span("rewrite::transitive_closure", "input_predicates",
            static_cast<int64_t>(input.size()));
  ClosureResult result;
  // Step 1 of Algorithm ELS: remove duplicate predicates.
  result.predicates = DeduplicatePredicates(input);
  result.classes = EquivalenceClasses::Build(result.predicates);
  if (!options.enabled) return result;
  const size_t num_given = result.predicates.size();

  std::unordered_set<Predicate, PredicateHash> seen;
  for (const Predicate& p : result.predicates) seen.insert(p.Canonical());
  auto emit = [&](Predicate p) {
    if (seen.insert(p.Canonical()).second) {
      result.predicates.push_back(std::move(p));
      ++result.num_derived;
    }
  };

  // Rules a–d: the fixpoint of equality implication is "every pair of
  // columns within an equivalence class is equal".
  const EquivalenceClasses& classes = result.classes;
  for (int c = 0; c < classes.num_classes(); ++c) {
    const std::vector<ColumnRef>& members = classes.members(c);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (members[i].table == members[j].table) {
          emit(Predicate::LocalColCol(members[i], CompareOp::kEq,
                                      members[j]));
        } else {
          emit(Predicate::Join(members[i], members[j]));
        }
      }
    }
  }

  // Rule e: propagate constant predicates across each class. Collect first
  // (emitting while iterating would reallocate result.predicates).
  std::vector<Predicate> propagated;
  for (const Predicate& p : result.predicates) {
    if (p.kind != Predicate::Kind::kLocalConst) continue;
    const int class_id = classes.ClassOf(p.left);
    if (class_id < 0) continue;
    for (const ColumnRef& member : classes.members(class_id)) {
      if (member == p.left) continue;
      propagated.push_back(
          Predicate::LocalConst(member, p.op, p.constant));
    }
  }
  for (Predicate& p : propagated) emit(std::move(p));

  // Every derived predicate equates two members of one class or restricts
  // a member, so it names no new column and merges no classes: the classes
  // built over the given predicates are those of the closed set. Closure
  // only appends, and the derived count must reconcile with the growth.
  JOINEST_DCHECK_EQ(result.predicates.size(),
                    num_given + static_cast<size_t>(result.num_derived))
      << "derived-predicate accounting is inconsistent";
  span.SetArg("derived_predicates", result.num_derived);
  return result;
}

}  // namespace joinest
