// Predicate transitive closure (paper §4 step 2).
//
// Five variations of implication are generated to a fixpoint:
//   a. join + join   → join     (R1.x=R2.y) ∧ (R2.y=R3.z) ⇒ (R1.x=R3.z)
//   b. join + join   → local    (R1.x=R2.y) ∧ (R1.x=R2.w) ⇒ (R2.y=R2.w)
//   c. local + local → local    (R1.x=R1.y) ∧ (R1.y=R1.z) ⇒ (R1.x=R1.z)
//   d. join + local  → join     (R1.x=R2.y) ∧ (R1.x=R1.v) ⇒ (R2.y=R1.v)
//   e. join + local-constant → local-constant
//                               (R1.x=R2.y) ∧ (R1.x op c) ⇒ (R2.y op c)
//
// Rules a–d have a compact fixpoint: after building equivalence classes over
// all equality column-column predicates, the closure contains an equality
// predicate between *every pair* of columns in each class. Rule e then
// copies every constant predicate on a class member to all other members.
// No implied predicate names a new column or joins two classes, so the
// classes built over the given predicates are the closed set's classes and
// are built once.
//
// In Starburst this ran as a query rewrite rule that could be disabled for
// the experiments; ClosureOptions::enabled mirrors that switch.

#ifndef JOINEST_REWRITE_TRANSITIVE_CLOSURE_H_
#define JOINEST_REWRITE_TRANSITIVE_CLOSURE_H_

#include <vector>

#include "query/predicate.h"
#include "rewrite/equivalence.h"

namespace joinest {

struct ClosureOptions {
  // When false, only duplicate elimination runs (no implied predicates) —
  // the paper's "Orig." configuration.
  bool enabled = true;
};

struct ClosureResult {
  // Deduplicated original predicates plus (if enabled) all implied ones.
  // Original predicates come first, in input order.
  std::vector<Predicate> predicates;
  // Classes over the closed predicate set.
  EquivalenceClasses classes;
  // How many of `predicates` were derived rather than given.
  int num_derived = 0;
};

ClosureResult ComputeTransitiveClosure(const std::vector<Predicate>& input,
                                       const ClosureOptions& options = {});

}  // namespace joinest

#endif  // JOINEST_REWRITE_TRANSITIVE_CLOSURE_H_
