// Canonical fingerprints for the estimation service's cache keys.
//
// A cache entry is valid iff three things match: WHAT is being asked (the
// query), AGAINST WHICH statistics (the catalog snapshot) and UNDER WHICH
// configuration (the estimation / optimizer options). Each dimension gets
// its own 64-bit digest:
//
//   * QuerySpecFingerprint — semantic identity of a resolved QuerySpec.
//     Predicates are canonicalised (operand order normalised via
//     Predicate::Canonical) and combined order-independently, so
//     `WHERE a.x = b.y AND a.k < 3` and `WHERE a.k < 3 AND b.y = a.x`
//     collide on purpose. Table aliases do not participate (they change
//     names, not semantics); catalog ids, projection, COUNT(*) and
//     GROUP BY do.
//   * EstimationOptionsDigest / OptimizerOptionsDigest / AnalyzeOptionsDigest
//     — field-wise digests of the knob structs. Any knob that can change a
//     result participates.
//   * TableDigest — one table's name, schema and statistics: everything
//     Estimate and Optimize read from the catalog about it. CatalogSnapshot
//     computes one per table, and the service cache keys and reclaims its
//     entries by the digests of the tables a query reads (service/cache.h),
//     so a republish that leaves a table's digest alone keeps every cached
//     analysis and plan over it.
//
// All digests are FNV-1a over the fields' raw bytes — deterministic within
// a process run and across runs (no pointer values, no container addresses).

#ifndef JOINEST_SERVICE_FINGERPRINT_H_
#define JOINEST_SERVICE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "estimator/analyzed_query.h"
#include "optimizer/optimizer.h"
#include "query/query_spec.h"
#include "stats/column_stats.h"
#include "storage/analyze.h"
#include "types/schema.h"

namespace joinest {

// Incremental FNV-1a (64-bit). Mix* methods fold a field into the state;
// the order of Mix calls is part of the digest, so callers fix a canonical
// field order.
class Fingerprint {
 public:
  uint64_t digest() const { return state_; }

  void MixBytes(const void* data, size_t size);
  void MixU64(uint64_t v);
  void MixI64(int64_t v) { MixU64(static_cast<uint64_t>(v)); }
  void MixInt(int v) { MixI64(v); }
  void MixBool(bool v) { MixU64(v ? 1 : 0); }
  // Bit pattern, not value: -0.0 and 0.0 digest differently, NaNs stably.
  void MixDouble(double v);
  void MixString(const std::string& s);

 private:
  uint64_t state_ = 14695981039346656037ull;  // FNV offset basis.
};

// Semantic identity of a resolved query (see file comment).
uint64_t QuerySpecFingerprint(const QuerySpec& spec);

// Canonical fingerprint of one join SUB-plan: the tables whose query-local
// index bit is set in `mask`, plus every predicate of `predicates` fully
// contained in the mask (both sides of a join, the single table of a local
// predicate). This is the key of the feedback store
// (estimator/feedback_store.h): an actual cardinality observed for a
// sub-plan in one query is served to every estimate whose sub-plan
// fingerprints the same.
//
// Canonicalisation, so equal sub-plans collide on purpose:
//   * tables participate by catalog NAME (not query-local position or
//     catalog id), ordered lexicographically — `FROM A, B` and `FROM B, A`
//     prefix-fingerprint identically, and the key survives republishes
//     that renumber catalog ids. Self-join aliases tie-break by query-local
//     index, keeping them distinct deterministic slots.
//   * predicate column refs are rewritten to the canonical table order,
//     each predicate is canonicalised (Predicate::Canonical) and digested
//     self-contained, and the digests combine order-independently —
//     conjunct order never matters.
//
// Pass the CLOSED predicate set (AnalyzedQuery::predicates()) for keys that
// match across syntactically different but semantically equal queries; the
// raw spec predicates work too but only match their own spelling.
uint64_t SubPlanFingerprint(const Catalog& catalog, const QuerySpec& spec,
                            const std::vector<Predicate>& predicates,
                            uint64_t mask);

// Field-wise digests of the option structs.
uint64_t EstimationOptionsDigest(const EstimationOptions& options);
uint64_t OptimizerOptionsDigest(const OptimizerOptions& options);
uint64_t AnalyzeOptionsDigest(const AnalyzeOptions& options);

// Digest of one catalog table as the estimator and optimizer see it: the
// name, each column's name and type, the row count and statistics source,
// and per column d, min, max, the distinct-count relative error and the
// histogram (kind and every bucket). Rows do not participate: a table's
// rows never change once it is registered.
uint64_t TableDigest(const std::string& name, const Schema& schema,
                     const TableStats& stats);

}  // namespace joinest

#endif  // JOINEST_SERVICE_FINGERPRINT_H_
