#include "service/fingerprint.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace joinest {

void Fingerprint::MixBytes(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 1099511628211ull;  // FNV prime.
  }
}

void Fingerprint::MixU64(uint64_t v) { MixBytes(&v, sizeof(v)); }

void Fingerprint::MixDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  MixU64(bits);
}

void Fingerprint::MixString(const std::string& s) {
  // Length-prefixed so ("ab","c") and ("a","bc") differ.
  MixU64(s.size());
  MixBytes(s.data(), s.size());
}

namespace {

void MixValue(Fingerprint& fp, const Value& v) {
  fp.MixInt(static_cast<int>(v.type()));
  switch (v.type()) {
    case TypeKind::kInt64:
      fp.MixI64(v.AsInt64());
      break;
    case TypeKind::kDouble:
      fp.MixDouble(v.AsDouble());
      break;
    case TypeKind::kString:
      fp.MixString(v.AsString());
      break;
  }
}

void MixColumnRef(Fingerprint& fp, const ColumnRef& ref) {
  fp.MixInt(ref.table);
  fp.MixInt(ref.column);
}

// Digest of one canonicalised predicate, self-contained so predicate
// digests can be combined order-independently.
uint64_t PredicateDigest(const Predicate& predicate) {
  const Predicate canonical = predicate.Canonical();
  Fingerprint fp;
  fp.MixInt(static_cast<int>(canonical.kind));
  MixColumnRef(fp, canonical.left);
  fp.MixInt(static_cast<int>(canonical.op));
  MixColumnRef(fp, canonical.right);
  MixValue(fp, canonical.constant);
  return fp.digest();
}

void MixEstimationOptions(Fingerprint& fp, const EstimationOptions& options) {
  fp.MixBool(options.transitive_closure);
  fp.MixBool(options.profile.apply_local_effects);
  fp.MixBool(options.profile.linear_distinct);
  fp.MixBool(options.profile.local.use_histograms);
  fp.MixInt(static_cast<int>(options.rule));
  fp.MixInt(static_cast<int>(options.representative));
  fp.MixBool(options.histogram_join_selectivity);
  // Runtime-selectivity feedback: the store's epoch advances with every
  // materially new observation, so cached estimates computed against stale
  // observations can never be served.
  fp.MixBool(options.runtime_selectivities != nullptr);
  fp.MixU64(options.runtime_selectivities != nullptr
                ? options.runtime_selectivities->epoch()
                : 0);
  // Cardinality feedback, same epoch contract. The injected fingerprint
  // routine deliberately does not participate: it is process state (a
  // function pointer), and there is exactly one canonical implementation.
  fp.MixBool(options.feedback.store != nullptr);
  fp.MixU64(options.feedback.store != nullptr ? options.feedback.store->epoch()
                                              : 0);
  fp.MixInt(options.feedback.store != nullptr ? options.feedback.min_tables
                                              : 0);
}

}  // namespace

uint64_t QuerySpecFingerprint(const QuerySpec& spec) {
  Fingerprint fp;
  // Which catalog tables, in query-local index order (predicates reference
  // tables positionally, so position matters; aliases do not).
  fp.MixInt(spec.num_tables());
  for (const TableRef& table : spec.tables) fp.MixInt(table.catalog_id);
  // Predicates, order-independently: a conjunction is a set.
  std::vector<uint64_t> digests;
  digests.reserve(spec.predicates.size());
  for (const Predicate& p : spec.predicates) {
    digests.push_back(PredicateDigest(p));
  }
  std::sort(digests.begin(), digests.end());
  fp.MixU64(digests.size());
  for (uint64_t d : digests) fp.MixU64(d);
  // Output shape.
  fp.MixBool(spec.count_star);
  fp.MixU64(spec.select.size());
  for (const ColumnRef& ref : spec.select) MixColumnRef(fp, ref);
  fp.MixU64(spec.group_by.size());
  for (const ColumnRef& ref : spec.group_by) MixColumnRef(fp, ref);
  return fp.digest();
}

uint64_t SubPlanFingerprint(const Catalog& catalog, const QuerySpec& spec,
                            const std::vector<Predicate>& predicates,
                            uint64_t mask) {
  // Canonical table order: by catalog NAME (stable across republishes and
  // FROM-clause permutations), query-local index as the self-join
  // tie-break. remap[old query-local index] = canonical position.
  std::vector<int> members;
  for (int t = 0; t < spec.num_tables(); ++t) {
    if (mask & (uint64_t{1} << t)) members.push_back(t);
  }
  std::sort(members.begin(), members.end(), [&](int a, int b) {
    const std::string& name_a = catalog.table_name(spec.tables[a].catalog_id);
    const std::string& name_b = catalog.table_name(spec.tables[b].catalog_id);
    if (name_a != name_b) return name_a < name_b;
    return a < b;
  });
  std::vector<int> remap(spec.num_tables(), -1);
  for (size_t pos = 0; pos < members.size(); ++pos) {
    remap[members[pos]] = static_cast<int>(pos);
  }

  Fingerprint fp;
  fp.MixU64(members.size());
  for (int t : members) {
    fp.MixString(catalog.table_name(spec.tables[t].catalog_id));
  }

  // Predicates fully contained in the mask, rewritten to the canonical
  // table order and combined order-independently (a conjunction is a set).
  std::vector<uint64_t> digests;
  for (const Predicate& p : predicates) {
    Predicate contained = p;
    if ((mask & (uint64_t{1} << p.left.table)) == 0) continue;
    contained.left.table = remap[p.left.table];
    if (p.kind != Predicate::Kind::kLocalConst) {
      if ((mask & (uint64_t{1} << p.right.table)) == 0) continue;
      contained.right.table = remap[p.right.table];
    }
    digests.push_back(PredicateDigest(contained));
  }
  std::sort(digests.begin(), digests.end());
  fp.MixU64(digests.size());
  for (uint64_t d : digests) fp.MixU64(d);
  return fp.digest();
}

uint64_t EstimationOptionsDigest(const EstimationOptions& options) {
  Fingerprint fp;
  MixEstimationOptions(fp, options);
  return fp.digest();
}

uint64_t OptimizerOptionsDigest(const OptimizerOptions& options) {
  Fingerprint fp;
  fp.MixInt(static_cast<int>(options.enumerator));
  fp.MixU64(options.randomized.seed);
  fp.MixInt(options.randomized.restarts);
  fp.MixInt(options.randomized.max_moves);
  fp.MixDouble(options.randomized.initial_temperature);
  fp.MixDouble(options.randomized.cooling);
  MixEstimationOptions(fp, options.estimation);
  fp.MixU64(options.methods.size());
  for (JoinMethod method : options.methods) {
    fp.MixInt(static_cast<int>(method));
  }
  fp.MixBool(options.avoid_cartesian);
  fp.MixBool(options.allow_bushy);
  fp.MixDouble(options.cost.scan_tuple_cost);
  fp.MixDouble(options.cost.filter_cost);
  fp.MixDouble(options.cost.compare_cost);
  fp.MixDouble(options.cost.hash_build_cost);
  fp.MixDouble(options.cost.hash_probe_cost);
  fp.MixDouble(options.cost.sort_factor);
  fp.MixDouble(options.cost.merge_cost);
  fp.MixDouble(options.cost.index_build_cost);
  fp.MixDouble(options.cost.index_probe_cost);
  fp.MixDouble(options.cost.output_tuple_cost);
  return fp.digest();
}

uint64_t AnalyzeOptionsDigest(const AnalyzeOptions& options) {
  Fingerprint fp;
  fp.MixInt(static_cast<int>(options.stats_mode));
  fp.MixInt(static_cast<int>(options.histogram_kind));
  fp.MixInt(options.histogram_buckets);
  fp.MixInt(options.end_biased_singletons);
  fp.MixDouble(options.sample_fraction);
  fp.MixU64(options.sample_seed);
  fp.MixInt(options.sketch.hll_precision);
  fp.MixInt(options.sketch.cms_depth);
  fp.MixInt(options.sketch.cms_width);
  fp.MixInt(options.sketch.top_k);
  fp.MixInt(options.sketch.reservoir_capacity);
  fp.MixU64(options.sketch.seed);
  fp.MixInt(options.num_partitions);
  return fp.digest();
}

uint64_t TableDigest(const std::string& name, const Schema& schema,
                     const TableStats& stats) {
  Fingerprint fp;
  fp.MixString(name);
  fp.MixInt(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) {
    fp.MixString(schema.column(c).name);
    fp.MixInt(static_cast<int>(schema.column(c).type));
  }
  fp.MixDouble(stats.row_count);
  fp.MixInt(static_cast<int>(stats.source));
  fp.MixU64(stats.columns.size());
  for (const ColumnStats& column : stats.columns) {
    fp.MixDouble(column.distinct_count);
    fp.MixBool(column.min.has_value());
    if (column.min) fp.MixDouble(*column.min);
    fp.MixBool(column.max.has_value());
    if (column.max) fp.MixDouble(*column.max);
    fp.MixBool(column.distinct_relative_error.has_value());
    if (column.distinct_relative_error) {
      fp.MixDouble(*column.distinct_relative_error);
    }
    if (column.histogram == nullptr) {
      fp.MixBool(false);
    } else {
      fp.MixBool(true);
      fp.MixInt(static_cast<int>(column.histogram->kind()));
      fp.MixU64(column.histogram->buckets().size());
      for (const HistogramBucket& bucket : column.histogram->buckets()) {
        fp.MixDouble(bucket.lo);
        fp.MixDouble(bucket.hi);
        fp.MixDouble(bucket.rows);
        fp.MixDouble(bucket.distinct);
      }
    }
  }
  return fp.digest();
}

}  // namespace joinest
