#include "executor/execute.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "executor/compile.h"
#include "executor/eval.h"
#include "executor/hash_table.h"
#include "executor/join_ops.h"
#include "executor/scan_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/equivalence.h"

namespace joinest {

StatusOr<ExecutionResult> ExecutePlan(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const PlanNode& plan,
                                      const ScanSelections* selections) {
  std::vector<Operator*> registry;
  std::vector<PlanNodeOperator> node_roots;
  JOINEST_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> root,
      CompilePlan(catalog, spec, plan, &registry, &node_roots, selections));
  // Top with the query's output shape.
  const bool grouped = spec.count_star && !spec.group_by.empty();
  if (grouped) {
    root = std::make_unique<GroupCountOperator>(std::move(root),
                                                spec.group_by);
  } else if (spec.count_star) {
    root = std::make_unique<CountAggOperator>(std::move(root));
  } else if (!spec.select.empty()) {
    root = std::make_unique<ProjectOperator>(std::move(root), spec.select);
  }
  registry.push_back(root.get());

  ExecutionResult result;
  const auto start = std::chrono::steady_clock::now();
  root->Open();
  RowBatch batch;
  int64_t rows = 0;
  int64_t count = 0;
  while (root->NextBatch(batch)) {
    rows += batch.size();
    if (!spec.count_star) continue;
    // The count is the last column: the total over groups is the join
    // size.
    const Cell* counts = batch.column(batch.width() - 1);
    for (int i = 0; i < batch.size(); ++i) count += counts[i];
  }
  root->Close();
  const auto end = std::chrono::steady_clock::now();

  result.output_rows = rows;
  result.count = spec.count_star ? count : rows;
  result.seconds = std::chrono::duration<double>(end - start).count();
  for (Operator* op : registry) {
    result.operators.push_back(SnapshotOperatorStats(*op));
  }
  result.node_stats.reserve(node_roots.size());
  for (const PlanNodeOperator& entry : node_roots) {
    result.node_stats.push_back({entry.node, SnapshotOperatorStats(*entry.op)});
  }
  return result;
}

std::vector<int> CanonicalJoinOrder(int num_tables,
                                    const std::vector<Predicate>& joins) {
  std::vector<bool> used(num_tables, false);
  std::vector<int> order;
  order.push_back(0);
  used[0] = true;
  auto connected = [&](int t) {
    for (const Predicate& p : joins) {
      if ((p.left.table == t && used[p.right.table]) ||
          (p.right.table == t && used[p.left.table])) {
        return true;
      }
    }
    return false;
  };
  while (static_cast<int>(order.size()) < num_tables) {
    int next = -1;
    for (int t = 0; t < num_tables; ++t) {
      if (!used[t] && connected(t)) {
        next = t;
        break;
      }
    }
    if (next < 0) {
      // Disconnected join graph: fall back to a cartesian step.
      for (int t = 0; t < num_tables; ++t) {
        if (!used[t]) {
          next = t;
          break;
        }
      }
    }
    order.push_back(next);
    used[next] = true;
  }
  return order;
}

std::unique_ptr<PlanNode> CanonicalSafePlan(const QuerySpec& spec) {
  const int n = spec.num_tables();

  // Group local predicates by table for scan pushdown.
  std::vector<std::vector<Predicate>> local(n);
  std::vector<Predicate> joins;
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) {
      joins.push_back(p);
    } else {
      local[p.left.table].push_back(p);
    }
  }

  const std::vector<int> order = CanonicalJoinOrder(n, joins);

  // Left-deep hash joins (nested loops for the rare cartesian step).
  auto plan = MakeScanNode(order[0], local[order[0]]);
  std::vector<bool> in_plan(n, false);
  in_plan[order[0]] = true;
  std::vector<bool> join_used(joins.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    const int t = order[i];
    std::vector<Predicate> eligible;
    for (size_t j = 0; j < joins.size(); ++j) {
      if (join_used[j]) continue;
      const Predicate& p = joins[j];
      if ((p.left.table == t && in_plan[p.right.table]) ||
          (p.right.table == t && in_plan[p.left.table])) {
        eligible.push_back(p);
        join_used[j] = true;
      }
    }
    auto scan = MakeScanNode(t, local[t]);
    // Pick the method before moving `eligible`: argument evaluation order
    // is unspecified, so folding the emptiness test into the call could
    // read the vector after it was moved from (and did, historically —
    // every canonical join silently compiled as a nested loop).
    const JoinMethod method =
        eligible.empty() ? JoinMethod::kNestedLoop : JoinMethod::kHash;
    plan = MakeJoinNode(method, std::move(plan), std::move(scan),
                        std::move(eligible));
    in_plan[t] = true;
  }
  return plan;
}

namespace {

// Base-table rows ground-truth counting scanned. The registry's name lookup
// takes a mutex, so the handle is looked up once.
Counter& ScannedRows() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "executor_morsel_rows_total",
      "Base-table rows scanned by ground-truth counting");
  return counter;
}

Status CountOverflow() {
  return OutOfRange("join count exceeds the int64 range");
}

// One table of the query as a node of the join tree.
struct TreeNode {
  // The table's join columns per equivalence class (the variables it
  // covers), keyed by class id.
  std::map<int, std::vector<int>> columns;
  std::vector<Predicate> local;
  int parent = -1;
  // Classes shared with the parent: the key of the message sent to it.
  std::vector<int> key_classes;
  std::vector<int> children;

  bool Covers(int cls) const { return columns.count(cls) > 0; }
};

// Peels the tables leaf-first into a join tree by GYO ear removal: a table
// is an ear when the classes it shares with the other remaining tables all
// belong to one of them, which becomes its parent. Returns the tables in
// removal order, root last, or nothing when no join tree exists.
std::vector<int> PeelJoinTree(std::vector<TreeNode>& nodes) {
  const size_t n = nodes.size();
  std::vector<bool> removed(n, false);
  std::vector<int> order;
  while (order.size() + 1 < n) {
    bool peeled = false;
    for (size_t t = 0; t < n && !peeled; ++t) {
      if (removed[t]) continue;
      std::vector<int> shared;
      for (const auto& entry : nodes[t].columns) {
        for (size_t u = 0; u < n; ++u) {
          if (u != t && !removed[u] && nodes[u].Covers(entry.first)) {
            shared.push_back(entry.first);
            break;
          }
        }
      }
      for (size_t p = 0; p < n && !peeled; ++p) {
        if (p == t || removed[p] ||
            !std::all_of(shared.begin(), shared.end(),
                         [&](int cls) { return nodes[p].Covers(cls); })) {
          continue;
        }
        nodes[t].parent = static_cast<int>(p);
        nodes[t].key_classes = std::move(shared);
        nodes[p].children.push_back(static_cast<int>(t));
        removed[t] = true;
        order.push_back(static_cast<int>(t));
        peeled = true;
      }
    }
    if (!peeled) return {};
  }
  for (size_t t = 0; t < n; ++t) {
    if (!removed[t]) order.push_back(static_cast<int>(t));
  }
  return order;
}

// COUNT(*) by message passing up the join tree: each table scans its rows
// once, weighs each qualifying row by the product of its children's
// counts for the row's key, and sums the weights per the key it shares
// with its parent. The root's sum is the join size. Keys are cells encoded
// by the key rule against `class_types[cls]`, the type every column of
// class cls is compared with.
StatusOr<int64_t> CountJoinTree(const Catalog& catalog, const QuerySpec& spec,
                                const std::vector<TreeNode>& nodes,
                                const std::vector<int>& order,
                                const std::vector<TypeKind>& class_types) {
  std::vector<std::optional<CountMap>> sent(nodes.size());
  int64_t total = 0;
  for (int t : order) {
    const TreeNode& node = nodes[static_cast<size_t>(t)];
    const TableColumns table(catalog.table(spec.tables[t].catalog_id), t);
    const int64_t rows = table.table.num_rows();
    auto encoding = [&](int cls, int column) {
      return KeyEncodingFor(table.types[static_cast<size_t>(column)],
                            class_types[static_cast<size_t>(cls)]);
    };
    // The encoded keys (and their validity) of `classes` for every row.
    struct EncodedKeys {
      int width = 0;
      std::vector<int64_t> keys;
      std::vector<char> valid;
      const int64_t* of(size_t row) const {
        return keys.data() + row * static_cast<size_t>(width);
      }
    };
    auto encode = [&](const std::vector<int>& classes) {
      KeyColumns columns;
      for (int cls : classes) {
        const int column = node.columns.at(cls).front();
        columns.positions.push_back(column);
        columns.encodings.push_back(encoding(cls, column));
      }
      EncodedKeys out;
      out.width = columns.width();
      columns.Encode(table, rows, out.keys, out.valid);
      return out;
    };
    std::vector<char> keep;
    EvaluatePredicates(BindPredicates(node.local, table.layout, table.types),
                       table, rows, keep);
    // Join columns of this table in one class must agree.
    for (const auto& [cls, columns] : node.columns) {
      for (size_t i = 1; i < columns.size(); ++i) {
        const KeyColumns pair{{columns.front(), columns[i]},
                              {encoding(cls, columns.front()),
                               encoding(cls, columns[i])}};
        std::vector<int64_t> keys;
        std::vector<char> valid;
        pair.Encode(table, rows, keys, valid);
        for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
          keep[r] &= valid[r] && keys[2 * r] == keys[2 * r + 1];
        }
      }
    }
    std::vector<EncodedKeys> child_keys;
    for (int child : node.children) {
      child_keys.push_back(
          encode(nodes[static_cast<size_t>(child)].key_classes));
    }
    const EncodedKeys parent_keys = encode(node.key_classes);
    std::optional<CountMap>& message = sent[static_cast<size_t>(t)];
    if (node.parent >= 0) {
      message.emplace(static_cast<int>(node.key_classes.size()),
                      static_cast<size_t>(
                          std::count(keep.begin(), keep.end(), 1)));
    }
    for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
      if (!keep[r] || !parent_keys.valid[r]) continue;
      int64_t weight = 1;
      for (size_t c = 0; c < node.children.size() && weight > 0; ++c) {
        const int64_t count =
            child_keys[c].valid[r]
                ? sent[static_cast<size_t>(node.children[c])]->Count(
                      child_keys[c].of(r))
                : 0;
        if (__builtin_mul_overflow(weight, count, &weight)) {
          return CountOverflow();
        }
      }
      if (weight == 0) continue;
      if (node.parent < 0) {
        if (__builtin_add_overflow(total, weight, &total)) {
          return CountOverflow();
        }
      } else if (!message->Add(parent_keys.of(r), weight)) {
        return CountOverflow();
      }
    }
    for (int child : node.children) sent[static_cast<size_t>(child)].reset();
  }
  return total;
}

// The sub-query over the first k tables of `order`, keeping every predicate
// fully contained in that prefix.
QuerySpec PrefixSpec(const QuerySpec& spec, const std::vector<int>& order,
                     size_t k) {
  QuerySpec prefix;
  prefix.count_star = true;
  std::vector<int> remap(spec.num_tables(), -1);
  for (size_t i = 0; i < k; ++i) {
    prefix.tables.push_back(spec.tables[order[i]]);
    remap[order[i]] = static_cast<int>(i);
  }
  for (const Predicate& p : spec.predicates) {
    if (remap[p.left.table] < 0) continue;
    Predicate mapped = p;
    mapped.left.table = remap[p.left.table];
    if (p.kind != Predicate::Kind::kLocalConst) {
      if (remap[p.right.table] < 0) continue;
      mapped.right.table = remap[p.right.table];
    }
    prefix.predicates.push_back(std::move(mapped));
  }
  return prefix;
}

// A join predicate between the table a walk step adds and the prefix: the
// prefix's column at frontier position `slot` and the added table's
// `column`, each encoded against the other's type (the key rule). Frontier
// keys are stored under their own-type encoding, which differs from
// prefix_encoding only for a double column against an int64 one.
struct KeyPair {
  int slot;
  int column;
  KeyEncoding prefix_encoding;
  KeyEncoding column_encoding;

  friend auto operator<=>(const KeyPair&, const KeyPair&) = default;
};

// Counts the prefixes of `order` in one left-to-right walk, appending the
// size of order[0..k] for k = 1, 2, ... to `sizes`. The walk keeps the
// prefix's count grouped by its frontier: the prefix's columns that meet a
// table not yet added in a join predicate, each stored under its own-type
// encoding. Adding table t scans t once with its local predicates, joins
// its rows to the groups on the predicates between t and the prefix (and
// on no others, so each prefix counts exactly the predicates inside it),
// and regroups by the new frontier; the weights added sum to the new
// prefix's size. Returns the number of tables added: order.size(), or the
// step whose grouped counts outgrew its prefix's rows, where the caller
// takes over.
StatusOr<size_t> WalkPrefixes(const Catalog& catalog, const QuerySpec& spec,
                              const std::vector<int>& order,
                              std::vector<int64_t>& sizes) {
  std::vector<Predicate> joins;
  std::vector<std::vector<Predicate>> local(
      static_cast<size_t>(spec.num_tables()));
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) {
      joins.push_back(p);
    } else {
      local[static_cast<size_t>(p.left.table)].push_back(p);
    }
  }
  auto type_of = [&](ColumnRef ref) {
    return catalog.table(spec.tables[ref.table].catalog_id)
        .schema()
        .column(ref.column)
        .type;
  };
  std::vector<char> added(static_cast<size_t>(spec.num_tables()), 0);
  // Whether `ref` meets a table not yet added in a join predicate.
  auto meets_later = [&](ColumnRef ref) {
    return std::any_of(joins.begin(), joins.end(), [&](const Predicate& p) {
      return (p.left == ref && !added[static_cast<size_t>(p.right.table)]) ||
             (p.right == ref && !added[static_cast<size_t>(p.left.table)]);
    });
  };

  // The empty prefix: one group, of the empty tuple, holding one row.
  std::vector<ColumnRef> frontier;
  CountMap groups(0, 1);
  const int64_t empty_key = 0;
  groups.Add(&empty_key, 1);
  int64_t prefix_rows = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    const int t = order[k];
    const TableColumns table(catalog.table(spec.tables[t].catalog_id), t);
    const int64_t rows = table.table.num_rows();
    ScannedRows().Add(rows);
    prefix_rows += rows;

    std::vector<KeyPair> pairs;
    for (const Predicate& p : joins) {
      const bool left = p.left.table == t;
      if (!left && p.right.table != t) continue;
      const ColumnRef prefix_column = left ? p.right : p.left;
      if (!added[static_cast<size_t>(prefix_column.table)]) continue;
      const ColumnRef column = left ? p.left : p.right;
      const auto slot =
          std::find(frontier.begin(), frontier.end(), prefix_column);
      JOINEST_CHECK(slot != frontier.end()) << "join column off the frontier";
      const TypeKind prefix_type = type_of(prefix_column);
      const TypeKind type = type_of(column);
      pairs.push_back({static_cast<int>(slot - frontier.begin()),
                       column.column, KeyEncodingFor(prefix_type, type),
                       KeyEncodingFor(type, prefix_type)});
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    // The next frontier: the frontier columns that still meet a later
    // table, then t's columns that do.
    added[static_cast<size_t>(t)] = 1;
    std::vector<ColumnRef> next_frontier;
    std::vector<int> kept_slots;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (!meets_later(frontier[i])) continue;
      kept_slots.push_back(static_cast<int>(i));
      next_frontier.push_back(frontier[i]);
    }
    std::vector<const Cell*> grouped_cells;
    std::vector<KeyEncoding> grouped_encodings;
    for (const ColumnRef& column : table.layout) {
      if (!meets_later(column)) continue;
      grouped_cells.push_back(table.column(column.column));
      const TypeKind type = type_of(column);
      grouped_encodings.push_back(KeyEncodingFor(type, type));
      next_frontier.push_back(column);
    }

    // When the groups' key is exactly the join key (at every chain step,
    // and at a last step unless a frontier column meets t twice or is a
    // double meeting an int64), t's rows probe the groups directly.
    // Otherwise t's rows are counted by key first, and each group meets
    // the counts of its join key: a group can meet many rows, and rows
    // with one key meet the same groups.
    bool direct = pairs.size() == frontier.size();
    for (size_t i = 0; i < pairs.size() && direct; ++i) {
      direct = pairs[i].slot == static_cast<int>(i) &&
               pairs[i].prefix_encoding != KeyEncoding::kDoubleAsInt64;
    }

    std::vector<char> keep;
    EvaluatePredicates(BindPredicates(local[static_cast<size_t>(t)],
                                      table.layout, table.types),
                       table, rows, keep);
    std::vector<const Cell*> join_cells;
    for (const KeyPair& pair : pairs) {
      join_cells.push_back(table.column(pair.column));
    }
    const size_t kept_rows =
        static_cast<size_t>(std::count(keep.begin(), keep.end(), 1));
    // An empty frontier has one group, the prefix's total, added at the
    // end of the step.
    CountMap next(static_cast<int>(next_frontier.size()),
                  next_frontier.empty() ? 1 : kept_rows);
    std::vector<int64_t> next_key(next_frontier.size());
    int64_t total = 0;
    bool overflow = false;
    // Adds `count` rows of the group with frontier key `group` joined to
    // rows of t whose cells entering the frontier encode as `part`. False
    // stops the walk: on overflow, or once the groups outnumber the
    // prefix's rows (a cartesian prefix, a star whose centre comes last),
    // which keeps memory bounded by rows.
    auto add = [&](const int64_t* group, const int64_t* part, int64_t count) {
      for (size_t j = 0; j < kept_slots.size(); ++j) {
        next_key[j] = group[kept_slots[j]];
      }
      std::copy_n(part, grouped_cells.size(),
                  next_key.data() + kept_slots.size());
      overflow = __builtin_add_overflow(total, count, &total) ||
                 (!next_frontier.empty() && !next.Add(next_key.data(), count));
      return !overflow && next.size() <= static_cast<size_t>(prefix_rows);
    };

    // A row's key: its join key, then its cells entering the frontier.
    std::vector<int64_t> key(pairs.size() + grouped_cells.size());
    int64_t* const part = key.data() + pairs.size();
    // Encodes row r's key; false when the row meets no group.
    auto encode_row = [&](size_t r) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (!EncodeKey(pairs[i].column_encoding, join_cells[i][r], &key[i])) {
          return false;
        }
      }
      for (size_t j = 0; j < grouped_cells.size(); ++j) {
        EncodeKey(grouped_encodings[j], grouped_cells[j][r], &part[j]);
      }
      return true;
    };
    CountMap rows_by_key(static_cast<int>(key.size()), direct ? 0 : kept_rows);
    for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
      if (!keep[r] || !encode_row(r)) continue;
      if (!direct) {
        rows_by_key.Add(key.data(), 1);
        continue;
      }
      // A match's frontier key is the join key itself.
      const int64_t count = groups.Count(key.data());
      if (count != 0 && !add(key.data(), part, count)) break;
    }
    if (!direct) {
      // Probe the counts directly when their key is the join key (t brings
      // no frontier columns), else through an index on their join keys.
      std::vector<const int64_t*> counted;
      std::vector<int64_t> counted_rows;
      std::optional<JoinHashTable> index;
      if (!grouped_cells.empty()) {
        std::vector<int64_t> join_keys;
        rows_by_key.ForEach([&](const int64_t* row_key, int64_t alike) {
          counted.push_back(row_key);
          counted_rows.push_back(alike);
          join_keys.insert(join_keys.end(), row_key, row_key + pairs.size());
        });
        index.emplace(static_cast<int>(pairs.size()), join_keys,
                      std::vector<char>(counted.size(), 1));
      }
      std::vector<int64_t> group_key(pairs.size());
      groups.ForEach([&](const int64_t* group, int64_t count) {
        if (overflow || next.size() > static_cast<size_t>(prefix_rows)) {
          return;
        }
        // The group's join key, re-encoding a double column joined to an
        // int64 one.
        for (size_t i = 0; i < pairs.size(); ++i) {
          int64_t& cell = group_key[i];
          cell = group[pairs[i].slot];
          if (pairs[i].prefix_encoding == KeyEncoding::kDoubleAsInt64 &&
              !EncodeKey(pairs[i].prefix_encoding,
                         DecodeKey(KeyEncoding::kDouble, cell), &cell)) {
            return;
          }
        }
        auto meet = [&](const int64_t* rows_part, int64_t alike) {
          int64_t product = 0;
          overflow = __builtin_mul_overflow(count, alike, &product);
          return !overflow && add(group, rows_part, product);
        };
        if (!index) {
          const int64_t alike = rows_by_key.Count(group_key.data());
          if (alike != 0) meet(part, alike);
          return;
        }
        for (uint32_t e : index->Probe(group_key.data())) {
          if (!meet(counted[e] + pairs.size(), counted_rows[e])) return;
        }
      });
    }
    if (overflow) return CountOverflow();
    if (next.size() > static_cast<size_t>(prefix_rows)) return k;
    if (next_frontier.empty() && total > 0) next.Add(&empty_key, total);
    if (k >= 1) sizes.push_back(total);
    groups = std::move(next);
    frontier = std::move(next_frontier);
  }
  return order.size();
}

}  // namespace

StatusOr<int64_t> TrueResultSize(const Catalog& catalog,
                                 const QuerySpec& spec) {
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  Span span("TrueResultSize", "tables", spec.num_tables());
  int64_t base_rows = 0;
  for (const TableRef& ref : spec.tables) {
    base_rows += catalog.table(ref.catalog_id).num_rows();
  }
  ScannedRows().Add(base_rows);

  // Each equivalence class of join columns is a variable; each table
  // covers the classes of its join columns.
  std::vector<TreeNode> nodes(static_cast<size_t>(spec.num_tables()));
  std::vector<Predicate> joins;
  for (const Predicate& p : spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) {
      joins.push_back(p);
    } else {
      nodes[static_cast<size_t>(p.left.table)].local.push_back(p);
    }
  }
  // A class's columns compare with int64 when any of them is int64 (so
  // a double must equal an integer exactly), else with their own type.
  const EquivalenceClasses classes = EquivalenceClasses::Build(joins);
  std::vector<TypeKind> class_types(
      static_cast<size_t>(classes.num_classes()));
  for (int cls = 0; cls < classes.num_classes(); ++cls) {
    for (const ColumnRef& ref : classes.members(cls)) {
      nodes[static_cast<size_t>(ref.table)].columns[cls].push_back(
          ref.column);
      const TypeKind type = catalog.table(spec.tables[ref.table].catalog_id)
                                .schema()
                                .column(ref.column)
                                .type;
      TypeKind& class_type = class_types[static_cast<size_t>(cls)];
      if (ref == classes.members(cls).front() || type == TypeKind::kInt64) {
        class_type = type;
      }
    }
  }

  const std::vector<int> order = PeelJoinTree(nodes);
  if (order.empty()) {
    // No join tree (a cycle through two or more classes): run the plan
    // whose COUNT(*) defines ground truth.
    JOINEST_ASSIGN_OR_RETURN(
        ExecutionResult result,
        ExecutePlan(catalog, spec, *CanonicalSafePlan(spec)));
    return result.count;
  }
  return CountJoinTree(catalog, spec, nodes, order, class_types);
}

StatusOr<std::vector<int64_t>> TruePrefixSizes(
    const Catalog& catalog, const QuerySpec& spec,
    const std::vector<int>& order) {
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> tables(static_cast<size_t>(spec.num_tables()));
  std::iota(tables.begin(), tables.end(), 0);
  if (sorted != tables) {
    return InvalidArgument("order must cover every table exactly once");
  }
  Span span("TruePrefixSizes", "tables", spec.num_tables());
  std::vector<int64_t> sizes;
  if (order.size() < 2) return sizes;
  JOINEST_ASSIGN_OR_RETURN(const size_t walked,
                           WalkPrefixes(catalog, spec, order, sizes));
  for (size_t k = walked + 1; k <= order.size(); ++k) {
    JOINEST_ASSIGN_OR_RETURN(
        const int64_t size,
        TrueResultSize(catalog, PrefixSpec(spec, order, k)));
    sizes.push_back(size);
  }
  return sizes;
}

}  // namespace joinest
