#include "executor/execute.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
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
    ++result.operators_total;
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

// A join-key tuple: one encoded cell per equivalence class.
using KeyTuple = std::vector<int64_t>;

struct KeyTupleHash {
  size_t operator()(const KeyTuple& key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int64_t k : key) h = HashUint64(h ^ static_cast<uint64_t>(k));
    return static_cast<size_t>(h);
  }
};

// Weighted row counts per key tuple: what a table sends its parent.
using Message = std::unordered_map<KeyTuple, int64_t, KeyTupleHash>;

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

Status CountOverflow() {
  return OutOfRange("join count exceeds the int64 range");
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
  std::vector<Message> sent(nodes.size());
  int64_t total = 0;
  KeyTuple key;
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
    auto key_of = [&key](const EncodedKeys& encoded, size_t row) {
      const int64_t* begin = encoded.keys.data() + row * encoded.width;
      key.assign(begin, begin + encoded.width);
    };
    for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
      if (!keep[r] || !parent_keys.valid[r]) continue;
      int64_t weight = 1;
      for (size_t c = 0; c < node.children.size() && weight > 0; ++c) {
        if (!child_keys[c].valid[r]) {
          weight = 0;
          break;
        }
        key_of(child_keys[c], r);
        const Message& counts = sent[static_cast<size_t>(node.children[c])];
        const auto it = counts.find(key);
        if (it == counts.end()) {
          weight = 0;
        } else if (__builtin_mul_overflow(weight, it->second, &weight)) {
          return CountOverflow();
        }
      }
      if (weight == 0) continue;
      int64_t* sum = &total;
      if (node.parent >= 0) {
        key_of(parent_keys, r);
        sum = &sent[static_cast<size_t>(t)][key];
      }
      if (__builtin_add_overflow(*sum, weight, sum)) return CountOverflow();
    }
    for (int child : node.children) {
      Message().swap(sent[static_cast<size_t>(child)]);
    }
  }
  return total;
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
  MetricsRegistry::Global()
      .GetCounter("executor_morsel_rows_total",
                  "Base-table rows scanned by ground-truth counting")
      .Add(base_rows);

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
  if (static_cast<int>(order.size()) != spec.num_tables()) {
    return InvalidArgument("order must cover every table exactly once");
  }
  std::vector<int64_t> sizes;
  for (size_t k = 2; k <= order.size(); ++k) {
    // Sub-query over the first k tables of the order, keeping every
    // predicate fully contained in that prefix.
    QuerySpec prefix;
    prefix.count_star = true;
    std::vector<int> remap(spec.num_tables(), -1);
    for (size_t i = 0; i < k; ++i) {
      const TableRef& ref = spec.tables[order[i]];
      prefix.tables.push_back(ref);
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
    JOINEST_ASSIGN_OR_RETURN(int64_t size, TrueResultSize(catalog, prefix));
    sizes.push_back(size);
  }
  return sizes;
}

}  // namespace joinest
