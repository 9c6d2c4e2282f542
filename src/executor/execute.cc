#include "executor/execute.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>

#include "executor/compile.h"
#include "executor/eval.h"
#include "executor/hash_table.h"
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
    for (int i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      if (grouped) {
        count += row.back().AsInt64();  // Total over groups = join size.
      } else if (spec.count_star) {
        count = row[0].AsInt64();
      }
    }
  }
  root->Close();
  const auto end = std::chrono::steady_clock::now();

  result.output_rows = rows;
  result.count = spec.count_star ? count : rows;
  result.seconds = std::chrono::duration<double>(end - start).count();
  for (Operator* op : registry) {
    result.operators.push_back(SnapshotOperatorStats(*op));
    ++result.operators_total;
    if (op->specialized()) ++result.kernels_specialized;
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

// A join-key value: one canonical Value per equivalence class.
using Key = std::vector<Value>;

struct KeyHash {
  size_t operator()(const Key& key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : key) h = HashUint64(h ^ v.Hash());
    return static_cast<size_t>(h);
  }
};

// Canonical keys match exactly when their types and values do: the
// comparison JoinHashTable's probe makes, minus the cross-type CHECK.
bool SameKey(const Value& a, const Value& b) {
  return a.type() == b.type() && a == b;
}

struct KeyEq {
  bool operator()(const Key& a, const Key& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameKey);
  }
};

// Weighted row counts per key value: what a table sends its parent.
using KeyCounts = std::unordered_map<Key, int64_t, KeyHash, KeyEq>;

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
// with its parent. The root's sum is the join size.
StatusOr<int64_t> CountJoinTree(const Catalog& catalog, const QuerySpec& spec,
                                const std::vector<TreeNode>& nodes,
                                const std::vector<int>& order) {
  std::vector<KeyCounts> sent(nodes.size());
  int64_t total = 0;
  Key key;
  for (int t : order) {
    const TreeNode& node = nodes[static_cast<size_t>(t)];
    const Table& table = catalog.table(spec.tables[t].catalog_id);
    auto cell = [&table](int64_t row, int column) -> const Value& {
      return table.column(column)[static_cast<size_t>(row)];
    };
    // The columns holding each child's key, then the parent's.
    auto columns_of = [&node](const std::vector<int>& classes) {
      std::vector<int> columns;
      for (int cls : classes) columns.push_back(node.columns.at(cls).front());
      return columns;
    };
    std::vector<std::vector<int>> child_columns;
    for (int child : node.children) {
      child_columns.push_back(
          columns_of(nodes[static_cast<size_t>(child)].key_classes));
    }
    const std::vector<int> parent_columns = columns_of(node.key_classes);
    // Join columns of this table in one class must agree.
    std::vector<std::pair<int, int>> agree;
    for (const auto& entry : node.columns) {
      for (size_t i = 1; i < entry.second.size(); ++i) {
        agree.emplace_back(entry.second.front(), entry.second[i]);
      }
    }
    auto key_of = [&](int64_t row, const std::vector<int>& columns) {
      key.resize(columns.size());
      for (size_t i = 0; i < columns.size(); ++i) {
        key[i] = cell(row, columns[i]).CanonicalKey();
      }
    };
    auto qualifies = [&](int64_t row) {
      for (const Predicate& p : node.local) {
        const Value& right = p.kind == Predicate::Kind::kLocalConst
                                 ? p.constant
                                 : cell(row, p.right.column);
        if (!EvalCompare(cell(row, p.left.column), p.op, right)) return false;
      }
      for (const auto& [a, b] : agree) {
        if (!SameKey(cell(row, a).CanonicalKey(),
                     cell(row, b).CanonicalKey())) {
          return false;
        }
      }
      return true;
    };
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (!qualifies(r)) continue;
      int64_t weight = 1;
      for (size_t c = 0; c < node.children.size() && weight > 0; ++c) {
        key_of(r, child_columns[c]);
        const KeyCounts& counts =
            sent[static_cast<size_t>(node.children[c])];
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
        key_of(r, parent_columns);
        sum = &sent[static_cast<size_t>(t)][key];
      }
      if (__builtin_add_overflow(*sum, weight, sum)) return CountOverflow();
    }
    for (int child : node.children) {
      KeyCounts().swap(sent[static_cast<size_t>(child)]);
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
  const EquivalenceClasses classes = EquivalenceClasses::Build(joins);
  for (int cls = 0; cls < classes.num_classes(); ++cls) {
    for (const ColumnRef& ref : classes.members(cls)) {
      nodes[static_cast<size_t>(ref.table)].columns[cls].push_back(
          ref.column);
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
  return CountJoinTree(catalog, spec, nodes, order);
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
