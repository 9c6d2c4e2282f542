#include "executor/compile.h"

#include "executor/join_ops.h"
#include "executor/kernels.h"
#include "executor/scan_ops.h"

namespace joinest {

StatusOr<std::unique_ptr<Operator>> CompilePlan(
    const Catalog& catalog, const QuerySpec& spec, const PlanNode& node,
    std::vector<Operator*>* registry,
    std::vector<PlanNodeOperator>* node_roots,
    const ScanSelections* selections) {
  auto track = [registry](std::unique_ptr<Operator> op)
      -> std::unique_ptr<Operator> {
    if (registry != nullptr) registry->push_back(op.get());
    return op;
  };
  // The last operator created for this node is its root (e.g. the Filter on
  // top of a filtered scan).
  auto root = [node_roots, &node](std::unique_ptr<Operator> op)
      -> std::unique_ptr<Operator> {
    if (node_roots != nullptr) {
      node_roots->push_back(PlanNodeOperator{&node, op.get()});
    }
    return op;
  };

  if (node.kind == PlanNode::Kind::kScan) {
    const Table& table = catalog.table(spec.tables[node.table_index].catalog_id);
    std::unique_ptr<Operator> op = track(std::make_unique<SeqScanOperator>(
        table, node.table_index,
        selections != nullptr && selections->ForTable(node.table_index)
            ? selections->row_ids[static_cast<size_t>(node.table_index)]
            : nullptr));
    if (!node.filter.empty()) {
      auto filter =
          std::make_unique<FilterOperator>(std::move(op), node.filter);
      filter->Specialize(LayoutTypes(catalog, spec, filter->layout()));
      op = track(std::move(filter));
    }
    return root(std::move(op));
  }

  // Join node.
  if (node.left == nullptr || node.right == nullptr) {
    return InvalidArgument("join node missing a child");
  }
  JOINEST_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> left,
      CompilePlan(catalog, spec, *node.left, registry, node_roots,
                  selections));

  if (node.method == JoinMethod::kIndexNestedLoop) {
    if (node.right->kind != PlanNode::Kind::kScan) {
      return InvalidArgument(
          "index nested loop join requires a base-table scan on the inner "
          "side");
    }
    const Table& inner =
        catalog.table(spec.tables[node.right->table_index].catalog_id);
    return root(track(std::make_unique<IndexNestedLoopJoinOperator>(
        std::move(left), inner, node.right->table_index,
        node.join_predicates, node.right->filter)));
  }

  JOINEST_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> right,
      CompilePlan(catalog, spec, *node.right, registry, node_roots,
                  selections));
  switch (node.method) {
    case JoinMethod::kNestedLoop:
      return root(track(std::make_unique<NestedLoopJoinOperator>(
          std::move(left), std::move(right), node.join_predicates)));
    case JoinMethod::kBlockNestedLoop:
      return root(track(std::make_unique<BlockNestedLoopJoinOperator>(
          std::move(left), std::move(right), node.join_predicates)));
    case JoinMethod::kHash: {
      const std::vector<ColumnRef> left_layout = left->layout();
      const std::vector<ColumnRef> right_layout = right->layout();
      auto join = std::make_unique<HashJoinOperator>(
          std::move(left), std::move(right), node.join_predicates);
      join->Specialize(LayoutTypes(catalog, spec, left_layout),
                       LayoutTypes(catalog, spec, right_layout));
      return root(track(std::move(join)));
    }
    case JoinMethod::kSortMerge:
      return root(track(std::make_unique<SortMergeJoinOperator>(
          std::move(left), std::move(right), node.join_predicates)));
    case JoinMethod::kIndexNestedLoop:
      break;  // Handled above.
  }
  return Internal("unreachable join method");
}

}  // namespace joinest
