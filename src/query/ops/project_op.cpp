#include "query/ops/project_op.hpp"

#include "query/ops/sort_op.hpp"

namespace eidb::query::ops {

using storage::Table;

QueryResult run_projection(OpContext& ctx, const PhysicalPlan& phys,
                           const Table& table, const BitVector& selection) {
  const LogicalPlan& plan = phys.logical;
  std::vector<std::string> proj = plan.projection;
  if (proj.empty())
    for (const auto& def : table.schema().columns()) proj.push_back(def.name);

  // Ordering: the sort operator returns row ids, already bounded to
  // LIMIT by the heap top-k kernel when one applies.
  std::vector<std::uint32_t> order;
  if (plan.order_by.has_value()) {
    OperatorScope scope(ctx.stats, phys.sort == SortStrategy::kTopK
                                       ? "top-k(" + plan.order_by->column + ")"
                                       : "sort(" + plan.order_by->column + ")");
    order = order_row_ids(ctx, table, *plan.order_by, selection, plan.limit);
  } else {
    order = selection.to_indices();
  }
  if (plan.limit != 0 && order.size() > plan.limit) order.resize(plan.limit);

  OperatorScope scope(ctx.stats, "materialize");
  // Gather charge: only the emitted rows of each projected column are
  // read (a column that doubled as the sort key is already charged in
  // full and not charged again). String columns additionally gather
  // their dictionary payload — late materialization is not free.
  for (const std::string& name : proj) {
    const storage::Column& col = table_column(table, name);
    ctx.charge_gather(table, col, order.size());
    if (col.type() == storage::TypeId::kString)
      ctx.charge_dict_gather(table, col, order.size());
  }

  QueryResult result(proj);
  std::vector<const storage::Column*> cols;
  cols.reserve(proj.size());
  for (const std::string& name : proj)
    cols.push_back(&table_column(table, name));
  const auto gather_row = [&](std::uint32_t row_idx) {
    std::vector<storage::Value> row;
    row.reserve(cols.size());
    for (const storage::Column* col : cols)
      row.push_back(col->value_at(row_idx));
    return row;
  };
  append_rows(ctx.options.pool, result, order.size(),
              [&](std::size_t i) { return gather_row(order[i]); });
  ctx.stats.work.cpu_cycles += kMaterializeCyclesPerValue *
                               static_cast<double>(order.size()) *
                               static_cast<double>(proj.size());
  return result;
}

}  // namespace eidb::query::ops
