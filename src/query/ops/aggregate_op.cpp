#include "query/ops/aggregate_op.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/expression.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;

std::int64_t column_int_at(const Column& c, std::size_t i) {
  if (c.type() == TypeId::kDouble)
    throw Error("column " + c.name() + " is not integer-typed");
  return c.int_at(i);
}

GroupKeyPart group_key_part(const Table& t, const Column& c) {
  GroupKeyPart part;
  part.tbl = &t;
  part.col = &c;
  if (c.type() == TypeId::kDouble) {
    if (!c.has_double_dictionary())
      throw Error("cannot group by double column " + c.name() +
                  " (no ordered dictionary: column contains NaN)");
    // Group on the int32 codes — dense range [0, dict size), exact
    // distinct count — and decode from the double dictionary at emit.
    const auto dsize = static_cast<std::int64_t>(c.double_dictionary().size());
    part.double_codes = true;
    part.max = std::max<std::int64_t>(0, dsize - 1);
    part.domain = std::max<std::int64_t>(1, dsize);
    part.distinct = static_cast<std::uint64_t>(dsize);
    return part;
  }
  const storage::ColumnStats& cs = c.stats();
  part.min = cs.rows == 0 ? 0 : cs.min;
  part.max = cs.rows == 0 ? 0 : cs.max;
  part.domain = std::max<std::int64_t>(1, cs.domain());
  part.distinct = cs.distinct;
  return part;
}

std::int64_t assign_strides(std::span<GroupKeyPart> parts) {
  std::int64_t total = 1;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    it->stride = total;
    if (it->domain > (std::int64_t{1} << 62) / total)
      throw Error("composite group-by domain too large");
    total *= it->domain;
  }
  return total;
}

QueryResult aggregate_rows(
    OpContext& ctx, const LogicalPlan& plan, const Table& table,
    const BitVector& selection,
    const std::function<const Column&(const std::string&)>& column_of,
    std::vector<GroupKeyPart> parts,
    const std::set<std::string>& plain_required) {
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  const std::uint64_t selected = selection.count();
  const bool parallel = options.pool != nullptr &&
                        selected >= options.parallel_agg_min_rows;

  // ---- Resolve AggSpecs to shared inputs: each distinct column (or
  // expression) becomes ONE kernel input, read exactly once, and is
  // charged to the DRAM ledger exactly once. ------------------------------
  //
  // One representation per column per query: consumers with no packed
  // kernel (expression evaluation, composite-key synthesis) read the
  // plain array, so a column any of them touches is consumed plain by
  // every consumer — otherwise the once-per-query charge could not match
  // what the pass actually streams.
  const auto consume_packed = [&](const Column& c) {
    return use_packed(c, options) &&
           plain_required.count(OpContext::charge_key(table, c)) == 0;
  };
  // Aggregate inputs consume the packed image when one exists: the pass
  // streams fewer DRAM bytes, and the ledger charges exactly those.
  const auto input_of = [&](const Column& c) {
    if (consume_packed(c)) {
      ctx.charge_column(table, c, true);
      return exec::AggInput::from(c.packed_view());
    }
    ctx.charge_column(table, c, false);
    return agg_input_of(c);
  };

  std::vector<exec::AggInput> inputs;
  std::deque<std::vector<double>> expr_values;  // stable storage for spans
  std::map<std::string, std::size_t> input_index;
  std::vector<int> spec_input(plan.aggregates.size(), -1);  // -1 = COUNT
  for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
    const AggSpec& a = plan.aggregates[ai];
    if (a.op == AggOp::kCount) continue;  // COUNT needs no input column
    if (a.expr != nullptr) {
      const std::string key = "expr:" + a.expr->to_string();
      const auto it = input_index.find(key);
      if (it == input_index.end()) {
        std::vector<std::string> referenced;
        a.expr->collect_columns(referenced);
        // Expression evaluation reads the plain arrays (no packed kernel)
        // — the transient-decode fallback arm.
        for (const std::string& name : referenced)
          ctx.charge_column(table, table.column(name), false);
        expr_values.emplace_back();
        exec::evaluate_expression(*a.expr, table, expr_values.back());
        input_index[key] = inputs.size();
        spec_input[ai] = static_cast<int>(inputs.size());
        inputs.push_back(exec::AggInput::from(
            std::span<const double>(expr_values.back())));
      } else {
        spec_input[ai] = static_cast<int>(it->second);
      }
    } else {
      const auto it = input_index.find(a.column);
      if (it == input_index.end()) {
        input_index[a.column] = inputs.size();
        spec_input[ai] = static_cast<int>(inputs.size());
        inputs.push_back(input_of(column_of(a.column)));
      } else {
        spec_input[ai] = static_cast<int>(it->second);
      }
    }
  }

  // Each input accumulates only the state its AggSpecs read.
  for (exec::AggInput& in : inputs) in.ops = 0;
  for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai)
    if (spec_input[ai] >= 0)
      inputs[static_cast<std::size_t>(spec_input[ai])].ops |=
          agg_state_of(plan.aggregates[ai].op);

  if (!plan.has_group_by()) {
    // Global aggregates: one pass computes the named state for every
    // input; each AggSpec just projects its op out of the shared result.
    std::vector<exec::AggOut> outs;
    if (!inputs.empty())
      outs = parallel ? exec::parallel_multi_aggregate(*options.pool, inputs,
                                                       selection)
                      : exec::multi_aggregate(inputs, selection);
    std::vector<std::string> names;
    names.reserve(plan.aggregates.size());
    for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
    QueryResult result(std::move(names));
    std::vector<storage::Value> row;
    row.reserve(plan.aggregates.size());
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (spec_input[ai] < 0)
        row.emplace_back(static_cast<std::int64_t>(selected));
      else
        row.push_back(agg_out_value(a.op,
                                    outs[static_cast<std::size_t>(
                                        spec_input[ai])]));
    }
    result.add_row(std::move(row));
    stats.work.cpu_cycles +=
        kAggCyclesPerTuple * static_cast<double>(selected) *
        static_cast<double>(std::max<std::size_t>(1, inputs.size()));
    stats.groups = 1;
    return result;
  }

  // ---- Grouped aggregation. Key ranges come from the cached column
  // statistics — no per-query min/max scan over the key columns. Key
  // columns of `table` are charged here; a lookup's dimension column was
  // charged where its lookup was built. ------------------------------------
  for (const GroupKeyPart& part : parts) {
    if (part.lookup) continue;
    if (part.double_codes)
      // The pass streams the 4-byte code array, so that is the charge
      // (unless another consumer already billed the plain width).
      ctx.charge_column_bytes(table, *part.col,
                              4.0 * static_cast<double>(part.col->size()));
    else
      ctx.charge_column(table, *part.col, consume_packed(*part.col));
  }

  exec::GroupedAggs grouped;
  const std::size_t n_rows = table.row_count();
  const bool composite = parts.size() > 1;
  if (!composite) {
    // Single key column consumed in place (int32/codes stay 32-bit;
    // encoded keys stay packed and decode once per block word; lookup
    // keys decode their foreign key the same way).
    const GroupKeyPart& part = parts.front();
    const exec::KeyRange range{true, part.min, part.max, part.distinct};
    if (part.lookup) {
      const exec::LookupKey keys{part.fk, part.lut, part.lut_min};
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate_lookup(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate_lookup(keys, inputs,
                                                           selection, range);
    } else if (consume_packed(*part.col)) {
      const storage::PackedView keys = part.col->packed_view();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate_packed(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate_packed(keys, inputs,
                                                           selection, range);
    } else if (part.double_codes) {
      const auto keys = part.col->double_codes();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate32(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate32(keys, inputs, selection,
                                                      range);
    } else if (part.col->type() == TypeId::kInt64) {
      const auto keys = part.col->int64_data();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate(keys, inputs, selection,
                                                    range);
    } else {
      const auto keys = part.col->int32_data();  // int32 or string codes
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate32(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate32(keys, inputs, selection,
                                                      range);
    }
  } else {
    const std::int64_t total = assign_strides(parts);
    // Synthesize the composite keys into the reusable scratch buffer at
    // the selected rows, the only rows the kernels read: one pass per key
    // part, typed per part (a lookup reads only the rows its foreign keys
    // address).
    ctx.key_scratch.assign(n_rows, 0);
    for (const GroupKeyPart& part : parts) {
      const auto add = [&](const auto& value_at) {
        selection.for_each_set([&](std::size_t i) {
          ctx.key_scratch[i] += (value_at(i) - part.min) * part.stride;
        });
      };
      if (part.lookup) {
        add([&](std::size_t i) {
          return part.lut[static_cast<std::size_t>(part.fk.int_at(i) -
                                                   part.lut_min)];
        });
      } else if (part.double_codes) {
        const auto data = part.col->double_codes();
        add([&](std::size_t i) { return std::int64_t{data[i]}; });
      } else if (part.col->type() == TypeId::kInt64) {
        const auto data = part.col->int64_data();
        add([&](std::size_t i) { return data[i]; });
      } else {
        const auto data = part.col->int32_data();
        add([&](std::size_t i) { return std::int64_t{data[i]}; });
      }
    }
    const std::span<const std::int64_t> keys(ctx.key_scratch.data(), n_rows);
    const exec::KeyRange range{true, 0, total - 1};
    grouped = parallel ? exec::parallel_grouped_multi_aggregate(
                             *options.pool, keys, inputs, selection, range)
                       : exec::grouped_multi_aggregate(keys, inputs,
                                                       selection, range);
  }
  stats.groups = grouped.group_count();
  stats.work.cpu_cycles +=
      kGroupCyclesPerTuple * static_cast<double>(selected) +
      kAggCyclesPerTuple * static_cast<double>(selected) *
          static_cast<double>(inputs.size());
  return emit_groups(ctx, plan, parts, grouped, spec_input, inputs);
}

QueryResult emit_groups(OpContext& ctx, const LogicalPlan& plan,
                        std::span<const GroupKeyPart> parts,
                        const exec::GroupedAggs& grouped,
                        std::span<const int> spec_input,
                        std::span<const exec::AggInput> inputs) {
  // String group keys late-materialize here: the emitted groups gather
  // from the dictionary payload, and that traffic is charged (bounded by
  // one full dictionary read).
  for (const GroupKeyPart& part : parts)
    if (part.col->type() == TypeId::kString)
      ctx.charge_dict_gather(*part.tbl, *part.col, grouped.group_count());

  const auto key_value = [](const GroupKeyPart& part, std::int64_t key) {
    if (part.col->type() == TypeId::kString)
      return storage::Value{
          part.col->dictionary().at(static_cast<std::int32_t>(key))};
    if (part.double_codes)
      return storage::Value{
          part.col->double_dictionary().at(static_cast<std::int32_t>(key))};
    return storage::Value{key};
  };
  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult result(std::move(names));
  for (std::size_t g = 0; g < grouped.group_count(); ++g) {
    std::vector<storage::Value> row;
    row.reserve(parts.size() + plan.aggregates.size());
    if (parts.size() == 1) {
      row.push_back(key_value(parts.front(), grouped.keys[g]));
    } else {
      // Decode the composite key back into per-column values.
      for (const GroupKeyPart& part : parts)
        row.push_back(key_value(
            part, (grouped.keys[g] / part.stride) % part.domain + part.min));
    }
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (spec_input[ai] < 0) {
        row.emplace_back(static_cast<std::int64_t>(grouped.counts[g]));
        continue;
      }
      const auto j = static_cast<std::size_t>(spec_input[ai]);
      exec::AggOut out;
      out.is_double = inputs[j].is_double();
      if (out.is_double)
        out.d = grouped.dout[j][g];
      else
        out.i = grouped.iout[j][g];
      row.push_back(agg_out_value(a.op, out));
    }
    result.add_row(std::move(row));
  }
  return result;
}

exec::AggInput agg_input_of(const Column& c) {
  switch (c.type()) {
    case TypeId::kInt32:
      return exec::AggInput::from(c.int32_data());
    case TypeId::kString:
      return exec::AggInput::from(c.codes());
    case TypeId::kInt64:
      return exec::AggInput::from(c.int64_data());
    case TypeId::kDouble:
      return exec::AggInput::from(c.double_data());
  }
  throw Error("invalid column type");
}

exec::AggOpSet agg_state_of(AggOp op) {
  switch (op) {
    case AggOp::kCount:
      return 0;
    case AggOp::kSum:
    case AggOp::kAvg:
      return exec::kAggSum;
    case AggOp::kMin:
      return exec::kAggMin;
    case AggOp::kMax:
      return exec::kAggMax;
  }
  return exec::kAggAllOps;
}

storage::Value agg_out_value(AggOp op, const exec::AggOut& out) {
  if (out.is_double) {
    const exec::AggResultD& r = out.d;
    switch (op) {
      case AggOp::kCount:
        return storage::Value{static_cast<std::int64_t>(r.count)};
      case AggOp::kSum:
        return storage::Value{r.sum};
      case AggOp::kMin:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.min};
      case AggOp::kMax:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.max};
      case AggOp::kAvg:
        return storage::Value{r.avg()};
    }
  } else {
    const exec::AggResult& r = out.i;
    switch (op) {
      case AggOp::kCount:
        return storage::Value{static_cast<std::int64_t>(r.count)};
      case AggOp::kSum:
        return storage::Value{r.sum};
      case AggOp::kMin:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.min};
      case AggOp::kMax:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.max};
      case AggOp::kAvg:
        return storage::Value{r.avg()};
    }
  }
  return {};
}

QueryResult run_aggregate(OpContext& ctx, const LogicalPlan& plan,
                          const Table& table, const BitVector& selection) {
  OperatorScope scope(ctx.stats,
                      plan.has_group_by() ? "group-aggregate" : "aggregate");
  // Expression evaluation and composite-key synthesis have no packed
  // kernel: the columns they touch are read plain by every consumer.
  std::set<std::string> plain_required;
  for (const AggSpec& a : plan.aggregates) {
    if (a.expr == nullptr) continue;
    std::vector<std::string> referenced;
    a.expr->collect_columns(referenced);
    for (const std::string& name : referenced)
      plain_required.insert(OpContext::charge_key(table, table.column(name)));
  }
  std::vector<GroupKeyPart> parts;
  for (const std::string& name : plan.group_by) {
    const Column& col = table.column(name);
    parts.push_back(group_key_part(table, col));
    if (plan.group_by.size() > 1)
      plain_required.insert(OpContext::charge_key(table, col));
  }
  return aggregate_rows(
      ctx, plan, table, selection,
      [&table](const std::string& name) -> const Column& {
        return table.column(name);
      },
      std::move(parts), plain_required);
}

}  // namespace eidb::query::ops
