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

namespace {

QueryResult run_aggregate_vectorized(OpContext& ctx, const LogicalPlan& plan,
                                     const Table& table,
                                     const BitVector& selection) {
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
  std::set<std::string> plain_required;
  for (const AggSpec& a : plan.aggregates) {
    if (a.expr == nullptr) continue;
    std::vector<std::string> referenced;
    a.expr->collect_columns(referenced);
    plain_required.insert(referenced.begin(), referenced.end());
  }
  if (plan.group_by.size() > 1)
    plain_required.insert(plan.group_by.begin(), plan.group_by.end());
  const auto consume_packed = [&](const Column& c) {
    return use_packed(c, options) && plain_required.count(c.name()) == 0;
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
        const Column& c = table.column(a.column);
        input_index[a.column] = inputs.size();
        spec_input[ai] = static_cast<int>(inputs.size());
        inputs.push_back(input_of(c));
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
  // statistics — no per-query min/max scan over the key columns. ----------
  struct GroupKeyPart {
    const Column* col;
    /// Double key grouped on its dictionary codes (decoded at emit).
    bool double_codes = false;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t domain = 1;  // max - min + 1, saturated by ColumnStats
    std::int64_t stride = 1;
    std::uint64_t distinct = 0;
  };
  std::vector<GroupKeyPart> parts;
  const std::size_t n_rows = table.row_count();
  // Composite keys are in plain_required (synthesized from the plain
  // arrays); a single packed key column is consumed in place.
  for (const std::string& name : plan.group_by) {
    const Column& col = table.column(name);
    GroupKeyPart part;
    part.col = &col;
    if (col.type() == TypeId::kDouble) {
      if (!col.has_double_dictionary())
        throw Error("cannot group by double column " + col.name() +
                    " (no ordered dictionary: column contains NaN)");
      // Group on the int32 codes — dense range [0, dict size), exact
      // distinct count — and decode from the double dictionary at emit.
      // The pass streams the 4-byte code array, so that is the charge
      // (unless another consumer already billed the plain width).
      ctx.charge_column_bytes(table, col,
                              4.0 * static_cast<double>(col.size()));
      const auto dsize =
          static_cast<std::int64_t>(col.double_dictionary().size());
      part.double_codes = true;
      part.min = 0;
      part.max = std::max<std::int64_t>(0, dsize - 1);
      part.domain = std::max<std::int64_t>(1, dsize);
      part.distinct = static_cast<std::uint64_t>(dsize);
      parts.push_back(part);
      continue;
    }
    ctx.charge_column(table, col, consume_packed(col));
    const storage::ColumnStats& cs = col.stats();
    part.min = cs.rows == 0 ? 0 : cs.min;
    part.max = cs.rows == 0 ? 0 : cs.max;
    part.domain = std::max<std::int64_t>(1, cs.domain());
    part.distinct = cs.distinct;
    parts.push_back(part);
  }

  exec::GroupedAggs grouped;
  const bool composite = parts.size() > 1;
  if (!composite) {
    // Single key column consumed in place (int32/codes stay 32-bit;
    // encoded keys stay packed and decode once per block word).
    const GroupKeyPart& part = parts.front();
    const exec::KeyRange range{true, part.min, part.max, part.distinct};
    if (consume_packed(*part.col)) {
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
    // Strides right-to-left; guard against composite-domain overflow.
    std::int64_t total = 1;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      it->stride = total;
      if (it->domain > (std::int64_t{1} << 62) / total)
        throw Error("composite group-by domain too large");
      total *= it->domain;
    }
    // Synthesize the composite keys into the reusable scratch buffer
    // (one sequential pass per key column).
    ctx.key_scratch.assign(n_rows, 0);
    for (const GroupKeyPart& part : parts) {
      if (part.double_codes) {
        const auto data = part.col->double_codes();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
      } else if (part.col->type() == TypeId::kInt64) {
        const auto data = part.col->int64_data();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
      } else {
        const auto data = part.col->int32_data();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
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

  // String group keys late-materialize at emit: the emitted groups gather
  // from the dictionary payload, and that traffic is charged (bounded by
  // one full dictionary read).
  for (const GroupKeyPart& part : parts)
    if (part.col->type() == TypeId::kString)
      ctx.charge_dict_gather(table, *part.col, grouped.group_count());

  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult result(std::move(names));

  for (std::size_t g = 0; g < grouped.group_count(); ++g) {
    std::vector<storage::Value> row;
    row.reserve(parts.size() + plan.aggregates.size());
    if (!composite) {
      const GroupKeyPart& part = parts.front();
      if (part.col->type() == TypeId::kString)
        row.emplace_back(part.col->dictionary().at(
            static_cast<std::int32_t>(grouped.keys[g])));
      else if (part.double_codes)
        row.emplace_back(part.col->double_dictionary().at(
            static_cast<std::int32_t>(grouped.keys[g])));
      else
        row.emplace_back(grouped.keys[g]);
    } else {
      // Decode the composite key back into per-column values.
      for (const GroupKeyPart& part : parts) {
        const std::int64_t component =
            (grouped.keys[g] / part.stride) % part.domain + part.min;
        if (part.col->type() == TypeId::kString)
          row.emplace_back(part.col->dictionary().at(
              static_cast<std::int32_t>(component)));
        else if (part.double_codes)
          row.emplace_back(part.col->double_dictionary().at(
              static_cast<std::int32_t>(component)));
        else
          row.emplace_back(component);
      }
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

}  // namespace

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
  return run_aggregate_vectorized(ctx, plan, table, selection);
}

}  // namespace eidb::query::ops
