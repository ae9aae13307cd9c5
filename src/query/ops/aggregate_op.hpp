// Aggregation operator over a base-table selection: the single-pass
// block-vectorized pipeline. The join operator reuses it twice: a
// chainless join (every step a filter or gather step) aggregates the
// FROM table's filtered selection through aggregate_rows, with gather
// steps' group keys read through lookups (a groupjoin), and the join
// chain's aggregator emits through the same emit_groups.
#pragma once

#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "exec/vector_agg.hpp"
#include "query/ops/op_context.hpp"
#include "query/plan.hpp"
#include "storage/table.hpp"
#include "util/bitvector.hpp"

namespace eidb::query::ops {

/// One part of a (possibly composite) GROUP BY key as the grouped kernels
/// read it: a column of the aggregated table or, in a groupjoin, a
/// dimension column read through a dense lookup on a foreign key of the
/// aggregated table — row i's part is lut[fk(i) - lut_min], the column's
/// value (or dictionary code) at the one build row that key joins.
struct GroupKeyPart {
  const storage::Table* tbl = nullptr;   ///< The table owning `col`.
  const storage::Column* col = nullptr;  ///< Values or codes the key holds.
  /// Double key grouped on its dictionary codes (decoded at emit).
  bool double_codes = false;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t domain = 1;  ///< max - min + 1, saturated by ColumnStats.
  std::int64_t stride = 1;  ///< Weight of this part in a composite key.
  std::uint64_t distinct = 0;
  bool lookup = false;  ///< Read through the lookup below.
  exec::AggInput fk;    ///< The aggregated table's foreign key.
  std::vector<std::int64_t> lut;
  std::int64_t lut_min = 0;
  /// The fk column's cached range is wider than the lookup's domain, so
  /// every read is bound-checked (exec::LookupKey::check_fk).
  bool check_fk = false;

  [[nodiscard]] exec::LookupKey lookup_key() const {
    return {fk, lut, lut_min, check_fk};
  }
};

/// Part over column `c` of `t`, with its range from the cached column
/// statistics (the dictionary-code range for double keys). Throws for a
/// double column without an ordered dictionary (it holds NaN).
[[nodiscard]] GroupKeyPart group_key_part(const storage::Table& t,
                                          const storage::Column& c);

/// Lays out a composite key: each part's stride, right to left, so that
/// key = Σ (part - min) * stride. Returns the composite domain; throws
/// when it would overflow.
std::int64_t assign_strides(std::span<GroupKeyPart> parts);

/// Aggregates `selection` of `table` with the base kernels: the plan's
/// aggregate inputs, columns of `table` that `column_of` resolves, and
/// the group key `parts` (columns of `table` or lookups). A column that
/// `plain_required` names (OpContext::charge_key) is read plain; every
/// other input and key column streams its packed image when it has one.
/// Charges the inputs, then the key columns of `table`.
[[nodiscard]] QueryResult aggregate_rows(
    OpContext& ctx, const LogicalPlan& plan, const storage::Table& table,
    const BitVector& selection,
    const std::function<const storage::Column&(const std::string&)>&
        column_of,
    std::vector<GroupKeyPart> parts,
    const std::set<std::string>& plain_required);

/// The one grouped emit: a result row per group of `grouped`, its key
/// decoded per part (dictionary string, double code or integer; composite
/// keys by stride; no parts for a global aggregate), then each AggSpec's
/// value from `spec_input[ai]`'s output of `inputs` (-1 = COUNT). Charges
/// the dictionary gathers of string keys.
[[nodiscard]] QueryResult emit_groups(OpContext& ctx, const LogicalPlan& plan,
                                      std::span<const GroupKeyPart> parts,
                                      const exec::GroupedAggs& grouped,
                                      std::span<const int> spec_input,
                                      std::span<const exec::AggInput> inputs);

/// Typed kernel view of an integer-or-double column; dictionary and int32
/// columns are consumed as int32 directly (no widened copy).
[[nodiscard]] exec::AggInput agg_input_of(const storage::Column& c);

/// Column::int_at with a typed error for double columns (join key and
/// sort gathers).
[[nodiscard]] std::int64_t column_int_at(const storage::Column& c,
                                         std::size_t i);

/// The accumulator state `op` reads from its input: AVG the sum (with
/// the shared count), COUNT none. Inputs keep only the union over the
/// AggSpecs that read them.
[[nodiscard]] exec::AggOpSet agg_state_of(AggOp op);

/// Value of one aggregate op from a single-pass AggOut, with zeroed
/// empty-input semantics (min/max of nothing = 0).
[[nodiscard]] storage::Value agg_out_value(AggOp op, const exec::AggOut& out);

/// Runs the plan's aggregates (global or grouped) over the selection.
[[nodiscard]] QueryResult run_aggregate(OpContext& ctx,
                                        const LogicalPlan& plan,
                                        const storage::Table& table,
                                        const BitVector& selection);

}  // namespace eidb::query::ops
