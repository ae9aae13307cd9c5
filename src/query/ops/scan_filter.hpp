// Scan + filter operator: predicate binding, statistics-based pruning and
// ordering, and selection-bitmap evaluation over plain, packed and
// zone-mapped columns. Shared by the probe-side scan, every join step's
// build-side scan, the fused multi-query scan (query/shared_scan) and the
// physical planner's selectivity estimates.
//
// bind_conjunction is the one place predicates become conjuncts. Without
// zone maps a scan is a one-member call of the conjunct pass
// (exec/shared_scan), the same pass a fused group runs; with zone maps
// each predicate scans only its column's candidate blocks (E1).
#pragma once

#include <utility>
#include <vector>

#include "exec/shared_scan.hpp"
#include "query/ops/op_context.hpp"
#include "query/plan.hpp"
#include "storage/table.hpp"
#include "util/bitvector.hpp"

namespace eidb::query::ops {

/// Estimated selectivity of `p` from the cached column statistics
/// (uniform-value assumption) — orders conjuncts and feeds the physical
/// planner's cardinality estimates.
[[nodiscard]] double estimate_predicate_selectivity(
    const storage::Column& column, const Predicate& p);

/// True when scans/aggregates over `column` should consume its packed
/// image under `options` (encoded, integer-typed, encodings enabled).
[[nodiscard]] bool use_packed(const storage::Column& column,
                              const ExecOptions& options);

/// One scan's predicates bound for the conjunct pass.
struct Conjunction {
  /// True when bounds or cached statistics proved that no row matches:
  /// no conjunct remains and nothing is scanned.
  bool none = false;
  /// Conjuncts to evaluate, most-selective-first by
  /// estimate_predicate_selectivity (stable); a predicate the statistics
  /// prove true on every row is dropped unscanned.
  std::vector<exec::SharedConjunct> conjuncts;
  /// Per conjunct: the column it reads and whether it streams the packed
  /// image — what the ledger charges.
  std::vector<std::pair<const storage::Column*, bool>> scanned;
};

/// Orders, binds and stats-prunes `predicates` over `table` into
/// conjuncts: string bounds become dictionary-code ranges, packed bounds
/// are reference-shifted, int32 bounds are clamped. Throws eidb::Error on
/// a string column with non-string bounds.
[[nodiscard]] Conjunction bind_conjunction(
    const storage::Table& table, const std::vector<Predicate>& predicates,
    const ExecOptions& options);

/// Evaluates the conjunction of `predicates` over `table` into a selection
/// bitmap (see docs/executor_pipeline.md, "Selection-aware predicate
/// evaluation") and charges the scan to the DRAM ledger via `ctx`.
[[nodiscard]] BitVector evaluate_predicates(
    OpContext& ctx, const storage::Table& table,
    const std::vector<Predicate>& predicates);

}  // namespace eidb::query::ops
