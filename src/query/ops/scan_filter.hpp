// Scan + filter operator: predicate binding, statistics-based pruning and
// ordering, and selection-bitmap evaluation over plain, packed and
// zone-mapped columns. Extracted from the executor monolith; shared by
// the probe-side scan, every join step's build-side scan, and the
// physical planner's selectivity estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "query/ops/op_context.hpp"
#include "query/plan.hpp"
#include "storage/table.hpp"
#include "util/bitvector.hpp"

namespace eidb::query::ops {

/// A predicate's bounds bound to a column's type (string bounds become
/// dictionary-code ranges).
struct BoundRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool empty = false;
  bool is_double = false;
  double dlo = 0;
  double dhi = 0;
};

[[nodiscard]] BoundRange bind_predicate(const storage::Column& column,
                                        const Predicate& p);

/// Estimated selectivity of `p` from the cached column statistics
/// (uniform-value assumption) — orders conjuncts and feeds the physical
/// planner's cardinality estimates.
[[nodiscard]] double estimate_predicate_selectivity(
    const storage::Column& column, const Predicate& p);

/// True when scans/aggregates over `column` should consume its packed
/// image under `options` (encoded, integer-typed, encodings enabled).
[[nodiscard]] bool use_packed(const storage::Column& column,
                              const ExecOptions& options);

/// `predicates` in evaluation order: most-selective-first by
/// estimate_predicate_selectivity (stable) when options.order_predicates
/// is set, declaration order otherwise.
[[nodiscard]] std::vector<const Predicate*> ordered_predicates(
    const storage::Table& table, const std::vector<Predicate>& predicates,
    const ExecOptions& options);

/// Stats-based pre-scan pruning of one bound predicate from the column's
/// cached [min, max]: kAll (every row matches; nothing scanned or
/// charged), kNone (no row matches) or kScan (evaluate it).
enum class Prune : std::uint8_t { kScan, kAll, kNone };
[[nodiscard]] Prune prune_with_stats(const storage::Column& column,
                                     const BoundRange& r);

/// Integer predicate bounds rewritten into a packed image's reference-
/// shifted domain. Precondition: [lo, hi] overlaps the column's
/// [min, max] (prune_with_stats returned kScan), so hi >= reference and
/// the unsigned shift is exact.
struct PackedBounds {
  std::uint64_t lo;
  std::uint64_t hi;
};
[[nodiscard]] PackedBounds packed_bounds(const storage::EncodedSegment& seg,
                                         std::int64_t lo, std::int64_t hi);

/// Evaluates the conjunction of `predicates` over `table` into a selection
/// bitmap, ordering conjuncts most-selective-first and running later ones
/// through masked kernels (see docs/executor_pipeline.md). Charges each
/// scan pass to the DRAM ledger via `ctx`.
[[nodiscard]] BitVector evaluate_predicates(
    OpContext& ctx, const storage::Table& table,
    const std::vector<Predicate>& predicates);

}  // namespace eidb::query::ops
