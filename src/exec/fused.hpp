// Fused filter+aggregate kernels (paper §IV.B, citing Neumann [14]).
//
// "Recent developments focus on efficient code generation as an alternative
// to build a data-flow graph based on pre-compiled plan operators." The
// measurable core of compiled plans is *fusion*: one pass that filters and
// aggregates keeps tuples in registers, where operator-at-a-time execution
// materializes a selection bitmap and re-reads the data. These kernels are
// the hand-fused equivalents the A3 ablation and k0 compare against the
// materializing pipeline. Short-circuit evaluation of later conjuncts lives
// in the conjunct pass (exec/shared_scan).
#pragma once

#include <cstdint>
#include <span>

#include "exec/aggregate.hpp"

namespace eidb::exec {

/// One-pass filter(lo <= k <= hi on keys) + aggregate(values): the fused
/// `scan -> filter -> agg` pipeline over two columns.
[[nodiscard]] AggResult fused_filter_aggregate(
    std::span<const std::int64_t> keys, std::int64_t lo, std::int64_t hi,
    std::span<const std::int64_t> values);

/// Same-column special case: filter and aggregate the same values.
[[nodiscard]] AggResult fused_filter_aggregate_self(
    std::span<const std::int64_t> values, std::int64_t lo, std::int64_t hi);

}  // namespace eidb::exec
