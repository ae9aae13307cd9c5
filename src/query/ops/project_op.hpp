// Projection / materialization operator over a base-table selection:
// optional sort/top-k on a key column (see sort_op), then value gathers
// for the emitted rows only. The ledger charge of each projected column
// is the gathered fraction — an ORDER BY + LIMIT k query charges k rows'
// worth of the payload columns, not the full arrays, because that is all
// the top-k pass reads.
#pragma once

#include <algorithm>
#include <vector>

#include "exec/parallel.hpp"
#include "query/ops/op_context.hpp"
#include "query/physical_plan.hpp"
#include "storage/table.hpp"
#include "util/bitvector.hpp"

namespace eidb::query::ops {

/// Appends row_at(0), ..., row_at(n - 1) to `result`, gathered over the
/// chunks of one pass (exec::pass_chunks over n rows, all live): chunk 0
/// appends in place, later chunks fill position-addressed slots appended
/// after it, so the rows land in order at every pool width.
template <typename RowAt>
void append_rows(sched::ThreadPool* pool, QueryResult& result, std::size_t n,
                 const RowAt& row_at) {
  const exec::Chunks chunks = exec::pass_chunks(pool, n, n);
  std::vector<std::vector<storage::Value>> later(n - std::min(n, chunks.grain));
  chunks.run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (chunk == 0)
        result.add_row(row_at(i));
      else
        later[i - chunks.grain] = row_at(i);
    }
  });
  for (auto& row : later) result.add_row(std::move(row));
}

[[nodiscard]] QueryResult run_projection(OpContext& ctx,
                                         const PhysicalPlan& phys,
                                         const storage::Table& table,
                                         const BitVector& selection);

}  // namespace eidb::query::ops
