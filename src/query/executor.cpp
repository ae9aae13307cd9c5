#include "query/executor.hpp"

#include "query/distributed.hpp"
#include "query/ops/op_context.hpp"
#include "query/ops/pipeline.hpp"
#include "query/ops/scan_filter.hpp"
#include "query/physical_plan.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace eidb::query {

BitVector Executor::evaluate_predicates(const storage::Table& table,
                                        const std::vector<Predicate>& preds,
                                        ExecStats& stats,
                                        const ExecOptions& options) {
  ops::OpContext ctx{catalog_, options, stats, key_scratch_, {}};
  return ops::evaluate_predicates(ctx, table, preds);
}

QueryResult Executor::execute(const LogicalPlan& plan, ExecStats& stats,
                              const ExecOptions& options) {
  return execute(compile_plan(catalog_, plan, options), stats, options);
}

QueryResult Executor::execute(const PhysicalPlan& phys, ExecStats& stats,
                              const ExecOptions& options) {
  const LogicalPlan& plan = phys.logical;
  const storage::Table& table = catalog_.get(plan.table);
  if (!table.complete()) throw Error("table not fully loaded: " + plan.table);
  Stopwatch total;

  QueryResult result;
  if (phys.dist.active() && options.shard_count > 0) {
    result = run_distributed(catalog_, phys, stats, options);
  } else {
    ops::OpContext ctx{catalog_, options, stats, key_scratch_, {}};
    result = ops::execute_pipeline(ctx, phys, table);
  }
  stats.elapsed_s = total.elapsed_seconds();
  return result;
}

}  // namespace eidb::query
