// Physical execution of logical plans against a catalog.
//
// Column-at-a-time execution in the MonetDB style: predicates produce
// selection bitmaps via the SIMD kernels, aggregation/join/sort consume
// them. The executor also *meters* execution — every operator contributes
// elapsed seconds and abstract hw::Work so the energy layer can attribute
// joules (measured or modeled) to the query, per operator
// (ExecStats::operators) and in total.
//
// Since the physical-plan refactor the executor is a thin dispatcher: a
// LogicalPlan is compiled into a query::PhysicalPlan (join order, join
// arms, sort strategy — see query/physical_plan.hpp) and the per-operator
// translation units under src/query/ops/ execute it. Each planner question
// has one decision-maker: opt::CostModel picks the join arms (a caller
// pins one only through the model's KernelCosts) and sched::Governor the
// P-state and cores.
//
//   ops/scan_filter   predicate binding and pruning; a solo scan is a
//                     one-member conjunct pass (exec/shared_scan)
//   ops/join_op       multi-way chained joins, dense/hash/radix arms
//   ops/aggregate_op  single-pass vectorized aggregation
//   ops/sort_op       sort / heap top-k (typed key views, result rows)
//   ops/project_op    late materialization with gather-bounded charging
//
// Each operator has one production path, and each of its passes one code
// path whose chunks exec::pass_chunks decides; the reference behaviour
// the parity suites check it against lives in the test oracle
// (tests/query/parity_matrix.hpp), not in a selectable arm here. See
// docs/executor_pipeline.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "query/plan.hpp"
#include "query/result.hpp"
#include "sched/governor.hpp"
#include "sched/thread_pool.hpp"
#include "storage/table.hpp"
#include "storage/tier.hpp"
#include "util/bitvector.hpp"

namespace eidb::net {
class Cluster;
}  // namespace eidb::net

namespace eidb::opt {
class CostModel;
}  // namespace eidb::opt

namespace eidb::query {

struct PhysicalPlan;
class OperatorCalibration;

struct ExecOptions {
  /// Use per-block zone maps to prune scans (the E1 "better plan" arm).
  bool use_zone_maps = false;
  std::size_t zone_block_rows = 4096;
  /// Optional tier manager: cold-column accesses are charged (E6).
  storage::TierManager* tiers = nullptr;
  /// Optional worker pool. Every pass, predicate scans included, takes
  /// its chunks from exec::pass_chunks: one on the caller without a pool
  /// or below one morsel (exec::kDefaultMorselRows) of live rows,
  /// exec::chunk_grain chunks on the pool otherwise.
  sched::ThreadPool* pool = nullptr;
  /// Consume bit-packed column images where one exists (predicate scans,
  /// aggregation, join-key probing, and sort keys): predicates are
  /// rewritten into the packed domain and the DRAM ledger is charged the
  /// packed byte count. Off = always read the plain arrays (the parity
  /// baseline). Operators with no packed kernel (projections, join
  /// gathers, expression evaluation) transparently fall back to plain
  /// either way.
  bool use_encodings = true;
  /// Cost model consulted by the physical planner; nullptr uses the
  /// library defaults. Its pick_join_arm alone picks each join step's arm
  /// (dense / hash / radix) from the build key's cached statistics: a
  /// caller pins an arm by handing it opt::KernelCosts under which the
  /// model picks that arm.
  const opt::CostModel* cost_model = nullptr;
  /// Plan governor: when set, compile_plan estimates the query's work via
  /// the cost model and sched::Governor::decide picks its P-state at the
  /// core grant, recording the decision in PhysicalPlan::governor /
  /// EXPLAIN. The serving tier paces at that state and core::Database
  /// bills at it (see query/plan_governor.hpp).
  const sched::Governor* governor = nullptr;
  /// What the plan governor decides under: deadline, energy budget and
  /// the stream policy in force (see sched::QueryConstraint).
  sched::QueryConstraint constraint;
  /// Measured-vs-predicted cycle calibration (EWMA per operator kind)
  /// consulted by the plan governor's work estimate; core::Database feeds
  /// it from measured ExecStats after every query. nullptr = model as-is.
  const OperatorCalibration* calibration = nullptr;
  /// Sharded execution: > 0 runs the plan over the FROM table's hash-
  /// partition layer (storage::Table::build_partitions — compile_plan
  /// throws when the layer is absent or its shard count disagrees) and
  /// merges at the coordinator, with every shard → coordinator transfer
  /// accounted through the cluster model (ExecStats wire_* fields and
  /// Work::net_bytes). 0 = single-node execution.
  std::size_t shard_count = 0;
  /// Cluster carrying the shard traffic: node i hosts shard i, node 0 is
  /// the coordinator. nullptr with shard_count > 0 uses a transient
  /// fully connected 10GbE cluster for the query.
  net::Cluster* cluster = nullptr;
  /// Serving-tier clamp on the plan governor's core grant (0 = uncapped):
  /// under concurrency each in-flight query is granted at most this many
  /// cores so a batch of queries cannot collectively oversubscribe the
  /// machine. The uncapped grant is still recorded as
  /// GovernorChoice::requested_cores for requested-vs-granted visibility.
  std::size_t core_cap = 0;
};

/// NOT thread-safe across concurrent execute() calls (scratch buffers are
/// reused between operators); create one Executor per in-flight query, as
/// core::Database does. Concurrent executors over the same catalog are
/// fine — tables are immutable after load.
class Executor {
 public:
  explicit Executor(const storage::Catalog& catalog) : catalog_(catalog) {}

  /// Compiles `plan` into a PhysicalPlan (see query/physical_plan.hpp)
  /// and runs it, filling `stats`. Throws eidb::Error on invalid plans
  /// (unknown table/column, type mismatches, unsupported join shapes).
  [[nodiscard]] QueryResult execute(const LogicalPlan& plan, ExecStats& stats,
                                    const ExecOptions& options = {});

  /// Runs an already-compiled physical plan (EXPLAIN-then-execute flows
  /// and planner tests; `options` must match the ones it was compiled
  /// with for the plan's arm/sort decisions to be honored).
  [[nodiscard]] QueryResult execute(const PhysicalPlan& phys,
                                    ExecStats& stats,
                                    const ExecOptions& options = {});

  /// Computes just the selection bitmap for a table + predicates
  /// (exposed for tests and benches).
  [[nodiscard]] BitVector evaluate_predicates(
      const storage::Table& table, const std::vector<Predicate>& predicates,
      ExecStats& stats, const ExecOptions& options);

 private:
  const storage::Catalog& catalog_;
  /// Reused scratch for synthesized composite group keys.
  std::vector<std::int64_t> key_scratch_;
};

}  // namespace eidb::query
