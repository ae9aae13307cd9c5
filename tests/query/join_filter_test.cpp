// Semi-join filters (query/ops/join_op): a dense join step probed from the
// FROM table can test the fact keys against a bitmap of its surviving
// build keys before the join chain runs. The arm only drops rows the
// chain would drop anyway, so forcing it on and off through the cost
// model must give bit-identical results and identical ledger bytes — at
// every pool width and shard count, on every sink path — with the
// per-operator work summing to the query totals exactly.
#include <gtest/gtest.h>

#include "parity_matrix.hpp"

#include <string>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "opt/cost_model.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/plan_governor.hpp"
#include "sched/thread_pool.hpp"

namespace eidb::query {
namespace {

using parity::expect_identical;
using parity::make_catalog;
using storage::Catalog;

/// Pins the filter arm through prices alone: join probes so dear that
/// every filter which removes rows wins, or free so that none does.
opt::CostModel filter_model(bool on, opt::KernelCosts costs = {}) {
  costs.join_probe_per_tuple = on ? 1e12 : 0.0;
  return opt::CostModel(costs);
}

/// Star joins whose filter candidates all remove rows: dimension
/// predicates on both dims, a string-key step whose fact values include
/// tags the dimension lacks ("ash" and "oak" never match) and a
/// double-key step, over every sink path — grouped aggregate, streamed
/// projection with and without LIMIT, and ORDER BY top-k.
std::vector<std::pair<std::string, LogicalPlan>> filter_queries() {
  std::vector<std::pair<std::string, LogicalPlan>> qs;
  qs.emplace_back("star_predicates", QueryBuilder("facts")
                                         .join("dim", "u32", "key")
                                         .join_filter_int("weight", -4, 4)
                                         .join("dim2", "u32", "key2")
                                         .join_filter_int("score", -8, 8)
                                         .group_by("dim.cat")
                                         .aggregate(AggOp::kCount)
                                         .aggregate(AggOp::kSum, "dim2.score")
                                         .aggregate(AggOp::kMax, "u32")
                                         .build());
  qs.emplace_back("string_key_missing", QueryBuilder("facts")
                                            .filter_int("u32", 0, 900)
                                            .join("dim", "tag", "skey")
                                            .join_filter_int("weight", -6, 6)
                                            .join("dim2", "u32", "key2")
                                            .group_by("tag")
                                            .aggregate(AggOp::kCount)
                                            .aggregate(AggOp::kSum, "wide64")
                                            .build());
  qs.emplace_back("double_key", QueryBuilder("facts")
                                    .filter_int("u32", 0, 300)
                                    .join("dim", "dk", "dkey")
                                    .join_filter_int("weight", -4, 4)
                                    .group_by("dim.cat")
                                    .aggregate(AggOp::kCount)
                                    .aggregate(AggOp::kSum, "neg32")
                                    .build());
  qs.emplace_back("star_project", QueryBuilder("facts")
                                      .filter_int("skew32", 0, 3)
                                      .join("dim", "u32", "key")
                                      .join_filter_int("weight", -3, 3)
                                      .join("dim2", "u32", "key2")
                                      .select({"u32", "dim.cat", "neg64"})
                                      .build());
  qs.emplace_back("star_project_limit", QueryBuilder("facts")
                                            .join("dim", "u32", "key")
                                            .join_filter_int("weight", -3, 3)
                                            .select({"u32", "dim.weight"})
                                            .limit(40)
                                            .build());
  qs.emplace_back("star_topn", QueryBuilder("facts")
                                   .join("dim", "u32", "key")
                                   .join_filter_int("weight", 0, 9)
                                   .join("dim2", "u32", "key2")
                                   .select({"u32", "dim2.score", "neg64"})
                                   .order_by("neg64", false)
                                   .limit(20)
                                   .build());
  return qs;
}

/// Every parallel threshold at 1, so small tables still take the
/// morsel-parallel filter, probe and sink paths.
ExecOptions parallel_options(sched::ThreadPool* pool,
                             const opt::CostModel& model,
                             std::size_t shards) {
  ExecOptions o;
  o.pool = pool;
  o.cost_model = &model;
  o.shard_count = shards;
  o.parallel_agg_min_rows = 1;
  o.parallel_join_min_rows = 1;
  o.parallel_sort_min_rows = 1;
  o.parallel_project_min_rows = 1;
  return o;
}

std::size_t filter_operators(const ExecStats& stats) {
  std::size_t n = 0;
  for (const OperatorStats& op : stats.operators)
    n += op.name.rfind("join-filter(", 0) == 0 ? 1 : 0;
  return n;
}

/// Filter passes of `phys`'s chain steps, the only passes the cost model
/// prices: filter and gather steps always run theirs (the pass is the
/// step).
std::size_t chain_filter_operators(const ExecStats& stats,
                                   const PhysicalPlan& phys) {
  std::size_t n = 0;
  for (const PhysicalJoinStep& step : phys.joins) {
    if (step.role != JoinRole::kChain) continue;
    const std::string name =
        "join-filter(" + phys.logical.joins[step.logical_index].table + ")";
    for (const OperatorStats& op : stats.operators) n += op.name == name;
  }
  return n;
}

/// Per-operator deltas sum to the query totals (to the last bits of the
/// floating-point sum: gathered byte counts are fractional).
void expect_operator_sums_exact(const ExecStats& stats,
                                const std::string& label) {
  hw::Work sum;
  for (const OperatorStats& op : stats.operators) sum += op.work;
  EXPECT_DOUBLE_EQ(sum.dram_bytes, stats.work.dram_bytes) << label;
  EXPECT_DOUBLE_EQ(sum.net_bytes, stats.work.net_bytes) << label;
  EXPECT_DOUBLE_EQ(sum.cpu_cycles, stats.work.cpu_cycles) << label;
}

/// Runs `queries` with the arm forced on and forced off under every pool
/// width and shard layout, holding the two arms to bit-identical results,
/// equal ledger bytes and exact per-operator sums.
void run_on_off(const std::vector<std::pair<std::string, LogicalPlan>>& queries,
                const opt::KernelCosts& base, const std::string& config) {
  const opt::CostModel on = filter_model(true, base);
  const opt::CostModel off = filter_model(false, base);
  sched::ThreadPool pool2(2);
  sched::ThreadPool pool8(8);
  const std::pair<std::string, sched::ThreadPool*> pools[] = {
      {"serial", nullptr}, {"pool2", &pool2}, {"pool8", &pool8}};
  for (const std::size_t shards : {0u, 1u, 4u}) {
    Catalog cat = make_catalog(4242);
    if (shards > 0) cat.get("facts").build_partitions("u32", shards);
    Executor ex(cat);
    for (const auto& [pool_name, pool] : pools) {
      for (const auto& [name, plan] : queries) {
        const std::string label = config + "/" + name + "/" + pool_name +
                                  "/shards" + std::to_string(shards);
        ExecStats on_stats, off_stats;
        const ExecOptions off_options = parallel_options(pool, off, shards);
        const QueryResult got =
            ex.execute(plan, on_stats, parallel_options(pool, on, shards));
        const QueryResult want = ex.execute(plan, off_stats, off_options);
        expect_identical(want, got, label);
        EXPECT_EQ(on_stats.work.dram_bytes, off_stats.work.dram_bytes)
            << label;
        EXPECT_EQ(on_stats.join_pairs, off_stats.join_pairs) << label;
        expect_operator_sums_exact(on_stats, label + "/on");
        expect_operator_sums_exact(off_stats, label + "/off");
        EXPECT_EQ(chain_filter_operators(
                      off_stats, compile_plan(cat, plan, off_options)),
                  0u)
            << label;
        if (shards == 0) {
          EXPECT_GE(filter_operators(on_stats), 1u) << label;
        }
      }
    }
  }
}

TEST(JoinFilterParity, ForcedArmsAgreeAtEveryPoolWidthAndShardCount) {
  run_on_off(filter_queries(), opt::KernelCosts{}, "dense");
}

TEST(JoinFilterParity, RadixFirstChainProbesTheFilteredSelection) {
  // Priced so that the integer step radix-partitions (no dense domain,
  // a one-entry cache budget) while the 7-code string-key step stays
  // dense and filterable: the radix arm then partitions the filtered
  // selection, and the answer must not change.
  opt::KernelCosts costs;
  costs.dense_join_max_domain = 8;
  costs.join_cache_build_entries = 1;
  const std::vector<std::pair<std::string, LogicalPlan>> queries = {
      {"radix_then_string", QueryBuilder("facts")
                                .join("dim2", "u32", "key2")
                                .join("dim", "tag", "skey")
                                .join_filter_int("weight", -2, 2)
                                .group_by("tag")
                                .aggregate(AggOp::kCount)
                                .aggregate(AggOp::kSum, "u32")
                                .build()}};
  const Catalog cat = make_catalog(4242);
  const opt::CostModel on = filter_model(true, costs);
  ExecOptions options;
  options.cost_model = &on;
  const PhysicalPlan phys = compile_plan(cat, queries.front().second, options);
  ASSERT_EQ(phys.joins.size(), 2u);
  EXPECT_EQ(phys.joins[0].arm, opt::JoinArm::kRadixJoin);
  ASSERT_EQ(phys.filter_order.size(), 1u);
  EXPECT_TRUE(phys.joins[phys.filter_order[0]].join_filter.filter);
  run_on_off(queries, costs, "radix");
}

TEST(JoinFilterExplain, PrintsEveryPricedStepAndEachPassAsAnOperator) {
  const Catalog cat = make_catalog(4242);
  const LogicalPlan plan = filter_queries().front().second;
  const opt::CostModel on = filter_model(true);
  const opt::CostModel off = filter_model(false);
  ExecOptions on_options, off_options;
  on_options.cost_model = &on;
  off_options.cost_model = &off;

  const PhysicalPlan on_phys = compile_plan(cat, plan, on_options);
  const PhysicalPlan off_phys = compile_plan(cat, plan, off_options);
  ASSERT_EQ(on_phys.filter_order.size(), 2u);  // both dims: dense, side 0
  double prev_sel = 0;
  for (const std::size_t s : on_phys.filter_order) {
    const PhysicalJoinStep& step = on_phys.joins[s];
    EXPECT_TRUE(step.join_filter.filter);
    EXPECT_GT(step.filter_selectivity, 0.0);
    EXPECT_LT(step.filter_selectivity, 1.0);
    EXPECT_GE(step.filter_selectivity, prev_sel);  // most selective first
    prev_sel = step.filter_selectivity;
    EXPECT_GT(step.join_filter.pass.cpu_cycles, 0.0);
    EXPECT_GT(step.join_filter.probes.cpu_cycles,
              step.join_filter.pass.cpu_cycles);
  }
  const std::string on_text = on_phys.explain();
  const std::string off_text = off_phys.explain();
  for (const std::string table : {"dim", "dim2"}) {
    const std::string line = "join-filter: " + table + " ON ";
    EXPECT_NE(on_text.find(line), std::string::npos) << on_text;
    EXPECT_NE(off_text.find(line), std::string::npos) << off_text;
  }
  EXPECT_NE(on_text.find("est_sel="), std::string::npos);
  EXPECT_NE(on_text.find("pass_cycles="), std::string::npos);
  EXPECT_NE(on_text.find("saved_probe_cycles="), std::string::npos);
  EXPECT_EQ(on_text.find("declined"), std::string::npos) << on_text;
  EXPECT_EQ(off_text.find(", filter\n"), std::string::npos) << off_text;

  // The governor's estimate prices the pass and the shorter chain.
  const hw::Work on_work = estimate_plan_work(cat, on_phys, on_options);
  const hw::Work off_work = estimate_plan_work(cat, off_phys, on_options);
  EXPECT_LT(on_work.cpu_cycles, off_work.cpu_cycles);

  // EXPLAIN ANALYZE: each pass is its own operator with time, cycles and
  // the key-column bytes it streamed.
  Executor ex(cat);
  ExecStats stats;
  (void)ex.execute(on_phys, stats, on_options);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const std::string analyze =
      format_operator_stats(stats, machine, machine.dvfs.fastest());
  for (const std::string table : {"dim", "dim2"}) {
    const std::string name = "join-filter(" + table + ")";
    EXPECT_NE(analyze.find(name), std::string::npos) << analyze;
    bool found = false;
    for (const OperatorStats& op : stats.operators) {
      if (op.name != name) continue;
      found = true;
      EXPECT_GE(op.seconds, 0.0);
      EXPECT_GT(op.work.cpu_cycles, 0.0);
      EXPECT_EQ(classify_operator(op.name), OperatorKind::kJoin);
    }
    EXPECT_TRUE(found) << name;
  }
  // The first pass resolves the fact key column, so its bytes land there.
  const std::string first =
      "join-filter(" +
      plan.joins[on_phys.joins[on_phys.filter_order[0]].logical_index].table +
      ")";
  for (const OperatorStats& op : stats.operators) {
    if (op.name == first) {
      EXPECT_GT(op.work.dram_bytes, 0.0) << analyze;
    }
  }
}

}  // namespace
}  // namespace eidb::query
