// The plan governor: operator classification, EWMA calibration, the
// race-to-idle vs pace decision, core clamping to the worker pool, and
// the prediction-vs-measurement loop (governor-predicted joules against
// the measured ExecStats attribution). Also asserts the tentpole's
// accounting invariant: per-operator work deltas sum to the query totals
// byte-exactly under every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/plan.hpp"
#include "query/plan_governor.hpp"
#include "sched/governor.hpp"
#include "sched/scheduler.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "storage/table.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;

TEST(PlanGovernor, ClassifyOperatorNames) {
  EXPECT_EQ(classify_operator("scan+filter(lineorder)"), OperatorKind::kScan);
  EXPECT_EQ(classify_operator("hash-join(dates)"), OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("hash-join(customer) radix-join(dates)"),
            OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("dense-join(dim)+materialize"),
            OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("join-filter(customer)"), OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("aggregate(join)"), OperatorKind::kAggregate);
  // Grouped base-table aggregation feeds the aggregate EWMA too.
  EXPECT_EQ(classify_operator("group-aggregate"), OperatorKind::kAggregate);
  EXPECT_EQ(classify_operator("top-k(revenue)"), OperatorKind::kSort);
  EXPECT_EQ(classify_operator("sort(neg64)"), OperatorKind::kSort);
  EXPECT_EQ(classify_operator("materialize(join)"),
            OperatorKind::kMaterialize);
  EXPECT_EQ(classify_operator("something-new"), OperatorKind::kOther);
}

TEST(PlanGovernor, CalibrationSeedsThenSmooths) {
  OperatorCalibration cal(/*alpha=*/0.5);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 1.0);
  // First observation seeds the factor directly.
  cal.observe(OperatorKind::kScan, /*predicted_s=*/1.0, /*measured_s=*/2.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 2.0);
  // Subsequent observations blend with alpha.
  cal.observe(OperatorKind::kScan, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 0.5 * 2.0 + 0.5 * 4.0);
  // Ratios are clamped so one outlier cannot poison the estimate.
  cal.observe(OperatorKind::kJoin, 1.0, 1e9);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kJoin), 20.0);
  cal.observe(OperatorKind::kSort, 1e9, 1.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kSort), 0.05);
  // Degenerate inputs are ignored.
  cal.observe(OperatorKind::kAggregate, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kAggregate), 1.0);
}

Catalog make_catalog(std::size_t rows) {
  Catalog cat;
  Table& t = cat.add(Table("facts", Schema({{"k", TypeId::kInt64},
                                            {"v", TypeId::kInt64}})));
  Pcg32 rng(7);
  std::vector<std::int64_t> k(rows), v(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    k[i] = rng.next_bounded(100);
    v[i] = rng.next_bounded(1000);
  }
  t.set_column(0, Column::from_int64("k", k));
  t.set_column(1, Column::from_int64("v", v));

  Table& dim = cat.add(Table("dim", Schema({{"key", TypeId::kInt64},
                                            {"w", TypeId::kInt64}})));
  std::vector<std::int64_t> dk(100), dw(100);
  for (std::int64_t d = 0; d < 100; ++d) {
    dk[static_cast<std::size_t>(d)] = d;
    dw[static_cast<std::size_t>(d)] = d % 9;
  }
  dim.set_column(0, Column::from_int64("key", dk));
  dim.set_column(1, Column::from_int64("w", dw));
  return cat;
}

LogicalPlan star_plan() {
  return QueryBuilder("facts")
      .filter_int("v", 0, 800)
      .join("dim", "k", "key")
      .group_by("dim.w")
      .aggregate(AggOp::kCount)
      .aggregate(AggOp::kSum, "v")
      .order_by("count", false)
      .limit(5)
      .build();
}

/// The part of `phys`'s work estimate one operator kind contributes: the
/// estimate with that kind's calibration factor at 2 minus the estimate
/// without calibration.
hw::Work kind_work(const Catalog& cat, const PhysicalPlan& phys,
                   OperatorKind kind) {
  OperatorCalibration doubled;
  doubled.observe(kind, /*predicted_s=*/1.0, /*measured_s=*/2.0);
  ExecOptions calibrated;
  calibrated.calibration = &doubled;
  const hw::Work base = estimate_plan_work(cat, phys, ExecOptions{});
  const hw::Work twice = estimate_plan_work(cat, phys, calibrated);
  return {twice.cpu_cycles - base.cpu_cycles,
          twice.dram_bytes - base.dram_bytes, 0};
}

void expect_work_near(const hw::Work& want, const hw::Work& got,
                      const std::string& label) {
  EXPECT_NEAR(got.cpu_cycles, want.cpu_cycles, 1e-6 * want.cpu_cycles + 1e-6)
      << label;
  EXPECT_NEAR(got.dram_bytes, want.dram_bytes, 1e-6 * want.dram_bytes + 1e-6)
      << label;
}

TEST(PlanGovernor, PricesEveryJoinRole) {
  // One pass per filter and gather step, probes only for chain steps, a
  // lookup build per gather step, and a chainless plan's aggregate over
  // the rows every pass keeps.
  const Catalog cat = make_catalog(10'000);
  const opt::CostModel cm = opt::CostModel::defaults();
  const auto rows = [](double r) { return static_cast<std::uint64_t>(r); };

  const LogicalPlan filter_plan = QueryBuilder("facts")
                                      .join("dim", "k", "key")
                                      .join_filter_int("w", 0, 4)
                                      .aggregate(AggOp::kCount)
                                      .aggregate(AggOp::kSum, "v")
                                      .build();
  const PhysicalPlan filter = compile_plan(cat, filter_plan);
  ASSERT_EQ(filter.joins.size(), 1u);
  const PhysicalJoinStep& fstep = filter.joins[0];
  ASSERT_EQ(fstep.role, JoinRole::kFilter);
  EXPECT_TRUE(fstep.join_filter.filter);
  EXPECT_EQ(filter.chain_probe_rows()[0], 0.0);
  EXPECT_LT(filter.filtered_rows(), filter.est_probe_rows);
  expect_work_near(fstep.join_filter.pass,
                   kind_work(cat, filter, OperatorKind::kJoin), "filter/join");
  expect_work_near(cm.agg_work(rows(filter.filtered_rows()), 8.0),
                   kind_work(cat, filter, OperatorKind::kAggregate),
                   "filter/aggregate");

  const PhysicalPlan gather = compile_plan(cat, star_plan());
  const PhysicalJoinStep& gstep = gather.joins[0];
  ASSERT_EQ(gstep.role, JoinRole::kGather);
  hw::Work lookup = gstep.join_filter.pass;
  lookup += cm.lookup_build_work(gstep.est_build_rows);
  expect_work_near(lookup, kind_work(cat, gather, OperatorKind::kJoin),
                   "gather/join");
  expect_work_near(cm.group_work(rows(gather.filtered_rows()), false, 8.0),
                   kind_work(cat, gather, OperatorKind::kAggregate),
                   "gather/aggregate");

  // dim.w as an aggregate input keeps the step in the chain.
  const LogicalPlan chain_plan = QueryBuilder("facts")
                                     .filter_int("v", 0, 800)
                                     .join("dim", "k", "key")
                                     .group_by("dim.w")
                                     .aggregate(AggOp::kCount)
                                     .aggregate(AggOp::kSum, "dim.w")
                                     .build();
  const PhysicalPlan chain = compile_plan(cat, chain_plan);
  const PhysicalJoinStep& cstep = chain.joins[0];
  ASSERT_EQ(cstep.role, JoinRole::kChain);
  hw::Work probes = cm.join_work(cstep.arm, rows(cstep.est_build_rows),
                                 rows(chain.chain_probe_rows()[0]), 8.0);
  if (cstep.join_filter.filter) probes += cstep.join_filter.pass;
  EXPECT_GT(chain.chain_probe_rows()[0], 0.0);
  expect_work_near(probes, kind_work(cat, chain, OperatorKind::kJoin),
                   "chain/join");
  expect_work_near(cm.group_work(rows(cstep.est_rows_out), false, 8.0),
                   kind_work(cat, chain, OperatorKind::kAggregate),
                   "chain/aggregate");
}

TEST(PlanGovernor, RaceToIdleWhenDeepSleepAvailable) {
  Catalog cat = make_catalog(10'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const sched::Governor gov(machine, {.allow_deep_sleep = true});
  sched::ThreadPool pool(4);
  ExecOptions options;
  options.governor = &gov;
  options.pool = &pool;
  const PhysicalPlan phys = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(phys.governor.enabled);
  EXPECT_EQ(phys.governor.policy, "race-to-idle");
  EXPECT_DOUBLE_EQ(phys.governor.state.freq_ghz,
                   machine.dvfs.fastest().freq_ghz);
  EXPECT_GT(phys.governor.est_busy_s, 0.0);
  EXPECT_GT(phys.governor.est_energy_j, 0.0);
  EXPECT_GT(phys.governor.est_work.cpu_cycles, 0.0);
  // One definition of predicted joules: the incremental busy quantum the
  // settlement bills, at the granted state over the predicted busy time.
  EXPECT_DOUBLE_EQ(phys.governor.est_energy_j,
                   machine.incremental_busy_energy_j(phys.governor.est_work,
                                                     phys.governor.state,
                                                     phys.governor.est_busy_s));
  // EXPLAIN carries the decision.
  EXPECT_NE(phys.explain().find("governor: 4 cores x"), std::string::npos);
}

TEST(PlanGovernor, PacesAtEfficientStateWithoutDeepSleep) {
  // Consolidated server: the package cannot sleep, so the governor paces
  // at the incremental-efficient P-state — which on the superlinear CMOS
  // curve of the server spec is slower than f_max (the E7 crossover).
  Catalog cat = make_catalog(10'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const sched::Governor gov(machine, {.allow_deep_sleep = false});
  sched::ThreadPool pool(4);
  ExecOptions options;
  options.governor = &gov;
  options.pool = &pool;
  const PhysicalPlan phys = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(phys.governor.enabled);
  EXPECT_EQ(phys.governor.policy, "pace");
  const hw::DvfsState expect_state =
      gov.incremental_efficient_state(phys.governor.est_work);
  EXPECT_DOUBLE_EQ(phys.governor.state.freq_ghz, expect_state.freq_ghz);
  EXPECT_LT(phys.governor.state.freq_ghz, machine.dvfs.fastest().freq_ghz);
}

TEST(PlanGovernor, DeadlineArbitratesRaceVsPace) {
  Catalog cat = make_catalog(10'000);
  const sched::Governor gov(hw::MachineSpec::server(),
                            {.allow_deep_sleep = false});
  ExecOptions options;
  options.governor = &gov;
  // A generous deadline with only shallow idle available: pacing beats
  // racing (slack burns idle power either way, but pace's busy phase is
  // cheaper on the superlinear power curve).
  options.constraint.deadline_s = 3600.0;
  const PhysicalPlan paced = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(paced.governor.enabled);
  EXPECT_EQ(paced.governor.policy, "pace");
  // An unattainable deadline degrades to f_max under either policy.
  options.constraint.deadline_s = 1e-12;
  const PhysicalPlan raced = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(raced.governor.enabled);
  EXPECT_DOUBLE_EQ(raced.governor.state.freq_ghz,
                   gov.machine().dvfs.fastest().freq_ghz);
}

TEST(PlanGovernor, SimulatorAndPlanGovernorShareTheDecision) {
  // Live serving (compile_plan's plan governor) and the E8 simulator
  // decide through one kernel: for the same work, policy and rolling
  // power they grant the same P-state.
  Catalog cat = make_catalog(10'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const sched::Governor gov(machine);
  const double cap = machine.idle_power_w() + 20;
  for (const sched::Policy policy :
       {sched::Policy::kLatency, sched::Policy::kThroughput,
        sched::Policy::kEnergyCap}) {
    const sched::StreamScheduler sim(machine, policy, cap);
    for (const double power : {cap - 1, cap + 1}) {
      ExecOptions options;  // no pool: one core, as the simulator grants
      options.governor = &gov;
      options.constraint.policy = sched::policy_in_force(policy, power, cap);
      const PhysicalPlan phys = compile_plan(cat, star_plan(), options);
      const sched::GovernorDecision d =
          sim.decide(phys.governor.est_work, power);
      EXPECT_DOUBLE_EQ(phys.governor.state.freq_ghz, d.state.freq_ghz)
          << sched::policy_name(policy) << " at " << power << " W";
      EXPECT_EQ(phys.governor.policy, d.policy);
      EXPECT_DOUBLE_EQ(phys.governor.est_busy_s, d.busy_s);
    }
  }
}

TEST(PlanGovernor, BudgetArmNamedInExplain) {
  Catalog cat = make_catalog(10'000);
  const sched::Governor gov(hw::MachineSpec::server());
  ExecOptions options;
  options.governor = &gov;
  options.constraint.energy_budget_j = 1e9;
  const PhysicalPlan generous = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(generous.governor.policy, "budget");
  EXPECT_LE(generous.governor.est_energy_j, 1e9);
  EXPECT_NE(generous.explain().find("(budget, "), std::string::npos);
  options.constraint.energy_budget_j = 1e-12;
  const PhysicalPlan floor = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(floor.governor.policy, "budget-infeasible");
  EXPECT_GT(floor.governor.est_energy_j, 1e-12);
  EXPECT_NE(floor.explain().find("(budget-infeasible, "), std::string::npos);
}

TEST(PlanGovernor, CoresClampedToPoolAndMachine) {
  Catalog cat = make_catalog(1'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();  // 8 cores
  const sched::Governor gov(machine, {.allow_deep_sleep = true});
  ExecOptions options;
  options.governor = &gov;

  // No pool: single-core decision.
  const PhysicalPlan serial = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(serial.governor.cores, 1);

  // Pool narrower than the machine: clamp to the pool.
  sched::ThreadPool pool3(3);
  options.pool = &pool3;
  const PhysicalPlan narrow = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(narrow.governor.cores, 3);

  // Pool wider than the machine: clamp to the machine's cores.
  sched::ThreadPool pool16(16);
  options.pool = &pool16;
  const PhysicalPlan wide = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(wide.governor.cores, machine.cores);
}

TEST(PlanGovernor, OperatorWorkSumsExactlyUnderEveryThreadCount) {
  // The tentpole's accounting invariant: every charge lands in exactly
  // one operator scope, so per-operator work deltas sum to the query
  // totals BYTE-EXACTLY — serial and at any pool width.
  Catalog cat = make_catalog(50'000);
  Executor ex(cat);
  QueryResult serial_result;
  for (const std::size_t threads : {0u, 2u, 5u, 8u}) {
    sched::ThreadPool pool(threads == 0 ? 1 : threads);
    ExecOptions options;
    if (threads != 0) {
      options.pool = &pool;
      options.parallel_agg_min_rows = 1;
      options.parallel_join_min_rows = 1;
      options.parallel_sort_min_rows = 1;
      options.parallel_project_min_rows = 1;
    }
    ExecStats stats;
    const QueryResult result = ex.execute(star_plan(), stats, options);
    double cycles = 0, bytes = 0;
    for (const OperatorStats& op : stats.operators) {
      cycles += op.work.cpu_cycles;
      bytes += op.work.dram_bytes;
    }
    EXPECT_EQ(cycles, stats.work.cpu_cycles) << threads << " threads";
    EXPECT_EQ(bytes, stats.work.dram_bytes) << threads << " threads";
    // And the result itself is thread-count invariant.
    if (threads == 0) {
      serial_result = result;
    } else {
      ASSERT_EQ(result.row_count(), serial_result.row_count());
      for (std::size_t r = 0; r < result.row_count(); ++r)
        for (std::size_t c = 0; c < result.column_count(); ++c)
          EXPECT_EQ(result.at(r, c), serial_result.at(r, c))
              << threads << " threads, row " << r << " col " << c;
    }
  }
}

TEST(PlanGovernor, PredictionWithinToleranceOfMeasurementAfterCalibration) {
  // The closed loop on a bench-shaped query: after a few runs the EWMA
  // calibration pulls the governor's busy-time estimate toward measured
  // reality, so the predicted bill (est_energy_j: est_work at the chosen
  // state over est_busy_s) lands within an order of magnitude of the
  // measured settlement. (The bound is loose on purpose: the model
  // machine is a Sandy-Bridge-era server, the host is whatever CI runs —
  // calibration corrects cycles, not the DRAM/power split.)
  core::Database db;
  Table& t = db.create_table("facts", Schema({{"k", TypeId::kInt64},
                                              {"v", TypeId::kInt64}}));
  Pcg32 rng(11);
  constexpr std::size_t kRows = 200'000;
  std::vector<std::int64_t> k(kRows), v(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    k[i] = rng.next_bounded(64);
    v[i] = rng.next_bounded(1000);
  }
  t.set_column(0, Column::from_int64("k", k));
  t.set_column(1, Column::from_int64("v", v));

  const auto plan = QueryBuilder("facts")
                        .filter_int("v", 100, 900)
                        .group_by("k")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v")
                        .build();
  core::RunResult run;
  for (int i = 0; i < 4; ++i) run = db.run(plan);  // calibration warms up
  ASSERT_TRUE(run.governor.enabled);
  const double predicted = run.governor.est_energy_j;
  const double measured = run.attributed_j;
  ASSERT_GT(measured, 0.0);
  ASSERT_GT(predicted, 0.0);
  const double ratio = predicted / measured;
  EXPECT_GT(ratio, 0.1) << "predicted " << predicted << " measured "
                        << measured;
  EXPECT_LT(ratio, 10.0) << "predicted " << predicted << " measured "
                         << measured;
}

}  // namespace
}  // namespace eidb::query
