#include "core/database.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace eidb::core {
namespace {

using query::AggOp;
using query::QueryBuilder;
using storage::Column;
using storage::Schema;
using storage::TypeId;

void load_sales(Database& db, std::size_t rows) {
  storage::Table& t = db.create_table(
      "sales", Schema({{"id", TypeId::kInt64},
                       {"amount", TypeId::kInt64},
                       {"region", TypeId::kString}}));
  std::vector<std::int64_t> ids, amounts;
  std::vector<std::string> regions;
  const char* names[] = {"apac", "emea", "na"};
  for (std::size_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<std::int64_t>(i));
    amounts.push_back(static_cast<std::int64_t>(i % 1000));
    regions.emplace_back(names[i % 3]);
  }
  t.set_column(0, Column::from_int64("id", ids));
  t.set_column(1, Column::from_int64("amount", amounts));
  t.set_column(2, Column::from_strings("region", regions));
  db.register_tiers("sales");
}

TEST(Database, EndToEndAggregateWithEnergyReport) {
  Database db;
  load_sales(db, 30000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 100, 199)
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  const RunResult run = db.run(plan);
  ASSERT_EQ(run.result.row_count(), 3u);
  EXPECT_GT(run.report.elapsed_s, 0.0);
  EXPECT_GT(run.report.total_j(), 0.0);
  EXPECT_GT(run.stats.tuples_scanned, 0u);
  // 100 qualifying amounts out of 1000 -> 3000 rows across 3 regions.
  std::int64_t total = 0;
  for (std::size_t g = 0; g < 3; ++g) total += run.result.at(g, 1).as_int();
  EXPECT_EQ(total, 3000);
}

TEST(Database, MeterFallsBackToModelWithoutRapl) {
  Database db(DatabaseOptions{.prefer_rapl = false});
  EXPECT_EQ(db.meter_source(), energy::MeterSource::kModel);
  load_sales(db, 1000);
  const auto run =
      db.run(QueryBuilder("sales").aggregate(AggOp::kCount).build());
  EXPECT_EQ(run.report.source, energy::MeterSource::kModel);
  EXPECT_GT(run.report.energy.package_j, 0.0);
}

/// The settlement at the granted state: incremental busy joules over the
/// host busy time stretched to that state (no cold tier, no wire here).
double model_bill(const Database& db, const RunResult& run) {
  const hw::MachineSpec& m = db.machine();
  return m.incremental_busy_energy_j(
      run.stats.work, run.governor.state,
      run.stats.elapsed_s * sched::slowdown(m, run.governor.state));
}

TEST(Database, EnergyBudgetSelectsConfiguration) {
  Database db;
  load_sales(db, 50000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 499)
                        .aggregate(AggOp::kCount)
                        .build();
  RunOptions options;
  options.exec.constraint.energy_budget_j = 1000.0;  // generous
  const RunResult run = db.run(plan, options);
  EXPECT_EQ(run.governor.policy, "budget");
  EXPECT_LE(run.governor.est_energy_j, 1000.0);
  // A generous budget races.
  EXPECT_DOUBLE_EQ(run.governor.state.freq_ghz,
                   db.machine().dvfs.fastest().freq_ghz);
  EXPECT_NEAR(run.attributed_j, model_bill(db, run), 1e-9 * run.attributed_j);
}

TEST(Database, InfeasibleBudgetFallsBackToMinEnergy) {
  Database db;
  load_sales(db, 50000);
  const auto plan =
      QueryBuilder("sales").aggregate(AggOp::kCount).build();
  RunOptions options;
  options.exec.constraint.energy_budget_j = 1e-12;
  const RunResult run = db.run(plan, options);
  EXPECT_EQ(run.governor.policy, "budget-infeasible");
  EXPECT_GT(run.governor.est_energy_j, 1e-12);
  // The floor state runs — and is billed — below f_max.
  EXPECT_LT(run.governor.state.freq_ghz,
            db.machine().dvfs.fastest().freq_ghz);
  EXPECT_NEAR(run.attributed_j, model_bill(db, run), 1e-9 * run.attributed_j);
}

TEST(Database, TightVsGenerousBudgetTradesTime) {
  Database db;
  load_sales(db, 50000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 99)
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  RunOptions tight, generous;
  // Floor first.
  RunOptions probe;
  probe.exec.constraint.energy_budget_j = 1e-12;
  const auto floor_run = db.run(plan, probe);
  const double floor_j = floor_run.governor.est_energy_j;
  tight.exec.constraint.energy_budget_j = floor_j * 1.02;
  generous.exec.constraint.energy_budget_j = floor_j * 100;
  const auto rt = db.run(plan, tight);
  const auto rg = db.run(plan, generous);
  // The tight budget runs no faster: its state is paced at least as much.
  // (Busy-time estimates are not compared: the calibration EWMA moves the
  // work estimate between runs.)
  EXPECT_LE(rt.governor.state.freq_ghz, rg.governor.state.freq_ghz);
  EXPECT_GE(sched::slowdown(db.machine(), rt.governor.state),
            sched::slowdown(db.machine(), rg.governor.state));
}

TEST(Database, ExplainNamesTheBudgetArm) {
  Database db;
  load_sales(db, 1000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 1, 2)
                        .aggregate(AggOp::kCount)
                        .build();
  RunOptions options;
  options.exec.constraint.energy_budget_j = 500.0;
  const std::string s = db.explain(plan, options);
  EXPECT_NE(s.find("scan(sales)"), std::string::npos);
  EXPECT_NE(s.find("governor: "), std::string::npos);
  EXPECT_NE(s.find("(budget, "), std::string::npos);
  options.exec.constraint.energy_budget_j = 1e-12;
  EXPECT_NE(db.explain(plan, options).find("(budget-infeasible, "),
            std::string::npos);
}

TEST(Database, RunIsAOneMemberBatch) {
  Database db;
  load_sales(db, 3000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 100, 199)
                        .aggregate(AggOp::kCount)
                        .build();
  const RunResult solo = db.run(plan);
  const std::vector<RunResult> batch = db.run_batch({{plan, {}}});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].result.at(0, 0), solo.result.at(0, 0));
  EXPECT_EQ(batch[0].stats.work.dram_bytes, solo.stats.work.dram_bytes);
  EXPECT_EQ(batch[0].shared_members, 0u);
  // Errors: run() throws what run_batch() reports.
  const auto bad = QueryBuilder("missing").aggregate(AggOp::kCount).build();
  EXPECT_THROW((void)db.run(bad), Error);
  EXPECT_FALSE(db.run_batch({{bad, {}}}).front().error.empty());
}

TEST(Database, LedgerAccumulatesAcrossRuns) {
  Database db;
  load_sales(db, 1000);
  const auto plan =
      QueryBuilder("sales").aggregate(AggOp::kCount).build();
  (void)db.run(plan);
  (void)db.run(plan);
  const auto total = db.ledger().total();
  EXPECT_EQ(total.tuples, 2000u);  // 1000 scanned per run
  EXPECT_GT(total.energy_j, 0.0);
}

TEST(Database, TieringChangesReportedCosts) {
  Database db;
  load_sales(db, 100000);
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 9)
                        .aggregate(AggOp::kCount)
                        .build();
  const RunResult hot = db.run(plan);
  db.tiers().place("sales", "amount", storage::Tier::kCold);
  const RunResult cold = db.run(plan);
  EXPECT_EQ(hot.result.at(0, 0).as_int(), cold.result.at(0, 0).as_int());
  EXPECT_GT(cold.report.elapsed_s, hot.report.elapsed_s);
  EXPECT_GT(cold.stats.cold_tier_energy_j, 0.0);
}

TEST(Database, DuplicateTableRejected) {
  Database db;
  load_sales(db, 10);
  EXPECT_THROW(db.create_table("sales", Schema({{"x", TypeId::kInt64}})),
               Error);
}

TEST(Database, CalibratedCostModelConstructs) {
  Database db(DatabaseOptions{.calibrate_cost_model = true});
  EXPECT_GT(db.cost_model().costs().predicated, 0.0);
}

}  // namespace
}  // namespace eidb::core
