// End-to-end SQL through the Database façade.
#include <gtest/gtest.h>

#include <vector>

#include "core/database.hpp"
#include "sched/thread_pool.hpp"
#include "util/assert.hpp"

namespace eidb::core {
namespace {

using storage::Column;
using storage::Schema;
using storage::TypeId;

void populate(Database& db) {
  storage::Table& sales = db.create_table(
      "sales", Schema({{"id", TypeId::kInt64},
                       {"amount", TypeId::kInt64},
                       {"price", TypeId::kDouble},
                       {"region", TypeId::kString}}));
  std::vector<std::int64_t> ids, amounts;
  std::vector<double> prices;
  std::vector<std::string> regions;
  const char* names[] = {"apac", "emea", "na"};
  for (std::int64_t i = 0; i < 3000; ++i) {
    ids.push_back(i);
    amounts.push_back(i % 100);
    prices.push_back(0.25 * static_cast<double>(i % 8));
    regions.emplace_back(names[i % 3]);
  }
  sales.set_column(0, Column::from_int64("id", ids));
  sales.set_column(1, Column::from_int64("amount", amounts));
  sales.set_column(2, Column::from_double("price", prices));
  sales.set_column(3, Column::from_strings("region", regions));

  storage::Table& customers = db.create_table(
      "customers", Schema({{"id", TypeId::kInt64}, {"age", TypeId::kInt64}}));
  std::vector<std::int64_t> cid, age;
  for (std::int64_t i = 0; i < 100; ++i) {
    cid.push_back(i);
    age.push_back(20 + i % 60);
  }
  customers.set_column(0, Column::from_int64("id", cid));
  customers.set_column(1, Column::from_int64("age", age));
}

TEST(DatabaseSql, CountWithRange) {
  Database db;
  populate(db);
  const auto run =
      db.run_sql("SELECT COUNT(*) FROM sales WHERE amount BETWEEN 0 AND 9");
  EXPECT_EQ(run.result.at(0, 0).as_int(), 300);
}

TEST(DatabaseSql, GroupByWithStringEquality) {
  Database db;
  populate(db);
  const auto run = db.run_sql(
      "SELECT COUNT(*), SUM(amount) FROM sales WHERE region = 'emea' "
      "GROUP BY region");
  ASSERT_EQ(run.result.row_count(), 1u);
  EXPECT_EQ(run.result.at(0, 0).as_string(), "emea");
  EXPECT_EQ(run.result.at(0, 1).as_int(), 1000);
}

TEST(DatabaseSql, AvgDoubleColumn) {
  Database db;
  populate(db);
  const auto run = db.run_sql("SELECT AVG(price) FROM sales");
  // prices cycle 0,0.25,...,1.75 over 8 values -> mean 0.875.
  EXPECT_NEAR(run.result.at(0, 0).as_double(), 0.875, 1e-9);
}

TEST(DatabaseSql, ProjectionOrderLimit) {
  Database db;
  populate(db);
  const auto run = db.run_sql(
      "SELECT id, amount FROM sales WHERE amount >= 98 ORDER BY id DESC "
      "LIMIT 2");
  ASSERT_EQ(run.result.row_count(), 2u);
  EXPECT_EQ(run.result.at(0, 0).as_int(), 2999);
  EXPECT_EQ(run.result.at(1, 0).as_int(), 2998);
}

TEST(DatabaseSql, JoinThroughSql) {
  Database db;
  populate(db);
  const auto run = db.run_sql(
      "SELECT COUNT(*) FROM sales JOIN customers ON sales.amount = "
      "customers.id WHERE customers.age BETWEEN 20 AND 29");
  // Customers with age in [20,29]: ids 0..9 and 60..69 (age = 20 + id%60).
  // Each matching amount value occurs 30 times in sales.
  EXPECT_EQ(run.result.at(0, 0).as_int(), 20 * 30);
}

TEST(DatabaseSql, ReportsEnergy) {
  Database db;
  populate(db);
  const auto run = db.run_sql("SELECT COUNT(*) FROM sales");
  EXPECT_GT(run.report.total_j(), 0.0);
  EXPECT_GT(run.report.elapsed_s, 0.0);
}

TEST(DatabaseSql, ParseErrorsSurface) {
  Database db;
  populate(db);
  EXPECT_THROW((void)db.run_sql("SELEKT * FROM sales"), Error);
  EXPECT_THROW((void)db.run_sql("SELECT * FROM missing_table"), Error);
}

TEST(DatabaseSql, ParallelScanOptionProducesSameAnswer) {
  Database db;
  populate(db);
  sched::ThreadPool pool(4);
  RunOptions serial, parallel;
  parallel.exec.pool = &pool;
  const char* q = "SELECT SUM(amount) FROM sales WHERE amount BETWEEN 5 AND 95";
  const auto a = db.run_sql(q, serial);
  const auto b = db.run_sql(q, parallel);
  EXPECT_EQ(a.result.at(0, 0).as_int(), b.result.at(0, 0).as_int());
}

TEST(DatabaseSql, ExpressionAggregateEndToEnd) {
  Database db;
  populate(db);
  // SUM(amount * (1 - price)) over rows 0..7: amounts 0..7, prices
  // 0,0.25,...,1.75.
  const auto run = db.run_sql(
      "SELECT SUM(amount * (1 - price)) FROM sales WHERE id <= 7");
  double want = 0;
  for (int i = 0; i < 8; ++i) want += i * (1.0 - 0.25 * i);
  EXPECT_NEAR(run.result.at(0, 0).as_double(), want, 1e-9);
}

TEST(DatabaseSql, ExpressionAggregateGrouped) {
  Database db;
  populate(db);
  const auto run = db.run_sql(
      "SELECT AVG(amount * 2) FROM sales GROUP BY region");
  ASSERT_EQ(run.result.row_count(), 3u);
  // amounts cycle 0..99 uniformly within each region: avg(amount*2) = 99.
  for (std::size_t g = 0; g < 3; ++g)
    EXPECT_NEAR(run.result.at(g, 1).as_double(), 99.0, 1e-9);
}

TEST(DatabaseSql, MultiColumnGroupBy) {
  Database db;
  populate(db);
  const auto run = db.run_sql(
      "SELECT COUNT(*) FROM sales WHERE amount BETWEEN 0 AND 1 "
      "GROUP BY region, amount");
  // 3 regions x 2 amounts, all combinations present.
  ASSERT_EQ(run.result.row_count(), 6u);
  EXPECT_EQ(run.result.column_names().size(), 3u);
  EXPECT_EQ(run.result.at(0, 0).as_string(), "apac");
  EXPECT_EQ(run.result.at(0, 1).as_int(), 0);
  std::int64_t total = 0;
  for (std::size_t g = 0; g < 6; ++g) total += run.result.at(g, 2).as_int();
  EXPECT_EQ(total, 60);  // 2 of 100 amounts over 3000 rows
}

TEST(DatabaseSql, BudgetedSqlQuery) {
  Database db;
  populate(db);
  RunOptions options;
  options.exec.constraint.energy_budget_j = 100.0;
  const auto run = db.run_sql(
      "SELECT COUNT(*) FROM sales WHERE amount BETWEEN 0 AND 49", options);
  EXPECT_EQ(run.governor.policy, "budget");
  EXPECT_LE(run.governor.est_energy_j, 100.0);
  EXPECT_EQ(run.result.at(0, 0).as_int(), 1500);
}

}  // namespace
}  // namespace eidb::core
