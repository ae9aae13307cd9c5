#include "query/executor.hpp"

#include <gtest/gtest.h>

#include "parity_matrix.hpp"

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "query/physical_plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;

/// sales(id int64, amount int64, price double, region string) — 1000 rows,
/// deterministic contents for exact assertions.
Catalog make_catalog() {
  Catalog cat;
  Table& sales = cat.add(Table(
      "sales", Schema({{"id", TypeId::kInt64},
                       {"amount", TypeId::kInt64},
                       {"price", TypeId::kDouble},
                       {"region", TypeId::kString}})));
  std::vector<std::int64_t> ids, amounts;
  std::vector<double> prices;
  std::vector<std::string> regions;
  const char* region_names[] = {"asia", "eu", "us"};
  for (std::int64_t i = 0; i < 1000; ++i) {
    ids.push_back(i);
    amounts.push_back(i % 100);          // 0..99 repeating
    prices.push_back(0.5 * static_cast<double>(i % 10));  // 0.0 .. 4.5
    regions.emplace_back(region_names[i % 3]);
  }
  sales.set_column(0, Column::from_int64("id", ids));
  sales.set_column(1, Column::from_int64("amount", amounts));
  sales.set_column(2, Column::from_double("price", prices));
  sales.set_column(3, Column::from_strings("region", regions));

  // customers(id int64, age int64) for joins: id 0..99, age = id % 50
  Table& customers = cat.add(Table(
      "customers", Schema({{"id", TypeId::kInt64}, {"age", TypeId::kInt64}})));
  std::vector<std::int64_t> cids, ages;
  for (std::int64_t i = 0; i < 100; ++i) {
    cids.push_back(i);
    ages.push_back(i % 50);
  }
  customers.set_column(0, Column::from_int64("id", cids));
  customers.set_column(1, Column::from_int64("age", ages));

  // discounts(amount int64, pct int64) for multi-way star joins: amount
  // 0..99 (the fact key domain), pct = amount % 7.
  Table& discounts = cat.add(Table(
      "discounts",
      Schema({{"amount", TypeId::kInt64}, {"pct", TypeId::kInt64}})));
  std::vector<std::int64_t> damounts, pcts;
  for (std::int64_t i = 0; i < 100; ++i) {
    damounts.push_back(i);
    pcts.push_back(i % 7);
  }
  discounts.set_column(0, Column::from_int64("amount", damounts));
  discounts.set_column(1, Column::from_int64("pct", pcts));

  // brackets(age int64, bracket int64) for snowflake chains off
  // customers.age: age 0..49, bracket = age / 10.
  Table& brackets = cat.add(Table(
      "brackets",
      Schema({{"age", TypeId::kInt64}, {"bracket", TypeId::kInt64}})));
  std::vector<std::int64_t> bages, bbrackets;
  for (std::int64_t i = 0; i < 50; ++i) {
    bages.push_back(i);
    bbrackets.push_back(i / 10);
  }
  brackets.set_column(0, Column::from_int64("age", bages));
  brackets.set_column(1, Column::from_int64("bracket", bbrackets));
  return cat;
}

TEST(Executor, CountWithIntFilter) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // amount in [0, 9]: 10 of every 100 -> 100 rows.
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 9)
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.at(0, 0).as_int(), 100);
  EXPECT_EQ(stats.tuples_selected, 100u);
  EXPECT_EQ(stats.tuples_scanned, 1000u);
}

TEST(Executor, SumMinMaxAvg) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 0, 9)  // rows 0..9
                        .aggregate(AggOp::kSum, "amount")
                        .aggregate(AggOp::kMin, "amount")
                        .aggregate(AggOp::kMax, "amount")
                        .aggregate(AggOp::kAvg, "amount")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  EXPECT_EQ(r.at(0, 0).as_int(), 45);  // 0+..+9
  EXPECT_EQ(r.at(0, 1).as_int(), 0);
  EXPECT_EQ(r.at(0, 2).as_int(), 9);
  EXPECT_DOUBLE_EQ(r.at(0, 3).as_double(), 4.5);
}

TEST(Executor, DoubleAggregate) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 0, 9)
                        .aggregate(AggOp::kSum, "price")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // prices 0, .5, 1, 1.5, ..., 4.5 -> 22.5
  EXPECT_DOUBLE_EQ(r.at(0, 0).as_double(), 22.5);
}

TEST(Executor, StringEqualityFilterViaDictionary) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_string("region", "eu", "eu")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // region repeats asia,eu,us: rows where i%3==1 -> 333.
  EXPECT_EQ(r.at(0, 0).as_int(), 333);
}

TEST(Executor, StringRangeFilter) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // ["a", "f"] covers asia and eu but not us.
  const auto plan = QueryBuilder("sales")
                        .filter_string("region", "a", "f")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  EXPECT_EQ(r.at(0, 0).as_int(), 667);  // 334 asia + 333 eu
}

TEST(Executor, EmptyStringRange) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_string("region", "zz", "zzz")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  EXPECT_EQ(r.at(0, 0).as_int(), 0);
}

TEST(Executor, ConjunctivePredicates) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 9)
                        .filter_string("region", "eu", "eu")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // Reference count:
  std::int64_t want = 0;
  for (int i = 0; i < 1000; ++i)
    if (i % 100 <= 9 && i % 3 == 1) ++want;
  EXPECT_EQ(r.at(0, 0).as_int(), want);
}

TEST(Executor, GroupByStringSumInt) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);  // asia, eu, us (dictionary order)
  EXPECT_EQ(r.at(0, 0).as_string(), "asia");
  EXPECT_EQ(r.at(1, 0).as_string(), "eu");
  EXPECT_EQ(r.at(2, 0).as_string(), "us");
  // Reference sums.
  std::int64_t sums[3] = {0, 0, 0}, counts[3] = {0, 0, 0};
  for (int i = 0; i < 1000; ++i) {
    sums[i % 3] += i % 100;
    ++counts[i % 3];
  }
  // dictionary order asia(0),eu(1),us(2) == i%3 order 0,1,2
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(r.at(g, 1).as_int(), counts[g]);
    EXPECT_EQ(r.at(g, 2).as_int(), sums[g]);
  }
  EXPECT_EQ(stats.groups, 3u);
}

TEST(Executor, GroupByIntAvgDouble) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 0, 99)
                        .group_by("amount")  // == id for the first 100 rows
                        .aggregate(AggOp::kAvg, "price")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 100u);
  // group key amount=7 -> only row 7 -> price 3.5
  EXPECT_EQ(r.at(7, 0).as_int(), 7);
  EXPECT_DOUBLE_EQ(r.at(7, 1).as_double(), 3.5);
}

TEST(Executor, MultiColumnGroupBy) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // Group by (region, amount%2-ish): use region + a small int column.
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 3)  // amounts 0..3
                        .group_by("region")
                        .group_by("amount")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // 3 regions x 4 amounts = 12 groups (every combination occurs: amounts
  // cycle 0..99, regions cycle 0..2 over 1000 rows).
  ASSERT_EQ(r.row_count(), 12u);
  EXPECT_EQ(r.column_count(), 3u);  // region, amount, count
  // Rows are ordered by composite key: region-major (first group column).
  EXPECT_EQ(r.at(0, 0).as_string(), "asia");
  EXPECT_EQ(r.at(0, 1).as_int(), 0);
  EXPECT_EQ(r.at(11, 0).as_string(), "us");
  EXPECT_EQ(r.at(11, 1).as_int(), 3);
  // Reference counts.
  std::int64_t want[3][4] = {};
  for (int i = 0; i < 1000; ++i)
    if (i % 100 <= 3) ++want[i % 3][i % 100];
  for (std::size_t g = 0; g < 12; ++g) {
    const std::size_t region = g / 4, amount = g % 4;
    EXPECT_EQ(r.at(g, 2).as_int(), want[region][amount]) << g;
  }
}

TEST(Executor, MultiColumnGroupByWithNegativeKeys) {
  Catalog cat;
  Table& t = cat.add(Table("t", Schema({{"a", TypeId::kInt64},
                                        {"b", TypeId::kInt64},
                                        {"v", TypeId::kInt64}})));
  const std::vector<std::int64_t> a = {-5, -5, 3, 3, -5};
  const std::vector<std::int64_t> b = {7, 8, 7, 7, 7};
  const std::vector<std::int64_t> v = {1, 2, 3, 4, 5};
  t.set_column(0, Column::from_int64("a", a));
  t.set_column(1, Column::from_int64("b", b));
  t.set_column(2, Column::from_int64("v", v));
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("t")
                        .group_by("a")
                        .group_by("b")
                        .aggregate(AggOp::kSum, "v")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);  // (-5,7), (-5,8), (3,7)
  EXPECT_EQ(r.at(0, 0).as_int(), -5);
  EXPECT_EQ(r.at(0, 1).as_int(), 7);
  EXPECT_EQ(r.at(0, 2).as_int(), 6);  // rows 0 and 4
  EXPECT_EQ(r.at(1, 1).as_int(), 8);
  EXPECT_EQ(r.at(1, 2).as_int(), 2);
  EXPECT_EQ(r.at(2, 0).as_int(), 3);
  EXPECT_EQ(r.at(2, 2).as_int(), 7);  // rows 2 and 3
}

TEST(Executor, CompositeGroupDomainOverflowRejected) {
  Catalog cat;
  Table& t = cat.add(Table("t", Schema({{"a", TypeId::kInt64},
                                        {"b", TypeId::kInt64}})));
  const std::vector<std::int64_t> a = {0, std::int64_t{1} << 40};
  const std::vector<std::int64_t> b = {0, std::int64_t{1} << 40};
  t.set_column(0, Column::from_int64("a", a));
  t.set_column(1, Column::from_int64("b", b));
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("t")
                        .group_by("a")
                        .group_by("b")
                        .aggregate(AggOp::kCount)
                        .build();
  EXPECT_THROW((void)ex.execute(plan, stats), Error);
}

TEST(Executor, ProjectionWithOrderByAndLimit) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 95, 99)
                        .select({"id", "amount"})
                        .order_by("id", false)
                        .limit(3)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.at(0, 0).as_int(), 999);
  EXPECT_EQ(r.at(1, 0).as_int(), 998);
  EXPECT_EQ(r.at(2, 0).as_int(), 997);
}

TEST(Executor, ProjectionDefaultsToAllColumns) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales").filter_int("id", 0, 0).build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.column_count(), 4u);
  EXPECT_EQ(r.at(0, 3).as_string(), "asia");
}

TEST(Executor, OrderByStringUsesDictionaryOrder) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 0, 5)
                        .select({"region"})
                        .order_by("region", true)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 6u);
  EXPECT_EQ(r.at(0, 0).as_string(), "asia");
  EXPECT_EQ(r.at(5, 0).as_string(), "us");
}

TEST(Executor, JoinCountAndAggregate) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // Join sales.amount (0..99) with customers.id (0..99), filter customer
  // age in [0, 9]: customers with id%50 in [0,9] -> ids 0..9 and 50..59.
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 0, 9)
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // Each sales row matches exactly one customer; qualifying amounts are
  // 20 values, each appearing 10 times -> 200 pairs.
  EXPECT_EQ(r.at(0, 0).as_int(), 200);
  EXPECT_EQ(stats.join_pairs, 200u);
}

TEST(Executor, JoinProjectionWithQualifiedColumns) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 7, 7)  // one row, amount 7
                        .join("customers", "amount", "id")
                        .select({"id", "customers.age"})
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.at(0, 0).as_int(), 7);
  EXPECT_EQ(r.at(0, 1).as_int(), 7);  // age = id % 50
}

TEST(Executor, JoinProjectionWithoutSelectThrows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan =
      QueryBuilder("sales").join("customers", "amount", "id").build();
  EXPECT_THROW((void)ex.execute(plan, stats), Error);
}

TEST(Executor, ZoneMapsGiveSameAnswerLessWork) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 100, 149)  // clustered: ids sorted
                        .aggregate(AggOp::kCount)
                        .build();
  ExecStats full_stats, zm_stats;
  ExecOptions zm_options;
  zm_options.use_zone_maps = true;
  zm_options.zone_block_rows = 128;
  const QueryResult full = ex.execute(plan, full_stats);
  const QueryResult pruned = ex.execute(plan, zm_stats, zm_options);
  EXPECT_EQ(full.at(0, 0).as_int(), 50);
  EXPECT_EQ(pruned.at(0, 0).as_int(), 50);
  EXPECT_LT(zm_stats.work.dram_bytes, full_stats.work.dram_bytes);
  EXPECT_LT(zm_stats.work.cpu_cycles, full_stats.work.cpu_cycles);
}

TEST(Executor, TierAccountingChargesColdColumns) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  storage::TierManager tiers;
  tiers.register_column("sales", "amount", 8000, storage::Tier::kCold);
  ExecOptions options;
  options.tiers = &tiers;
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 9)
                        .aggregate(AggOp::kCount)
                        .build();
  (void)ex.execute(plan, stats, options);
  EXPECT_GT(stats.cold_tier_time_s, 0.0);
  EXPECT_GT(stats.cold_tier_energy_j, 0.0);
  EXPECT_EQ(tiers.access_count("sales", "amount"), 1u);
}

TEST(Executor, UnknownTableThrows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  EXPECT_THROW((void)ex.execute(QueryBuilder("nope").build(), stats), Error);
}

TEST(Executor, UnknownColumnThrows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales").filter_int("nope", 0, 1).build();
  EXPECT_THROW((void)ex.execute(plan, stats), Error);
}

// GROUP BY double runs on the column's ordered dictionary codes (exactly
// like string keys) and decodes the double values back at emit.
TEST(Executor, GroupByDoubleGroupsOnDictionaryCodes) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .group_by("price")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 10u);
  std::map<double, std::int64_t> count, sum;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const double price = 0.5 * static_cast<double>(i % 10);
    ++count[price];
    sum[price] += i % 100;
  }
  for (std::size_t g = 0; g < r.row_count(); ++g) {
    const double key = r.at(g, 0).as_double();
    EXPECT_EQ(r.at(g, 1).as_int(), count[key]) << key;
    EXPECT_EQ(r.at(g, 2).as_int(), sum[key]) << key;
  }
}

// A NaN value leaves the column without an ordered code domain, so
// grouping on it still rejects — with an error that says why.
TEST(Executor, GroupByDoubleWithNaNThrows) {
  Catalog cat;
  Table& t = cat.add(Table("vals", Schema({{"v", TypeId::kDouble}})));
  t.set_column(
      0, Column::from_double(
             "v", std::vector<double>{
                      1.0, std::numeric_limits<double>::quiet_NaN(), 2.0}));
  Executor ex(cat);
  ExecStats stats;
  const auto plan =
      QueryBuilder("vals").group_by("v").aggregate(AggOp::kCount).build();
  try {
    (void)ex.execute(plan, stats);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos);
  }
}

TEST(Executor, OperatorTimingsRecorded) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 50)
                        .group_by("region")
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  (void)ex.execute(plan, stats);
  ASSERT_GE(stats.operators.size(), 2u);
  EXPECT_NE(stats.operators[0].name.find("scan"), std::string::npos);
}

// Per-operator attribution must account for every charge: summing the
// operator work deltas reproduces the query's ExecStats totals exactly
// (the joule attribution model is linear in seconds and DRAM bytes, so
// per-operator joules sum to the query's attributed joules too).
TEST(Executor, OperatorAttributionSumsToQueryTotals) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const auto plans = {
      QueryBuilder("sales")
          .filter_int("amount", 0, 50)
          .group_by("region")
          .aggregate(AggOp::kSum, "amount")
          .order_by("sum(amount)", false)
          .limit(2)
          .build(),
      QueryBuilder("sales")
          .join("customers", "amount", "id")
          .join("discounts", "amount", "amount")
          .group_by("region")
          .aggregate(AggOp::kCount)
          .aggregate(AggOp::kSum, "pct")
          .build(),
      QueryBuilder("sales")
          .filter_int("amount", 90, 99)
          .select({"id", "price"})
          .order_by("id", false)
          .limit(4)
          .build(),
  };
  for (const LogicalPlan& plan : plans) {
    ExecStats stats;
    (void)ex.execute(plan, stats);
    ASSERT_FALSE(stats.operators.empty()) << plan.to_string();
    hw::Work sum;
    double seconds = 0;
    for (const OperatorStats& op : stats.operators) {
      sum += op.work;
      seconds += op.seconds;
    }
    EXPECT_DOUBLE_EQ(sum.cpu_cycles, stats.work.cpu_cycles)
        << plan.to_string();
    EXPECT_DOUBLE_EQ(sum.dram_bytes, stats.work.dram_bytes)
        << plan.to_string();
    EXPECT_LE(seconds, stats.elapsed_s + 1e-9) << plan.to_string();
  }
}

// ---------------------------------------------------------------------------
// Vectorized join pipeline.
// ---------------------------------------------------------------------------

/// Scalar oracle for the join + GROUP BY regression tests: loops over the
/// deterministic make_catalog contents (each sales row joins the single
/// customer with id == amount).
struct JoinOracle {
  std::map<std::string, std::int64_t> count;
  std::map<std::string, std::int64_t> sum;  // of one probed column
};

// Regression for the wrong-result bug: run_join used to IGNORE
// plan.group_by entirely and report stats.groups == 1, answering a grouped
// join as if it were a global aggregate.
TEST(Executor, JoinGroupByProbeKeyMatchesScalarOracle) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 0, 9)
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .build();
  const QueryResult r = ex.execute(plan, stats);

  JoinOracle want;
  const char* region_names[] = {"asia", "eu", "us"};
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t amount = i % 100;  // joins customer id == amount
    const std::int64_t age = amount % 50;
    if (age > 9) continue;
    const std::string region = region_names[i % 3];
    ++want.count[region];
    want.sum[region] += amount;
  }
  ASSERT_EQ(r.row_count(), want.count.size());
  EXPECT_EQ(stats.groups, want.count.size());
  EXPECT_EQ(stats.join_pairs, 200u);
  for (std::size_t g = 0; g < r.row_count(); ++g) {
    const std::string region = r.at(g, 0).as_string();
    ASSERT_TRUE(want.count.count(region)) << region;
    EXPECT_EQ(r.at(g, 1).as_int(), want.count[region]) << region;
    EXPECT_EQ(r.at(g, 2).as_int(), want.sum[region]) << region;
  }
}

TEST(Executor, JoinGroupByBuildSideKeyAndAggregate) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // Group by a BUILD-side column and aggregate a BUILD-side column.
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 0, 4)
                        .group_by("customers.age")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "customers.age")
                        .aggregate(AggOp::kMax, "amount")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // Ages 0..4 select customer ids {k, 50+k}; each id matches 10 sales
  // rows -> 20 pairs per age group.
  ASSERT_EQ(r.row_count(), 5u);
  for (std::size_t g = 0; g < 5; ++g) {
    const std::int64_t age = r.at(g, 0).as_int();
    EXPECT_EQ(age, static_cast<std::int64_t>(g));
    EXPECT_EQ(r.at(g, 1).as_int(), 20);
    EXPECT_EQ(r.at(g, 2).as_int(), 20 * age);
    EXPECT_EQ(r.at(g, 3).as_int(), 50 + age);  // max amount in the group
  }
}

TEST(Executor, JoinCompositeGroupAcrossBothTables) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 0, 1)
                        .group_by("region")
                        .group_by("customers.age")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  // Ages {0, 1} x regions {asia, eu, us}: 6 groups.
  ASSERT_EQ(r.row_count(), 6u);
  std::int64_t total = 0;
  for (std::size_t g = 0; g < r.row_count(); ++g)
    total += r.at(g, 2).as_int();
  EXPECT_EQ(total, 40);  // 4 qualifying ids x 10 rows each
}

TEST(Executor, JoinArmsAgreeWithOracle) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const auto plan = QueryBuilder("sales")
                        .filter_int("id", 0, 499)
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 10, 29)
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .aggregate(AggOp::kAvg, "price")
                        .build();
  const auto groups = parity::run_join_oracle(ex, cat, plan);
  std::vector<QueryResult> results;
  for (const JoinPath path :
       {JoinPath::kAuto, JoinPath::kDense, JoinPath::kHash, JoinPath::kRadix}) {
    ExecStats stats;
    ExecOptions options;
    options.join_path = path;
    results.push_back(ex.execute(plan, stats, options));
    parity::expect_matches_oracle(results.back(), groups, plan,
                                  "path " + std::to_string(results.size()));
  }
  // The arms accumulate in the same probe order: bit-identical to each
  // other, not just within the oracle's double tolerance.
  for (std::size_t i = 1; i < results.size(); ++i)
    for (std::size_t c = 0; c < results[0].column_count(); ++c)
      EXPECT_EQ(results[i].at(0, c), results[0].at(0, c)) << "path " << i;
}

TEST(Executor, JoinParallelProbeMatchesSerial) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  sched::ThreadPool pool(4);
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .aggregate(AggOp::kMin, "customers.age")
                        .build();
  ExecStats serial_stats, par_stats, radix_stats;
  const QueryResult serial = ex.execute(plan, serial_stats);
  ExecOptions par;
  par.pool = &pool;
  par.parallel_join_min_rows = 1;  // force the parallel probe
  const QueryResult parallel = ex.execute(plan, par_stats, par);
  par.join_path = JoinPath::kRadix;  // and the parallel radix arm
  const QueryResult radix = ex.execute(plan, radix_stats, par);
  ASSERT_EQ(serial.row_count(), parallel.row_count());
  ASSERT_EQ(serial.row_count(), radix.row_count());
  for (std::size_t g = 0; g < serial.row_count(); ++g)
    for (std::size_t c = 0; c < serial.column_count(); ++c) {
      EXPECT_EQ(serial.at(g, c), parallel.at(g, c)) << g << "," << c;
      EXPECT_EQ(serial.at(g, c), radix.at(g, c)) << g << "," << c;
    }
}

TEST(Executor, JoinEmptyBuildSelection) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const auto base = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 200, 300);  // no customer
  {
    ExecStats stats;
    const auto plan = QueryBuilder(base)
                          .aggregate(AggOp::kCount)
                          .aggregate(AggOp::kSum, "amount")
                          .build();
    const QueryResult r = ex.execute(plan, stats);
    ASSERT_EQ(r.row_count(), 1u);
    EXPECT_EQ(r.at(0, 0).as_int(), 0);
    EXPECT_EQ(r.at(0, 1).as_int(), 0);
    EXPECT_EQ(stats.join_pairs, 0u);
  }
  {
    ExecStats stats;
    const auto plan = QueryBuilder(base)
                          .group_by("region")
                          .aggregate(AggOp::kCount)
                          .build();
    const QueryResult r = ex.execute(plan, stats);
    EXPECT_EQ(r.row_count(), 0u);
    EXPECT_EQ(stats.groups, 0u);
  }
}

TEST(Executor, JoinRejectsUnsupportedShapesUpFront) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // Without aliases, joining the same table twice makes every qualified
  // reference ambiguous — rejected rather than bound to the first
  // instance.
  {
    const auto plan = QueryBuilder("sales")
                          .join("customers", "amount", "id")
                          .join("customers", "id", "id")
                          .aggregate(AggOp::kCount)
                          .build();
    EXPECT_THROW((void)ex.execute(plan, stats), Error);
  }
  // Expression aggregates over joins are rejected before any work runs.
  {
    const auto expr = exec::Expr::binary(exec::ExprOp::kMul,
                                         exec::Expr::column("amount"),
                                         exec::Expr::column("amount"));
    const auto plan = QueryBuilder("sales")
                          .join("customers", "amount", "id")
                          .aggregate_expr(AggOp::kSum, expr)
                          .build();
    EXPECT_THROW((void)ex.execute(plan, stats), Error);
  }
  // Double-typed join keys cannot hash-equal meaningfully here.
  {
    const auto plan = QueryBuilder("sales")
                          .join("customers", "price", "id")
                          .aggregate(AggOp::kCount)
                          .build();
    EXPECT_THROW((void)ex.execute(plan, stats), Error);
  }
}

// The "charge what you read" rule (join-path energy attribution): DRAM
// bytes must equal the representations the chosen arm actually streams —
// packed images for the join keys, plain arrays for every gathered
// payload/group column, each charged once per query.
TEST(Executor, JoinDramChargesMatchBytesRead) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const Table& sales = cat.get("sales");
  const Table& customers = cat.get("customers");
  const auto scan_bytes = [](const Column& c) {
    // Mirrors Executor::use_packed under default options.
    const bool packed =
        c.encoded() != nullptr && c.scan_byte_size() <= c.byte_size();
    return static_cast<double>(packed ? c.scan_byte_size() : c.byte_size());
  };

  // Keys not otherwise gathered: both consumed packed.
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "price")
                        .aggregate(AggOp::kSum, "customers.age")
                        .build();
  ExecStats stats;
  (void)ex.execute(plan, stats);
  ASSERT_NE(sales.column("amount").encoded(), nullptr);
  // The string group key bills its code array plus — at emit, where the
  // group values materialize — the dictionary payload, capped at one full
  // dictionary read (3 groups >= 3 entries here, so the full payload).
  const double region_dict = static_cast<double>(
      sales.column("region").dictionary().payload_bytes());
  const double want =
      scan_bytes(sales.column("amount")) +                       // probe key
      scan_bytes(customers.column("id")) +                       // build key
      static_cast<double>(sales.column("region").byte_size()) +  // group key
      region_dict +                                              // group emit
      static_cast<double>(sales.column("price").byte_size()) +   // agg gather
      static_cast<double>(customers.column("age").byte_size());  // build agg
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, want);

  // One representation per column per query: in the chain (pinned by the
  // hash arm), a join key that is ALSO a gathered aggregate input is read
  // plain everywhere and charged once.
  const auto plan2 = QueryBuilder("sales")
                         .join("customers", "amount", "id")
                         .group_by("region")
                         .aggregate(AggOp::kSum, "amount")
                         .build();
  ExecOptions hash_opts;
  hash_opts.join_path = JoinPath::kHash;
  ExecStats stats2;
  (void)ex.execute(plan2, stats2, hash_opts);
  const double want2 =
      static_cast<double>(sales.column("amount").byte_size()) +  // key + agg
      scan_bytes(customers.column("id")) +                       // build key
      static_cast<double>(sales.column("region").byte_size()) +  // group key
      region_dict;                                               // group emit
  EXPECT_DOUBLE_EQ(stats2.work.dram_bytes, want2);
  // Without a chain (customers only filters), the base kernels read the
  // key and the input through one packed image, charged once by the pass.
  const PhysicalPlan groupjoin = compile_plan(cat, plan2);
  ASSERT_EQ(groupjoin.joins.size(), 1u);
  ASSERT_EQ(groupjoin.joins[0].role, JoinRole::kFilter);
  ExecStats stats3;
  (void)ex.execute(plan2, stats3);
  const double want3 = scan_bytes(sales.column("amount")) +    // key + agg
                       scan_bytes(customers.column("id")) +    // build key
                       scan_bytes(sales.column("region")) +    // group key
                       region_dict;                            // group emit
  EXPECT_DOUBLE_EQ(stats3.work.dram_bytes, want3);

  // Grouping by the dimension's own join key: the lookup build reads the
  // key plain, so the pass reads it plain too — one representation,
  // charged once.
  const auto plan4 = QueryBuilder("sales")
                         .join("customers", "amount", "id")
                         .group_by("customers.id")
                         .aggregate(AggOp::kCount)
                         .build();
  const PhysicalPlan keyed = compile_plan(cat, plan4);
  ASSERT_EQ(keyed.joins.size(), 1u);
  ASSERT_EQ(keyed.joins[0].role, JoinRole::kGather);
  ASSERT_NE(customers.column("id").encoded(), nullptr);
  ASSERT_LT(scan_bytes(customers.column("id")),
            static_cast<double>(customers.column("id").byte_size()));
  ExecStats stats4;
  const QueryResult r4 = ex.execute(plan4, stats4);
  EXPECT_EQ(r4.row_count(), 100u);
  bool gathered = false;
  for (const OperatorStats& op : stats4.operators)
    gathered = gathered || op.name == "join-gather(customers)";
  EXPECT_TRUE(gathered);
  const double want4 =
      scan_bytes(sales.column("amount")) +                         // fk
      static_cast<double>(customers.column("id").byte_size());     // key
  EXPECT_DOUBLE_EQ(stats4.work.dram_bytes, want4);

  // With encodings off, the same query charges the plain widths only, and
  // never less than the packed run.
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  ExecStats plain_stats;
  (void)ex.execute(plan, plain_stats, plain_opts);
  const double plain_want =
      static_cast<double>(sales.column("amount").byte_size()) +
      static_cast<double>(customers.column("id").byte_size()) +
      static_cast<double>(sales.column("region").byte_size()) + region_dict +
      static_cast<double>(sales.column("price").byte_size()) +
      static_cast<double>(customers.column("age").byte_size());
  EXPECT_DOUBLE_EQ(plain_stats.work.dram_bytes, plain_want);
  EXPECT_LE(stats.work.dram_bytes, plain_stats.work.dram_bytes);
}

// ---------------------------------------------------------------------------
// Multi-way joins through the physical plan compiler.
// ---------------------------------------------------------------------------

TEST(Executor, ThreeTableStarJoinGroupByMatchesScalarOracle) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 0, 9)
                        .join("discounts", "amount", "amount")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "pct")
                        .aggregate(AggOp::kSum, "customers.age")
                        .build();
  const QueryResult r = ex.execute(plan, stats);

  std::map<std::string, std::int64_t> count, pct_sum, age_sum;
  const char* region_names[] = {"asia", "eu", "us"};
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t amount = i % 100;
    const std::int64_t age = amount % 50;
    if (age > 9) continue;  // customer filter
    const std::string region = region_names[i % 3];
    ++count[region];
    pct_sum[region] += amount % 7;  // discounts.pct
    age_sum[region] += age;
  }
  ASSERT_EQ(r.row_count(), count.size());
  EXPECT_EQ(stats.groups, count.size());
  EXPECT_EQ(stats.join_pairs, 200u);
  for (std::size_t g = 0; g < r.row_count(); ++g) {
    const std::string region = r.at(g, 0).as_string();
    EXPECT_EQ(r.at(g, 1).as_int(), count[region]) << region;
    EXPECT_EQ(r.at(g, 2).as_int(), pct_sum[region]) << region;
    EXPECT_EQ(r.at(g, 3).as_int(), age_sum[region]) << region;
  }
}

TEST(Executor, SnowflakeJoinChainsThroughDimension) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // brackets joins on customers.age — a second-hop (snowflake) key.
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join("brackets", "customers.age", "age")
                        .group_by("bracket")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  std::map<std::int64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t age = (i % 100) % 50;
    ++want[age / 10];
  }
  ASSERT_EQ(r.row_count(), want.size());
  for (std::size_t g = 0; g < r.row_count(); ++g)
    EXPECT_EQ(r.at(g, 1).as_int(), want[r.at(g, 0).as_int()]);
}

TEST(Executor, MultiJoinAgreesAcrossArmsAndParallelism) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  sched::ThreadPool pool(4);
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .join_filter_int("age", 5, 30)
                        .join("discounts", "amount", "amount")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "pct")
                        .aggregate(AggOp::kMin, "customers.age")
                        .build();
  ExecStats s0;
  const QueryResult want = ex.execute(plan, s0);
  for (const JoinPath path : {JoinPath::kHash, JoinPath::kRadix}) {
    ExecOptions options;
    options.join_path = path;
    ExecStats stats;
    const QueryResult got = ex.execute(plan, stats, options);
    ASSERT_EQ(got.row_count(), want.row_count());
    for (std::size_t g = 0; g < want.row_count(); ++g)
      for (std::size_t c = 0; c < want.column_count(); ++c)
        EXPECT_EQ(got.at(g, c), want.at(g, c)) << g << "," << c;
  }
  ExecOptions par;
  par.pool = &pool;
  par.parallel_join_min_rows = 1;
  ExecStats sp;
  const QueryResult parallel = ex.execute(plan, sp, par);
  ASSERT_EQ(parallel.row_count(), want.row_count());
  for (std::size_t g = 0; g < want.row_count(); ++g)
    for (std::size_t c = 0; c < want.column_count(); ++c)
      EXPECT_EQ(parallel.at(g, c), want.at(g, c)) << g << "," << c;
}

// ---------------------------------------------------------------------------
// ORDER BY / top-k over join output (the shape validate_join_plan used to
// reject outright).
// ---------------------------------------------------------------------------

TEST(Executor, JoinProjectionOrderByLimit) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 95, 99)
                        .join("customers", "amount", "id")
                        .select({"id", "customers.age"})
                        .order_by("id", false)
                        .limit(3)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.at(0, 0).as_int(), 999);  // amount 99
  EXPECT_EQ(r.at(1, 0).as_int(), 998);
  EXPECT_EQ(r.at(2, 0).as_int(), 997);
  EXPECT_EQ(r.at(0, 1).as_int(), 49);   // age of customer 99
}

TEST(Executor, JoinGroupByOrderByAggregateDescLimit) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .group_by("customers.age")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "amount")
                        .order_by("sum(amount)", false)
                        .limit(5)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 5u);
  // age k aggregates customers {k, 50+k}: sum(amount) = 10k + 10(k+50).
  // Largest sums come from the largest ages.
  for (std::size_t g = 0; g + 1 < r.row_count(); ++g)
    EXPECT_GE(r.at(g, 2).as_int(), r.at(g + 1, 2).as_int());
  EXPECT_EQ(r.at(0, 0).as_int(), 49);
  EXPECT_EQ(r.at(0, 2).as_int(), 10 * 49 + 10 * 99);
}

TEST(Executor, BaseGroupByOrderByAggregateHonored) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  // ORDER BY over aggregate output on the no-join path (used to be
  // silently ignored).
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 9)
                        .group_by("amount")
                        .aggregate(AggOp::kCount)
                        .order_by("amount", false)
                        .limit(3)
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.at(0, 0).as_int(), 9);
  EXPECT_EQ(r.at(1, 0).as_int(), 8);
  EXPECT_EQ(r.at(2, 0).as_int(), 7);
}

TEST(Executor, OrderByUnknownResultColumnThrows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("sales")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .order_by("sum(amount)")  // not in the select list
                        .build();
  EXPECT_THROW((void)ex.execute(plan, stats), Error);
}

// ---------------------------------------------------------------------------
// Top-k ledger discipline: the heap top-k pass bounds what downstream
// materialization reads, and the DRAM charge must equal exactly that.
// ---------------------------------------------------------------------------

TEST(Executor, TopKProjectionChargesOnlyGatheredRows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const Table& sales = cat.get("sales");
  const auto scan_bytes = [](const Column& c) {
    const bool packed =
        c.encoded() != nullptr && c.scan_byte_size() <= c.byte_size();
    return static_cast<double>(packed ? c.scan_byte_size() : c.byte_size());
  };
  const auto per_row = [](const Column& c) {
    return static_cast<double>(c.byte_size()) /
           static_cast<double>(c.size());
  };
  const auto plan = QueryBuilder("sales")
                        .select({"amount", "price"})
                        .order_by("id", false)
                        .limit(5)
                        .build();
  ExecStats stats;
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 5u);
  EXPECT_EQ(r.at(0, 0).as_int(), 999 % 100);
  // The sort key streams in full (every selected row is compared); the
  // projected columns are gathered for the 5 emitted rows only.
  const double want = scan_bytes(sales.column("id")) +
                      5 * per_row(sales.column("amount")) +
                      5 * per_row(sales.column("price"));
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, want);

  // Without LIMIT the full selection is gathered and charged.
  ExecStats full_stats;
  (void)ex.execute(QueryBuilder("sales")
                       .select({"amount", "price"})
                       .order_by("id", false)
                       .build(),
                   full_stats);
  EXPECT_GT(full_stats.work.dram_bytes, stats.work.dram_bytes);
}

TEST(Executor, JoinTopKProjectionChargesOnlyGatheredRows) {
  const Catalog cat = make_catalog();
  Executor ex(cat);
  const Table& sales = cat.get("sales");
  const Table& customers = cat.get("customers");
  const auto scan_bytes = [](const Column& c) {
    const bool packed =
        c.encoded() != nullptr && c.scan_byte_size() <= c.byte_size();
    return static_cast<double>(packed ? c.scan_byte_size() : c.byte_size());
  };
  const auto per_row = [](const Column& c) {
    return static_cast<double>(c.byte_size()) /
           static_cast<double>(c.size());
  };
  const auto plan = QueryBuilder("sales")
                        .join("customers", "amount", "id")
                        .select({"price", "customers.age"})
                        .order_by("id", false)
                        .limit(7)
                        .build();
  ExecStats stats;
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 7u);
  EXPECT_EQ(stats.join_pairs, 1000u);  // every sales row matches once
  // Keys stream once each (packed when encoded); the ORDER BY key is
  // gathered once per match; payload gathers touch the 7 emitted rows.
  const double want = scan_bytes(sales.column("amount")) +   // probe key
                      scan_bytes(customers.column("id")) +   // build key
                      1000 * per_row(sales.column("id")) +   // sort key
                      7 * per_row(sales.column("price")) +
                      7 * per_row(customers.column("age"));
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, want);
}

// ---------------------------------------------------------------------------
// Typed sort keys: int32 / dictionary / packed ORDER BY columns are
// compared in place — the packed image is what the ledger charges, which
// is only possible because no widened int64 copy is materialized.
// ---------------------------------------------------------------------------

TEST(Executor, PackedSortKeyChargedAtPackedBytes) {
  Catalog cat;
  Table& t = cat.add(Table("t", Schema({{"k", TypeId::kInt32},
                                        {"v", TypeId::kInt64}})));
  std::vector<std::int32_t> k;
  std::vector<std::int64_t> v;
  Pcg32 rng(11);
  for (std::size_t i = 0; i < 4096; ++i) {
    k.push_back(static_cast<std::int32_t>(rng.next_bounded(200)));
    v.push_back(static_cast<std::int64_t>(i));
  }
  t.set_column(0, Column::from_int32("k", k));
  t.set_column(1, Column::from_int64("v", v));
  ASSERT_NE(t.column("k").encoded(), nullptr);
  ASSERT_LT(t.column("k").scan_byte_size(), t.column("k").byte_size());

  Executor ex(cat);
  const auto plan = QueryBuilder("t")
                        .select({"v"})
                        .order_by("k", true)
                        .limit(10)
                        .build();
  ExecStats packed_stats, plain_stats;
  const QueryResult packed = ex.execute(plan, packed_stats);
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  const QueryResult plain = ex.execute(plan, plain_stats, plain_opts);
  ASSERT_EQ(packed.row_count(), plain.row_count());
  for (std::size_t i = 0; i < packed.row_count(); ++i)
    EXPECT_EQ(packed.at(i, 0), plain.at(i, 0)) << i;
  // The packed run's sort-key charge is the packed image; no widened
  // copy exists on either arm, and the packed arm charges strictly less.
  const double per_row_v =
      static_cast<double>(t.column("v").byte_size()) / 4096.0;
  EXPECT_DOUBLE_EQ(
      packed_stats.work.dram_bytes,
      static_cast<double>(t.column("k").scan_byte_size()) + 10 * per_row_v);
  EXPECT_DOUBLE_EQ(plain_stats.work.dram_bytes,
                   static_cast<double>(t.column("k").byte_size()) +
                       10 * per_row_v);
}

// ---------------------------------------------------------------------------
// The physical plan compiler (EXPLAIN surface).
// ---------------------------------------------------------------------------

TEST(PhysicalPlan, ExplainShowsOperatorTreeAndJoinOrder) {
  const Catalog cat = make_catalog();
  const auto plan = QueryBuilder("sales")
                        .filter_int("amount", 0, 50)
                        .join("customers", "amount", "id")
                        .join("discounts", "amount", "amount")
                        .group_by("region")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "pct")
                        .order_by("sum(pct)", false)
                        .limit(3)
                        .build();
  const PhysicalPlan phys = compile_plan(cat, plan);
  ASSERT_EQ(phys.joins.size(), 2u);
  EXPECT_EQ(phys.join_order_algorithm, "dp");
  const std::string s = phys.explain();
  for (const char* needle :
       {"limit(3)", "top-k(sum(pct) desc", "aggregate(", "join[",
        "scan+filter(sales", "join order: dp"})
    EXPECT_NE(s.find(needle), std::string::npos) << needle << " in\n" << s;
}

/// Catalog for string / double keyed joins: lineitems' part dictionary
/// only PARTIALLY overlaps parts' ("rod" is probe-only, "axle"/"shim"
/// build-only), and rates' disc dictionary covers lineitems' four
/// values plus one build-only entry.
Catalog make_keyed_catalog() {
  Catalog cat;
  Table& li = cat.add(Table("lineitems", Schema({{"part", TypeId::kString},
                                                 {"qty", TypeId::kInt64},
                                                 {"disc", TypeId::kDouble}})));
  std::vector<std::string> parts;
  std::vector<std::int64_t> qty;
  std::vector<double> disc;
  const char* part_names[] = {"bolt", "cam", "gear", "nut", "rod"};
  for (std::int64_t i = 0; i < 600; ++i) {
    parts.emplace_back(part_names[i % 5]);
    qty.push_back(i % 7);
    disc.push_back(0.5 * static_cast<double>(i % 4));  // 0.0 .. 1.5
  }
  li.set_column(0, Column::from_strings("part", parts));
  li.set_column(1, Column::from_int64("qty", qty));
  li.set_column(2, Column::from_double("disc", disc));

  Table& pt = cat.add(Table(
      "parts", Schema({{"part", TypeId::kString}, {"weight", TypeId::kInt64}})));
  std::vector<std::string> pnames = {"axle", "bolt", "cam",
                                     "gear", "nut",  "shim"};
  std::vector<std::int64_t> pweights = {1, 2, 3, 4, 5, 6};
  pt.set_column(0, Column::from_strings("part", pnames));
  pt.set_column(1, Column::from_int64("weight", pweights));

  Table& rt = cat.add(Table(
      "rates", Schema({{"disc", TypeId::kDouble}, {"fee", TypeId::kInt64}})));
  std::vector<double> rdisc = {0.0, 0.5, 1.0, 1.5, 9.5};
  std::vector<std::int64_t> rfee = {10, 20, 30, 40, 99};
  rt.set_column(0, Column::from_double("disc", rdisc));
  rt.set_column(1, Column::from_int64("fee", rfee));
  return cat;
}

TEST(Executor, StringKeyedJoinMatchesScalarOracle) {
  const Catalog cat = make_keyed_catalog();
  Executor ex(cat);
  const auto plan = QueryBuilder("lineitems")
                        .join("parts", "part", "part")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "qty")
                        .aggregate(AggOp::kSum, "parts.weight")
                        .build();
  ExecStats stats;
  const QueryResult got = ex.execute(plan, stats);
  // Scalar oracle over the generator: row i joins iff part i%5 != "rod".
  const std::int64_t weight_of[] = {2, 3, 4, 5, 0};  // bolt cam gear nut rod
  std::int64_t cnt = 0, sq = 0, sw = 0;
  for (std::int64_t i = 0; i < 600; ++i) {
    if (i % 5 == 4) continue;  // "rod" is missing from parts
    ++cnt;
    sq += i % 7;
    sw += weight_of[i % 5];
  }
  ASSERT_EQ(got.row_count(), 1u);
  EXPECT_EQ(got.at(0, 0).as_int(), cnt);
  EXPECT_EQ(got.at(0, 1).as_int(), sq);
  EXPECT_EQ(got.at(0, 2).as_int(), sw);
}

TEST(Executor, StringKeyedJoinGroupByBuildKey) {
  const Catalog cat = make_keyed_catalog();
  Executor ex(cat);
  const auto plan = QueryBuilder("lineitems")
                        .join("parts", "part", "part")
                        .group_by("parts.part")
                        .aggregate(AggOp::kCount)
                        .build();
  ExecStats stats;
  const QueryResult got = ex.execute(plan, stats);
  std::map<std::string, std::int64_t> counts;
  for (std::size_t r = 0; r < got.row_count(); ++r)
    counts[got.at(r, 0).as_string()] = got.at(r, 1).as_int();
  // 600 rows cycle 5 parts; "rod" never matches, "axle"/"shim" never
  // receive a probe. The four shared parts get 120 rows each.
  const std::map<std::string, std::int64_t> want = {
      {"bolt", 120}, {"cam", 120}, {"gear", 120}, {"nut", 120}};
  EXPECT_EQ(counts, want);
}

TEST(Executor, StringKeyedJoinSharedDictionaryMatchesEveryRow) {
  // Build side holding exactly the probe's value set: the remap is the
  // identity permutation and every probe row matches once.
  Catalog cat = make_keyed_catalog();
  Table& all = cat.add(Table(
      "allparts",
      Schema({{"part", TypeId::kString}, {"rank", TypeId::kInt64}})));
  std::vector<std::string> names = {"bolt", "cam", "gear", "nut", "rod"};
  std::vector<std::int64_t> ranks = {1, 2, 3, 4, 5};
  all.set_column(0, Column::from_strings("part", names));
  all.set_column(1, Column::from_int64("rank", ranks));
  Executor ex(cat);
  ExecStats stats;
  const QueryResult got = ex.execute(QueryBuilder("lineitems")
                                         .join("allparts", "part", "part")
                                         .aggregate(AggOp::kCount)
                                         .build(),
                                     stats);
  EXPECT_EQ(got.at(0, 0).as_int(), 600);
}

TEST(Executor, DoubleKeyedJoinMatchesScalarOracle) {
  const Catalog cat = make_keyed_catalog();
  Executor ex(cat);
  const auto plan = QueryBuilder("lineitems")
                        .join("rates", "disc", "disc")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "rates.fee")
                        .build();
  ExecStats stats;
  const QueryResult got = ex.execute(plan, stats);
  // disc cycles {0.0, 0.5, 1.0, 1.5} (150 rows each); fee 10/20/30/40;
  // the build-only 9.5 never matches.
  EXPECT_EQ(got.at(0, 0).as_int(), 600);
  EXPECT_EQ(got.at(0, 1).as_int(), 150 * (10 + 20 + 30 + 40));
}

TEST(Executor, DoubleJoinKeyWithNaNThrows) {
  Catalog cat = make_keyed_catalog();
  Table& bad = cat.add(Table(
      "badrates", Schema({{"disc", TypeId::kDouble}, {"fee", TypeId::kInt64}})));
  std::vector<double> rdisc = {0.0, std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::int64_t> rfee = {10, 20};
  bad.set_column(0, Column::from_double("disc", rdisc));
  bad.set_column(1, Column::from_int64("fee", rfee));
  Executor ex(cat);
  ExecStats stats;
  try {
    (void)ex.execute(QueryBuilder("lineitems")
                         .join("badrates", "disc", "disc")
                         .aggregate(AggOp::kCount)
                         .build(),
                     stats);
    FAIL() << "expected NaN double join key to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos)
        << e.what();
  }
}

TEST(PhysicalPlan, ExplainSurfacesJoinKeyTypeAndRemap) {
  const Catalog cat = make_keyed_catalog();
  const auto splan = QueryBuilder("lineitems")
                         .join("parts", "part", "part")
                         .aggregate(AggOp::kCount)
                         .build();
  const std::string s = compile_plan(cat, splan).explain();
  EXPECT_NE(s.find("key=string codes, remap=6 entries"), std::string::npos)
      << s;
  const auto dplan = QueryBuilder("lineitems")
                         .join("rates", "disc", "disc")
                         .aggregate(AggOp::kCount)
                         .build();
  const std::string d = compile_plan(cat, dplan).explain();
  EXPECT_NE(d.find("key=double codes, remap=5 entries"), std::string::npos)
      << d;
}

TEST(PhysicalPlan, AmbiguousUnqualifiedJoinKeyNamesCandidates) {
  // f lacks "x"; d1 AND d2 both own it — binding the third join's left
  // key silently to either would be wrong, so the compiler must reject
  // and name both candidates. Qualifying the key resolves it.
  Catalog cat;
  Table& f = cat.add(Table("f", Schema({{"k", TypeId::kInt32}})));
  f.set_column(0, Column::from_int32("k", std::vector<std::int32_t>{1, 2}));
  Table& d1 = cat.add(
      Table("d1", Schema({{"k1", TypeId::kInt32}, {"x", TypeId::kInt32}})));
  d1.set_column(0, Column::from_int32("k1", std::vector<std::int32_t>{1, 2}));
  d1.set_column(1, Column::from_int32("x", std::vector<std::int32_t>{5, 6}));
  Table& d2 = cat.add(
      Table("d2", Schema({{"k2", TypeId::kInt32}, {"x", TypeId::kInt32}})));
  d2.set_column(0, Column::from_int32("k2", std::vector<std::int32_t>{1, 2}));
  d2.set_column(1, Column::from_int32("x", std::vector<std::int32_t>{5, 6}));
  Table& d3 = cat.add(
      Table("d3", Schema({{"k3", TypeId::kInt32}, {"y", TypeId::kInt32}})));
  d3.set_column(0, Column::from_int32("k3", std::vector<std::int32_t>{5, 6}));
  d3.set_column(1, Column::from_int32("y", std::vector<std::int32_t>{7, 8}));

  const auto ambiguous = QueryBuilder("f")
                             .join("d1", "k", "k1")
                             .join("d2", "k", "k2")
                             .join("d3", "x", "k3")
                             .aggregate(AggOp::kCount)
                             .build();
  try {
    (void)compile_plan(cat, ambiguous);
    FAIL() << "expected an ambiguity error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ambiguous join key column \"x\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("d1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("d2"), std::string::npos) << msg;
  }
  const auto qualified = QueryBuilder("f")
                             .join("d1", "k", "k1")
                             .join("d2", "k", "k2")
                             .join("d3", "d2.x", "k3")
                             .aggregate(AggOp::kCount)
                             .build();
  EXPECT_NO_THROW((void)compile_plan(cat, qualified));
}

TEST(PhysicalPlan, SnowflakeStepsAreTopologicallyOrdered) {
  const Catalog cat = make_catalog();
  const auto plan = QueryBuilder("sales")
                        .join("brackets", "customers.age", "age")
                        .join("customers", "amount", "id")
                        .aggregate(AggOp::kCount)
                        .build();
  // brackets depends on customers: the compiler must execute customers
  // first regardless of declaration order.
  const PhysicalPlan phys = compile_plan(cat, plan);
  ASSERT_EQ(phys.joins.size(), 2u);
  EXPECT_EQ(phys.logical.joins[phys.joins[0].logical_index].table,
            "customers");
  EXPECT_EQ(phys.joins[1].source_side, 1u);

  Executor ex(cat);
  ExecStats stats;
  const QueryResult r = ex.execute(plan, stats);
  EXPECT_EQ(r.at(0, 0).as_int(), 1000);  // every chain row matches once
}

}  // namespace
}  // namespace eidb::query
