// Parity between the single-pass vectorized aggregation pipeline and the
// scalar reference oracle (parity_matrix.hpp), plus the single-pass
// accounting guarantees: a multi-aggregate group-by charges each input
// column to the DRAM ledger exactly once and never rescans a key column
// for min/max.
#include <gtest/gtest.h>

#include "parity_matrix.hpp"

#include <cmath>
#include <vector>

#include "query/executor.hpp"
#include "sched/thread_pool.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;
using storage::Value;

/// facts(k32 int32, k64 int64, tag string, v64 int64, v32 int32, d double)
/// — random contents large enough to hit full and partial selection words.
Catalog make_catalog(std::size_t rows = 20'000, std::uint64_t seed = 99) {
  Catalog cat;
  Table& t = cat.add(Table("facts", Schema({{"k32", TypeId::kInt32},
                                            {"k64", TypeId::kInt64},
                                            {"tag", TypeId::kString},
                                            {"v64", TypeId::kInt64},
                                            {"v32", TypeId::kInt32},
                                            {"d", TypeId::kDouble}})));
  Pcg32 rng(seed);
  std::vector<std::int32_t> k32, v32;
  std::vector<std::int64_t> k64, v64;
  std::vector<double> d;
  std::vector<std::string> tag;
  const char* tags[] = {"alpha", "beta", "gamma", "delta"};
  for (std::size_t i = 0; i < rows; ++i) {
    k32.push_back(static_cast<std::int32_t>(rng.next_in_range(0, 19)));
    k64.push_back(rng.next_in_range(-8, 8));
    tag.emplace_back(tags[rng.next_bounded(4)]);
    v64.push_back(rng.next_in_range(-10'000, 10'000));
    v32.push_back(static_cast<std::int32_t>(rng.next_in_range(-500, 500)));
    d.push_back(rng.next_double() * 40 - 20);
  }
  t.set_column(0, Column::from_int32("k32", k32));
  t.set_column(1, Column::from_int64("k64", k64));
  t.set_column(2, Column::from_strings("tag", tag));
  t.set_column(3, Column::from_int64("v64", v64));
  t.set_column(4, Column::from_int32("v32", v32));
  t.set_column(5, Column::from_double("d", d));
  return cat;
}

void expect_results_match(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.column_names(), got.column_names());
  ASSERT_EQ(want.row_count(), got.row_count());
  for (std::size_t r = 0; r < want.row_count(); ++r) {
    for (std::size_t c = 0; c < want.column_count(); ++c) {
      const Value& w = want.at(r, c);
      const Value& g = got.at(r, c);
      if (w.is_double() || g.is_double()) {
        ASSERT_EQ(w.is_double(), g.is_double()) << "row " << r << " col " << c;
        EXPECT_NEAR(w.as_double(), g.as_double(),
                    1e-6 * (1.0 + std::abs(w.as_double())))
            << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(w, g) << "row " << r << " col " << c;
      }
    }
  }
}

/// Runs `plan` and checks the result against the scalar oracle.
void expect_parity(const Catalog& cat, const LogicalPlan& plan) {
  Executor ex(cat);
  ExecStats stats;
  const QueryResult got = ex.execute(plan, stats);
  parity::expect_matches_oracle(got, parity::run_join_oracle(ex, cat, plan),
                                plan, plan.table);
}

TEST(PipelineParity, GlobalMultiAggregate) {
  const Catalog cat = make_catalog();
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("v64", -5'000, 5'000)
                         .aggregate(AggOp::kCount)
                         .aggregate(AggOp::kSum, "v64")
                         .aggregate(AggOp::kMin, "v64")
                         .aggregate(AggOp::kMax, "v32")
                         .aggregate(AggOp::kAvg, "d")
                         .build());
}

TEST(PipelineParity, SingleKeyGroupBys) {
  const Catalog cat = make_catalog();
  for (const char* key : {"k32", "k64", "tag"}) {
    expect_parity(cat, QueryBuilder("facts")
                           .group_by(key)
                           .aggregate(AggOp::kCount)
                           .aggregate(AggOp::kSum, "v64")
                           .aggregate(AggOp::kMin, "v32")
                           .aggregate(AggOp::kAvg, "d")
                           .build());
  }
}

TEST(PipelineParity, MultiKeyGroupBy) {
  const Catalog cat = make_catalog();
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("v32", -250, 250)
                         .group_by("tag")
                         .group_by("k64")
                         .aggregate(AggOp::kCount)
                         .aggregate(AggOp::kSum, "v64")
                         .aggregate(AggOp::kMax, "d")
                         .build());
}

TEST(PipelineParity, ExpressionAggregates) {
  const Catalog cat = make_catalog();
  const auto expr =
      exec::Expr::binary(exec::ExprOp::kMul, exec::Expr::column("v64"),
                         exec::Expr::column("d"));
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("k32", 2, 17)
                         .group_by("k32")
                         .aggregate_expr(AggOp::kSum, expr)
                         .aggregate_expr(AggOp::kAvg, expr)
                         .aggregate(AggOp::kCount)
                         .build());
  expect_parity(cat, QueryBuilder("facts")
                         .aggregate_expr(AggOp::kSum, expr)
                         .aggregate_expr(AggOp::kMin, expr)
                         .build());
}

TEST(PipelineParity, EmptySelection) {
  const Catalog cat = make_catalog();
  // v64 never exceeds 10'000 -> empty selection on both paths.
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("v64", 50'000, 60'000)
                         .aggregate(AggOp::kCount)
                         .aggregate(AggOp::kSum, "v64")
                         .aggregate(AggOp::kMin, "v64")
                         .aggregate(AggOp::kAvg, "d")
                         .build());
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("v64", 50'000, 60'000)
                         .group_by("k32")
                         .aggregate(AggOp::kSum, "v64")
                         .build());
}

TEST(PipelineParity, ConjunctiveGroupBy) {
  const Catalog cat = make_catalog();
  expect_parity(cat, QueryBuilder("facts")
                         .filter_int("v64", -2'000, 7'000)
                         .filter_int("v32", -400, 100)
                         .group_by("k32")
                         .aggregate(AggOp::kCount)
                         .aggregate(AggOp::kSum, "v64")
                         .build());
}

TEST(PipelineParity, ParallelPoolMatchesSerial) {
  const Catalog cat = make_catalog(100'000);
  const auto plan = QueryBuilder("facts")
                        .group_by("k32")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v64")
                        .aggregate(AggOp::kMin, "v32")
                        .aggregate(AggOp::kAvg, "d")
                        .build();
  Executor ex(cat);
  ExecStats serial_stats, par_stats;
  const QueryResult serial = ex.execute(plan, serial_stats);
  sched::ThreadPool pool(4);
  ExecOptions options;
  options.pool = &pool;
  options.parallel_agg_min_rows = 1;  // force the parallel path
  const QueryResult par = ex.execute(plan, par_stats, options);
  expect_results_match(serial, par);
}

TEST(PipelineParity, OrderedMaskedPredicatesMatchUnordered) {
  const Catalog cat = make_catalog();
  const auto plan = QueryBuilder("facts")
                        .filter_int("v64", -9'000, 9'000)   // wide
                        .filter_int("k32", 3, 4)            // selective
                        .filter_double("d", -10.0, 15.0)    // medium
                        .group_by("k32")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v64")
                        .build();
  Executor ex(cat);
  ExecStats ordered_stats, unordered_stats;
  ExecOptions unordered;
  unordered.order_predicates = false;
  const QueryResult want = ex.execute(plan, unordered_stats, unordered);
  const QueryResult got = ex.execute(plan, ordered_stats);
  expect_results_match(want, got);
  // Masked later predicates touch at most what full rescans would.
  EXPECT_LE(ordered_stats.tuples_scanned, unordered_stats.tuples_scanned);
  EXPECT_LE(ordered_stats.work.dram_bytes, unordered_stats.work.dram_bytes);
}

TEST(SinglePassAccounting, EachInputColumnChargedExactlyOnce) {
  const Catalog cat = make_catalog();
  const Table& t = cat.get("facts");
  // Three aggregates over v64 + one over v32, grouped by k32, no
  // predicates: the ledger must show exactly one read of each column.
  const auto plan = QueryBuilder("facts")
                        .group_by("k32")
                        .aggregate(AggOp::kSum, "v64")
                        .aggregate(AggOp::kMin, "v64")
                        .aggregate(AggOp::kAvg, "v64")
                        .aggregate(AggOp::kMax, "v32")
                        .aggregate(AggOp::kCount)
                        .build();
  Executor ex(cat);
  ExecStats stats;
  (void)ex.execute(plan, stats);
  // Each column is charged once, at the bytes the pass actually streams:
  // the packed image for encoded columns, the plain array otherwise.
  const double want = static_cast<double>(t.column("k32").scan_byte_size() +
                                          t.column("v64").scan_byte_size() +
                                          t.column("v32").scan_byte_size());
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, want);

  // The same query with encodings disabled charges the plain widths once.
  ExecStats plain_stats;
  ExecOptions plain;
  plain.use_encodings = false;
  (void)ex.execute(plan, plain_stats, plain);
  EXPECT_DOUBLE_EQ(plain_stats.work.dram_bytes,
                   static_cast<double>(t.column("k32").byte_size() +
                                       t.column("v64").byte_size() +
                                       t.column("v32").byte_size()));
  EXPECT_LE(stats.work.dram_bytes, plain_stats.work.dram_bytes);
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes + stats.dram_bytes_saved,
                   plain_stats.work.dram_bytes);
}

TEST(SinglePassAccounting, StatsPruningSkipsDecidedPredicates) {
  const Catalog cat = make_catalog();
  // k32 in [0, 19]: the predicate covers the whole domain, so cached
  // stats prove every row matches — nothing is scanned or charged.
  const auto all = QueryBuilder("facts")
                       .filter_int("k32", 0, 100)
                       .aggregate(AggOp::kCount)
                       .build();
  Executor ex(cat);
  ExecStats stats;
  const QueryResult r = ex.execute(all, stats);
  EXPECT_EQ(r.at(0, 0).as_int(), 20'000);
  EXPECT_EQ(stats.tuples_scanned, 0u);
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, 0.0);

  // Disjoint range: statically empty, also without touching the data.
  const auto none = QueryBuilder("facts")
                        .filter_int("k32", 1'000, 2'000)
                        .aggregate(AggOp::kCount)
                        .build();
  ExecStats none_stats;
  const QueryResult rn = ex.execute(none, none_stats);
  EXPECT_EQ(rn.at(0, 0).as_int(), 0);
  EXPECT_EQ(none_stats.tuples_scanned, 0u);
}

TEST(PipelineParity, GroupByHashLikeInt64Keys) {
  // Key spread overflows a signed domain computation: the vectorized path
  // must fall back to hashing (expected values are computed directly).
  constexpr std::int64_t kLo = -5'000'000'000'000'000'000LL;
  constexpr std::int64_t kHi = 5'000'000'000'000'000'000LL;
  Catalog cat;
  Table& t = cat.add(Table(
      "wide", Schema({{"id", TypeId::kInt64}, {"v", TypeId::kInt64}})));
  std::vector<std::int64_t> ids, vs;
  for (std::int64_t i = 0; i < 90; ++i) {
    ids.push_back(i % 3 == 0 ? kLo : (i % 3 == 1 ? 0 : kHi));
    vs.push_back(i);
  }
  t.set_column(0, Column::from_int64("id", ids));
  t.set_column(1, Column::from_int64("v", vs));
  Executor ex(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("wide")
                        .group_by("id")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v")
                        .build();
  const QueryResult r = ex.execute(plan, stats);
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.at(0, 0).as_int(), kLo);
  EXPECT_EQ(r.at(1, 0).as_int(), 0);
  EXPECT_EQ(r.at(2, 0).as_int(), kHi);
  for (std::size_t g = 0; g < 3; ++g) EXPECT_EQ(r.at(g, 1).as_int(), 30);
  // sum over i ≡ 0 (mod 3), i in [0, 90): 0+3+...+87 = 30*87/2... check
  // directly: sum_{j=0..29} (3j + offset) = 3*435 + 30*offset.
  EXPECT_EQ(r.at(0, 2).as_int(), 3 * 435 + 30 * 0);
  EXPECT_EQ(r.at(1, 2).as_int(), 3 * 435 + 30 * 1);
  EXPECT_EQ(r.at(2, 2).as_int(), 3 * 435 + 30 * 2);
}

TEST(ColumnStatsCache, MatchesDataAndInvalidates) {
  std::vector<std::int64_t> v = {5, -3, 12, 7, -3};
  Column c = Column::from_int64("x", v);
  const storage::ColumnStats& s = c.stats();
  EXPECT_EQ(s.rows, 5u);
  EXPECT_EQ(s.min, -3);
  EXPECT_EQ(s.max, 12);
  EXPECT_EQ(s.domain(), 16);
  EXPECT_NEAR(c.stats().range_selectivity(std::int64_t{-3}, std::int64_t{12}),
              1.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      c.stats().range_selectivity(std::int64_t{100}, std::int64_t{200}), 0.0);

  // Appends invalidate and the next read recomputes.
  c.append_int64(40);
  EXPECT_EQ(c.stats().max, 40);
  EXPECT_EQ(c.stats().rows, 6u);
}

}  // namespace
}  // namespace eidb::query
