// Differential harness for sharded execution: the SAME parity matrix the
// compressed suite runs (parity_matrix.hpp) executes single-node and then
// sharded at shard counts {1, 2, 4, 8}, and every result must be
// BIT-IDENTICAL — partial-merge mode by construction of the merge order,
// gather mode by construction of the preset selection. The wire ledger is
// held to its contract: all wire metrics are zero at shard_count == 1
// (shard 0 lives on the coordinator), per-operator work deltas — DRAM and
// net bytes alike — sum to the query totals byte-exactly, and the modeled
// link joules land under energy::kWireScope on the Database ledger.
#include <gtest/gtest.h>

#include "parity_matrix.hpp"

#include <string>
#include <vector>

#include "core/database.hpp"
#include "energy/ledger.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "util/assert.hpp"

namespace eidb::query {
namespace {

using parity::expect_identical;
using parity::make_catalog;
using parity::query_matrix;
using storage::Catalog;

/// Summing each operator's work delta must reproduce the query totals
/// byte-exactly: every charge — shard-local scan cycles, exchange wire
/// bytes, merge CPU — lands inside exactly one operator scope.
void expect_operator_sums_match(const ExecStats& stats,
                                const std::string& label) {
  hw::Work sum;
  for (const OperatorStats& op : stats.operators) sum += op.work;
  EXPECT_DOUBLE_EQ(sum.cpu_cycles, stats.work.cpu_cycles) << label;
  EXPECT_DOUBLE_EQ(sum.dram_bytes, stats.work.dram_bytes) << label;
  EXPECT_DOUBLE_EQ(sum.net_bytes, stats.work.net_bytes) << label;
}

/// The full matrix, single-node vs sharded, at every shard count.
void run_sharded_matrix(Catalog& cat, std::size_t shards,
                        const std::string& config,
                        sched::ThreadPool* pool = nullptr,
                        const std::string& partition_key = "u32") {
  cat.get("facts").build_partitions(partition_key, shards);
  Executor ex(cat);
  for (auto& [name, plan] : query_matrix()) {
    ExecOptions single;
    ExecOptions dist;
    dist.shard_count = shards;
    dist.pool = pool;
    ExecStats sstats, dstats;
    const QueryResult want = ex.execute(plan, sstats, single);
    const QueryResult got = ex.execute(plan, dstats, dist);
    const std::string label = config + "/" + name;
    expect_identical(want, got, label);
    EXPECT_EQ(dstats.shards_executed, shards) << label;
    EXPECT_EQ(sstats.shards_executed, 0u) << label;
    expect_operator_sums_match(dstats, label);
    if (shards == 1) {
      // Shard 0 IS the coordinator: nothing crosses a link.
      EXPECT_EQ(dstats.wire_messages, 0u) << label;
      EXPECT_DOUBLE_EQ(dstats.work.net_bytes, 0.0) << label;
      EXPECT_DOUBLE_EQ(dstats.wire_time_s, 0.0) << label;
      EXPECT_DOUBLE_EQ(dstats.wire_energy_j, 0.0) << label;
    } else {
      // Shards 1..S-1 each ship at least their result/row-id payload.
      EXPECT_GE(dstats.wire_messages, shards - 1) << label;
    }
  }
}

TEST(DistributedParity, MatrixBitIdenticalAtEveryShardCount) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    Catalog cat = make_catalog(7);
    run_sharded_matrix(cat, shards, "shards" + std::to_string(shards));
  }
}

TEST(DistributedParity, PoolFanOutMatchesSerialShards) {
  // Shards fan out over the worker pool; results must not depend on the
  // interleaving (per-shard stats fold in shard order, not finish order).
  Catalog cat = make_catalog(1337);
  sched::ThreadPool pool(4);
  run_sharded_matrix(cat, 8, "pool+shards8", &pool);
}

TEST(DistributedParity, PartitionKeyDoesNotAffectResults) {
  // The hash key only decides row placement. String and double keys hash
  // their dictionary codes; every choice must reproduce the single-node
  // answer for both partial-merge and gather shapes.
  for (const std::string key : {"tag", "wide64", "dk"}) {
    Catalog cat = make_catalog(90210);
    run_sharded_matrix(cat, 4, "key=" + key + "/shards4", nullptr, key);
  }
}

TEST(DistributedParity, WireChargesAppearWhenShardsShip) {
  Catalog cat = make_catalog(7);
  cat.get("facts").build_partitions("u32", 4);
  Executor ex(cat);
  // One partial-merge shape (int group-by) and one gather shape (top-k
  // projection): both must book positive wire bytes, joules and seconds.
  for (auto& [name, plan] : query_matrix()) {
    if (name != "group_small_key" && name != "topn") continue;
    ExecOptions dist;
    dist.shard_count = 4;
    ExecStats stats;
    (void)ex.execute(plan, stats, dist);
    EXPECT_GE(stats.wire_messages, 3u) << name;
    EXPECT_GT(stats.work.net_bytes, 0.0) << name;
    EXPECT_GT(stats.wire_time_s, 0.0) << name;
    EXPECT_GT(stats.wire_energy_j, 0.0) << name;
  }
}

TEST(DistributedParity, ExplainShowsShardsAndExchange) {
  Catalog cat = make_catalog(7);
  cat.get("facts").build_partitions("u32", 4);
  ExecOptions dist;
  dist.shard_count = 4;
  const auto plan = QueryBuilder("facts")
                        .join("dim", "u32", "key")
                        .group_by("tag")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "dim.weight")
                        .build();
  const PhysicalPlan phys = compile_plan(cat, plan, dist);
  const std::string text = phys.explain();
  EXPECT_NE(text.find("shards: 4"), std::string::npos) << text;
  EXPECT_NE(text.find("exchange:"), std::string::npos) << text;
}

TEST(DistributedParity, ShardsReadFromQualifiedJoinColumns) {
  // Shard tables carry their own names ("facts#<n>"); a join plan binds
  // its column names when it is compiled, so a FROM-qualified aggregate
  // input reads the shard's column as the single-node run reads facts'.
  const auto plan = QueryBuilder("facts")
                        .join("dim2", "u32", "key2")
                        .group_by("tag")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "facts.wide64")
                        .build();
  for (const std::size_t shards : {2u, 4u}) {
    Catalog cat = make_catalog(7);
    cat.get("facts").build_partitions("u32", shards);
    Executor ex(cat);
    for (const JoinPath path : {JoinPath::kAuto, JoinPath::kHash}) {
      ExecOptions single;
      single.join_path = path;
      ExecOptions dist = single;
      dist.shard_count = shards;
      ASSERT_EQ(compile_plan(cat, plan, dist).dist.mode,
                DistMode::kPartialMerge);
      const std::string label = "shards" + std::to_string(shards) +
                                (path == JoinPath::kHash ? "/hash" : "/auto");
      ExecStats sstats, dstats;
      const QueryResult want = ex.execute(plan, sstats, single);
      QueryResult got;
      ASSERT_NO_THROW(got = ex.execute(plan, dstats, dist)) << label;
      expect_identical(want, got, label);
      EXPECT_EQ(dstats.shards_executed, shards) << label;
      expect_operator_sums_match(dstats, label);
    }
  }
}

TEST(DistributedParity, StalePartitionLayerRejected) {
  // A compiled plan pins the shard layout; repartitioning between compile
  // and execute must be caught, not silently mis-executed.
  Catalog cat = make_catalog(7);
  cat.get("facts").build_partitions("u32", 4);
  const auto plan = QueryBuilder("facts")
                        .group_by("skew32")
                        .aggregate(AggOp::kCount)
                        .build();
  ExecOptions dist;
  dist.shard_count = 4;
  const PhysicalPlan phys = compile_plan(cat, plan, dist);
  cat.get("facts").build_partitions("u32", 2);
  Executor ex(cat);
  ExecStats stats;
  EXPECT_THROW((void)ex.execute(phys, stats, dist), Error);
}

TEST(DistributedParity, ShardCountWithoutPartitionsRejected) {
  Catalog cat = make_catalog(7);  // no build_partitions call
  ExecOptions dist;
  dist.shard_count = 4;
  const auto plan =
      QueryBuilder("facts").aggregate(AggOp::kCount).build();
  EXPECT_THROW((void)compile_plan(cat, plan, dist), Error);
}

TEST(DistributedParity, DatabaseBooksWireJoulesUnderWireScope) {
  using core::Database;
  using core::RunOptions;
  using storage::Column;
  for (const std::size_t shards : {1u, 4u}) {
    Database db;
    storage::Table& t = db.create_table(
        "facts", storage::Schema({{"k", storage::TypeId::kInt32},
                                  {"v", storage::TypeId::kInt64}}));
    std::vector<std::int32_t> k;
    std::vector<std::int64_t> v;
    for (std::int32_t i = 0; i < 20'000; ++i) {
      k.push_back(i % 37);
      v.push_back(i % 1000);
    }
    t.set_column(0, Column::from_int32("k", k));
    t.set_column(1, Column::from_int64("v", v));
    t.build_partitions("k", shards);
    const auto plan = QueryBuilder("facts")
                          .group_by("k")
                          .aggregate(AggOp::kCount)
                          .aggregate(AggOp::kSum, "v")
                          .build();
    RunOptions options;
    options.exec.shard_count = shards;
    const core::RunResult run = db.run(plan, options);
    ASSERT_EQ(run.result.row_count(), 37u);
    const energy::LedgerEntry wire = db.ledger().total(energy::kWireScope);
    if (shards == 1) {
      // Nothing shipped: the wire scope must stay EMPTY, not near-zero.
      EXPECT_DOUBLE_EQ(wire.energy_j, 0.0);
      EXPECT_DOUBLE_EQ(wire.work.net_bytes, 0.0);
      EXPECT_EQ(wire.tuples, 0u);
    } else {
      EXPECT_GT(wire.energy_j, 0.0);
      EXPECT_GT(wire.work.net_bytes, 0.0);
      EXPECT_GE(wire.tuples, shards - 1);  // tuples column carries messages
      // The wire joules ride the per-query attribution too.
      EXPECT_GE(run.attributed_j, wire.energy_j);
    }
  }
}

}  // namespace
}  // namespace eidb::query
