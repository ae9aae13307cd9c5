// Join roles (query/physical_plan, query/ops/join_op): a dense step probed
// from the FROM table whose side nothing reads runs only as its semi-join
// filter pass, and when every step is a filter or a gather step the plan
// runs no chain at all — the filtered fact selection feeds the base
// aggregation kernels, which read gather sides' group keys through dense
// lookups on the fact foreign keys (a groupjoin). The pinned hash arm
// keeps every step in the chain, so it is the reference each shape is
// held to: bit-identical results, including double sums, at every pool
// width and shard count, with the per-operator work summing to the query
// totals and the operators that ran matching the compiled roles. Steps
// whose selected build keys repeat go back to the chain at run time.
#include <gtest/gtest.h>

#include "parity_matrix.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "sched/thread_pool.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using parity::expect_identical;
using parity::expect_matches_oracle;
using parity::make_catalog;
using parity::run_join_oracle;
using parity::unique_dim_queries;
using storage::Catalog;

/// Every parallel threshold at 1, so small tables still take the
/// morsel-parallel filter, probe, aggregate and sink paths.
ExecOptions options_for(sched::ThreadPool* pool, std::size_t shards,
                        JoinPath path = JoinPath::kAuto) {
  ExecOptions o;
  o.pool = pool;
  o.shard_count = shards;
  o.join_path = path;
  o.parallel_agg_min_rows = 1;
  o.parallel_join_min_rows = 1;
  o.parallel_sort_min_rows = 1;
  o.parallel_project_min_rows = 1;
  return o;
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

bool ran(const ExecStats& stats, const std::string& name) {
  for (const OperatorStats& op : stats.operators)
    if (op.name == name) return true;
  return false;
}

/// True when some operator is a join chain (its name starts with an arm).
bool ran_chain(const ExecStats& stats) {
  for (const OperatorStats& op : stats.operators)
    for (const char* arm : {"dense-join(", "hash-join(", "radix-join("})
      if (op.name.rfind(arm, 0) == 0) return true;
  return false;
}

/// The chain operator's name, or "" when no chain ran.
std::string chain_name(const ExecStats& stats) {
  for (const OperatorStats& op : stats.operators)
    for (const char* arm : {"dense-join(", "hash-join(", "radix-join("})
      if (op.name.rfind(arm, 0) == 0) return op.name;
  return "";
}

/// The operators a single-node run of `phys` must show when every step
/// keeps its compiled role: a pass per filter and gather step, a lookup
/// build per gather step, and the chain (naming exactly the chain steps)
/// or, without one, the base aggregate or materializer.
void expect_operators_match_roles(const ExecStats& stats,
                                  const PhysicalPlan& phys,
                                  const std::string& label) {
  std::string chain;
  for (const PhysicalJoinStep& step : phys.joins) {
    const std::string& table = phys.logical.joins[step.logical_index].table;
    EXPECT_EQ(ran(stats, "join-filter(" + table + ")"),
              step.join_filter.filter)
        << label << " " << table;
    EXPECT_EQ(ran(stats, "join-gather(" + table + ")"),
              step.role == JoinRole::kGather)
        << label << " " << table;
    if (step.role == JoinRole::kChain) {
      if (!chain.empty()) chain += " ";
      chain += std::string(opt::join_arm_name(step.arm)) + "(" + table + ")";
    }
  }
  if (chain.empty()) {
    EXPECT_FALSE(ran_chain(stats)) << label;
    if (phys.logical.is_aggregate()) {
      EXPECT_TRUE(ran(stats, phys.logical.has_group_by() ? "group-aggregate"
                                                         : "aggregate"))
          << label;
      EXPECT_FALSE(ran(stats, "aggregate(join)")) << label;
    } else {
      EXPECT_TRUE(ran(stats, "materialize")) << label;
    }
  } else {
    const std::string got = chain_name(stats);
    EXPECT_EQ(got.substr(0, chain.size()), chain) << label;
  }
}

/// Compiled roles of `phys` by build table.
std::map<std::string, JoinRole> roles_of(const PhysicalPlan& phys) {
  std::map<std::string, JoinRole> roles;
  for (const PhysicalJoinStep& step : phys.joins)
    roles[phys.logical.joins[step.logical_index].table] = step.role;
  return roles;
}

TEST(JoinRoleParity, CompiledRolesFollowTheDimensionReads) {
  const Catalog cat = make_catalog(4242);
  using R = JoinRole;
  const std::map<std::string, std::map<std::string, JoinRole>> want = {
      {"ujoin_filter_global", {{"udim", R::kFilter}, {"dim2", R::kFilter}}},
      {"ujoin_group_label", {{"udim", R::kGather}}},
      {"ujoin_group_ratio", {{"udim", R::kGather}}},
      {"ujoin_group_composite", {{"udim", R::kGather}, {"dim2", R::kFilter}}},
      {"ujoin_key_in_composite", {{"udim", R::kGather}}},
      {"ujoin_string_key", {{"udim", R::kFilter}}},
      {"ujoin_string_key_lookup", {{"udim", R::kGather}}},
      {"ujoin_double_key", {{"udim", R::kGather}}},
      {"ujoin_project_topn", {{"udim", R::kFilter}}},
      {"ujoin_project", {{"udim", R::kFilter}}},
      {"ujoin_empty_lookup", {{"udim", R::kGather}}},
      {"ujoin_empty_global", {{"udim", R::kFilter}}},
      {"ujoin_snowflake", {{"udim", R::kChain}, {"dim2", R::kChain}}},
  };
  for (const auto& [name, plan] : unique_dim_queries()) {
    const PhysicalPlan phys = compile_plan(cat, plan);
    ASSERT_TRUE(want.count(name)) << name;
    EXPECT_EQ(roles_of(phys), want.at(name)) << name;
    EXPECT_EQ(phys.chainless(), name != "ujoin_snowflake") << name;
    // The pass is the step: filter and gather steps always run theirs.
    for (const PhysicalJoinStep& step : phys.joins)
      if (step.role != JoinRole::kChain) {
        EXPECT_TRUE(step.join_filter.filter) << name;
      }
    // The hash arm keeps every step in the chain.
    ExecOptions hash;
    hash.join_path = JoinPath::kHash;
    for (const PhysicalJoinStep& step : compile_plan(cat, plan, hash).joins)
      EXPECT_EQ(step.role, JoinRole::kChain) << name;
  }
}

TEST(JoinRoleParity, EveryRoleMatchesTheHashChainAtEveryPoolWidthAndShard) {
  sched::ThreadPool pool2(2);
  sched::ThreadPool pool8(8);
  const std::pair<std::string, sched::ThreadPool*> pools[] = {
      {"serial", nullptr}, {"pool2", &pool2}, {"pool8", &pool8}};
  for (const std::size_t shards : {0u, 1u, 4u}) {
    Catalog cat = make_catalog(4242);
    if (shards > 0) cat.get("facts").build_partitions("u32", shards);
    Executor ex(cat);
    for (const auto& [pool_name, pool] : pools) {
      for (const auto& [name, plan] : unique_dim_queries()) {
        const std::string label =
            name + "/" + pool_name + "/shards" + std::to_string(shards);
        const ExecOptions roles = options_for(pool, shards);
        const ExecOptions chain = options_for(pool, shards, JoinPath::kHash);
        ExecStats role_stats, chain_stats;
        const QueryResult got = ex.execute(plan, role_stats, roles);
        const QueryResult want = ex.execute(plan, chain_stats, chain);
        expect_identical(want, got, label);
        EXPECT_EQ(role_stats.join_pairs, chain_stats.join_pairs) << label;
        expect_operator_sums_exact(role_stats, label + "/roles");
        expect_operator_sums_exact(chain_stats, label + "/hash");
        EXPECT_FALSE(ran(chain_stats, "join-gather(udim)")) << label;
        if (shards == 0) {
          expect_operators_match_roles(role_stats,
                                       compile_plan(cat, plan, roles), label);
          EXPECT_TRUE(ran_chain(chain_stats)) << label;
        }
      }
    }
  }
}

TEST(JoinRoleParity, RepeatedBuildKeysSendTheStepBackToTheChain) {
  const Catalog cat = make_catalog(4242);
  Executor ex(cat);
  struct Case {
    std::string name;
    LogicalPlan plan;
    JoinRole compiled;    // dim's role at compile time
    bool groupjoin;       // no chain runs
  };
  const std::vector<Case> cases = {
      // dim repeats keys 0..49: its filter step joins some rows twice.
      {"filter_repeats",
       QueryBuilder("facts")
           .filter_int("u32", 0, 300)
           .join("dim", "u32", "key")
           .group_by("tag")
           .aggregate(AggOp::kCount)
           .aggregate(AggOp::kSum, "d")
           .build(),
       JoinRole::kFilter, false},
      {"gather_repeats",
       QueryBuilder("facts")
           .join("dim", "u32", "key")
           .group_by("dim.cat")
           .aggregate(AggOp::kCount)
           .aggregate(AggOp::kSum, "wide64")
           .build(),
       JoinRole::kGather, false},
      // A repeated filter step takes the unique gather step back in.
      {"gather_beside_repeats",
       QueryBuilder("facts")
           .join("udim", "u32", "ukey")
           .join("dim", "u32", "key")
           .group_by("udim.label")
           .aggregate(AggOp::kCount)
           .aggregate(AggOp::kSum, "neg64")
           .build(),
       JoinRole::kFilter, false},
      // The build predicate drops every repeated key: the lookup holds.
      {"predicate_removes_repeats",
       QueryBuilder("facts")
           .join("dim", "u32", "key")
           .join_filter_int("key", 50, 699)
           .group_by("dim.cat")
           .aggregate(AggOp::kCount)
           .aggregate(AggOp::kSum, "wide64")
           .aggregate(AggOp::kSum, "d")
           .build(),
       JoinRole::kGather, true},
  };
  sched::ThreadPool pool(4);
  for (const Case& c : cases) {
    const PhysicalPlan phys = compile_plan(cat, c.plan);
    EXPECT_EQ(roles_of(phys).at("dim"), c.compiled) << c.name;
    const auto groups = run_join_oracle(ex, cat, c.plan);
    for (sched::ThreadPool* p : {static_cast<sched::ThreadPool*>(nullptr),
                                 &pool}) {
      const std::string label = c.name + (p ? "/pool" : "/serial");
      ExecStats stats, hash_stats;
      const QueryResult got = ex.execute(c.plan, stats, options_for(p, 0));
      expect_matches_oracle(got, groups, c.plan, label);
      const QueryResult hash = ex.execute(
          c.plan, hash_stats, options_for(p, 0, JoinPath::kHash));
      expect_identical(hash, got, label);
      expect_operator_sums_exact(stats, label);
      EXPECT_EQ(ran_chain(stats), !c.groupjoin) << label;
      EXPECT_TRUE(ran(stats, "join-filter(dim)")) << label;
      EXPECT_EQ(ran(stats, "join-gather(dim)"), c.groupjoin) << label;
      if (!c.groupjoin) {
        // EXPLAIN ANALYZE names the step's chain operator.
        EXPECT_NE(chain_name(stats).find("dense-join(dim)"),
                  std::string::npos)
            << label << ": " << chain_name(stats);
      }
    }
  }
}

TEST(JoinRoleExplain, PrintsRolesForcedPassesAndTheGroupjoinOperators) {
  const Catalog cat = make_catalog(4242);
  const LogicalPlan plan = QueryBuilder("facts")
                               .join("udim", "u32", "ukey")
                               .join("dim2", "u32", "key2")
                               .join_filter_int("score", -10, 10)
                               .group_by("udim.label")
                               .aggregate(AggOp::kCount)
                               .aggregate(AggOp::kSum, "wide64")
                               .build();
  const PhysicalPlan phys = compile_plan(cat, plan);
  const std::string text = phys.explain();
  EXPECT_NE(text.find("udim ON u32 = ukey, probe side 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("role=gather)"), std::string::npos) << text;
  EXPECT_NE(text.find("role=filter)"), std::string::npos) << text;
  EXPECT_NE(text.find("join-filter: udim ON u32"), std::string::npos) << text;
  EXPECT_NE(text.find(", forced\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("declined"), std::string::npos) << text;
  EXPECT_EQ(text.find("saved_probe_cycles"), std::string::npos) << text;

  Executor ex(cat);
  ExecStats stats;
  (void)ex.execute(phys, stats, ExecOptions{});
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const std::string analyze =
      format_operator_stats(stats, machine, machine.dvfs.fastest());
  for (const std::string name :
       {"join-filter(udim)", "join-filter(dim2)", "join-gather(udim)",
        "group-aggregate"})
    EXPECT_NE(analyze.find(name), std::string::npos) << analyze;
  EXPECT_EQ(classify_operator("join-gather(udim)"), OperatorKind::kJoin);
}

// ---------------------------------------------------------------------------
// Chunking: the join pipeline cuts its probe chunks and radix tasks from the
// input size alone, so a grouped double SUM is the same at every pool width.
// ---------------------------------------------------------------------------

/// facts(fk, v) over 1M rows — enough that a chunking by worker count
/// would cut different chunks at every width — with doubles spread over
/// 60 binades, and dim(id, grp, w) with unique keys.
Catalog spread_catalog() {
  using storage::Column;
  using storage::Schema;
  using storage::Table;
  using storage::TypeId;
  Catalog cat;
  Table& facts = cat.add(
      Table("facts", Schema({{"fk", TypeId::kInt32}, {"v", TypeId::kDouble}})));
  Pcg32 rng(2024);
  const std::size_t n = 1'000'000;
  std::vector<std::int32_t> fk(n);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    fk[i] = static_cast<std::int32_t>(rng.next_bounded(1000));
    const double mantissa = 1 + rng.next_double();
    v[i] = std::ldexp(rng.next_bounded(2) ? mantissa : -mantissa,
                      static_cast<int>(rng.next_bounded(60)) - 30);
  }
  facts.set_column(0, Column::from_int32("fk", fk));
  facts.set_column(1, Column::from_double("v", v));
  Table& dim = cat.add(Table("dim", Schema({{"id", TypeId::kInt32},
                                            {"grp", TypeId::kInt32},
                                            {"w", TypeId::kDouble}})));
  std::vector<std::int32_t> id, grp;
  std::vector<double> w;
  for (std::int32_t k = 0; k < 1000; ++k) {
    id.push_back(k);
    grp.push_back(k % 4);
    w.push_back(std::ldexp(1.0 + rng.next_double(),
                           static_cast<int>(rng.next_bounded(40)) - 20));
  }
  dim.set_column(0, Column::from_int32("id", id));
  dim.set_column(1, Column::from_int32("grp", grp));
  dim.set_column(2, Column::from_double("w", w));
  return cat;
}

/// Bit patterns of every double in `r`.
std::vector<std::uint64_t> double_bits(const QueryResult& r) {
  std::vector<std::uint64_t> bits;
  for (std::size_t row = 0; row < r.row_count(); ++row)
    for (std::size_t c = 0; c < r.column_count(); ++c)
      if (r.at(row, c).is_double())
        bits.push_back(std::bit_cast<std::uint64_t>(r.at(row, c).as_double()));
  return bits;
}

TEST(ParallelJoin, DoubleSumsDoNotDependOnThePoolWidth) {
  const Catalog cat = spread_catalog();
  Executor ex(cat);
  // dim.w keeps the step in the chain; without it the step gathers.
  const LogicalPlan chain_plan = QueryBuilder("facts")
                                     .join("dim", "fk", "id")
                                     .group_by("dim.grp")
                                     .aggregate(AggOp::kSum, "v")
                                     .aggregate(AggOp::kSum, "dim.w")
                                     .build();
  const LogicalPlan gather_plan = QueryBuilder("facts")
                                      .join("dim", "fk", "id")
                                      .group_by("dim.grp")
                                      .aggregate(AggOp::kSum, "v")
                                      .aggregate(AggOp::kCount)
                                      .build();
  ASSERT_EQ(compile_plan(cat, chain_plan).joins[0].arm,
            opt::JoinArm::kDenseJoin);
  ASSERT_EQ(compile_plan(cat, gather_plan).joins[0].role, JoinRole::kGather);
  struct Path {
    std::string name;
    const LogicalPlan* plan;
    JoinPath join_path;
  };
  const Path paths[] = {{"dense-chain", &chain_plan, JoinPath::kAuto},
                        {"hash-chain", &chain_plan, JoinPath::kHash},
                        {"radix-first", &chain_plan, JoinPath::kRadix},
                        {"groupjoin", &gather_plan, JoinPath::kAuto},
                        {"groupjoin-hash", &gather_plan, JoinPath::kHash}};
  std::map<std::string, std::vector<std::uint64_t>> want;
  for (const std::size_t width : {1u, 2u, 3u, 8u}) {
    sched::ThreadPool pool(width);
    std::map<std::string, std::vector<std::uint64_t>> got;
    for (const Path& path : paths) {
      ExecStats stats;
      const QueryResult r =
          ex.execute(*path.plan, stats, options_for(&pool, 0, path.join_path));
      got[path.name] = double_bits(r);
      ASSERT_EQ(got[path.name].size(), path.plan == &chain_plan ? 8u : 4u);
      if (want.count(path.name) == 0) want[path.name] = got[path.name];
      EXPECT_EQ(got[path.name], want[path.name])
          << path.name << " at a pool of " << width;
    }
    // The groupjoin and the hash chain cut the same chunks.
    EXPECT_EQ(got["groupjoin"], got["groupjoin-hash"]) << "pool of " << width;
  }
}

}  // namespace
}  // namespace eidb::query
