#include "query/distributed.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "net/cluster.hpp"
#include "net/wire_format.hpp"
#include "query/ops/exchange_op.hpp"
#include "query/ops/pipeline.hpp"
#include "query/ops/scan_filter.hpp"
#include "query/ops/sort_op.hpp"
#include "storage/partition.hpp"
#include "util/assert.hpp"

namespace eidb::query {

namespace {

using storage::Value;

/// The per-shard partial plan: a leading COUNT(*) carries each group's row
/// count to the merge, AVG rewrites to SUM (finalized at the coordinator),
/// and sort/limit wait until the partials are merged.
LogicalPlan partial_logical(const LogicalPlan& plan) {
  LogicalPlan p = plan;
  p.order_by.reset();
  p.limit = 0;
  std::vector<AggSpec> aggs;
  aggs.reserve(plan.aggregates.size() + 1);
  aggs.push_back(AggSpec{});  // AggOp::kCount — the merge's row counter.
  for (AggSpec a : plan.aggregates) {
    if (a.op == AggOp::kAvg) a.op = AggOp::kSum;
    aggs.push_back(std::move(a));
  }
  p.aggregates = std::move(aggs);
  return p;
}

/// Serializes a materialized result column-wise. Column kinds come from
/// the first row — every result column is single-typed (an empty result
/// serializes as int64 columns; nothing reads the kind of zero rows).
net::WireTable result_to_wire(const QueryResult& r) {
  net::WireTable t;
  const std::size_t rows = r.row_count();
  for (std::size_t c = 0; c < r.column_count(); ++c) {
    if (rows == 0) {
      t.columns.push_back(net::WireColumn::of_int64({}));
      continue;
    }
    const Value& first = r.at(0, c);
    if (first.is_string()) {
      std::vector<std::string> v;
      v.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) v.push_back(r.at(i, c).as_string());
      t.columns.push_back(net::WireColumn::of_strings(std::move(v)));
    } else if (first.is_double()) {
      std::vector<double> v;
      v.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) v.push_back(r.at(i, c).as_double());
      t.columns.push_back(net::WireColumn::of_double(std::move(v)));
    } else {
      std::vector<std::int64_t> v;
      v.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) v.push_back(r.at(i, c).as_int());
      t.columns.push_back(net::WireColumn::of_int64(std::move(v)));
    }
  }
  return t;
}

Value wire_value(const net::WireColumn& col, std::size_t row) {
  switch (col.kind) {
    case net::WireColumn::Kind::kInt64:
      return Value{col.i64[row]};
    case net::WireColumn::Kind::kDouble:
      return Value{col.f64[row]};
    case net::WireColumn::Kind::kString:
      return Value{col.str[row]};
  }
  return Value{};
}

/// Orders group-key tuples the way the single-node aggregate emits them:
/// lexicographic over the group columns, each compared in its value
/// domain. This equals the composite-code order because dictionaries are
/// sorted (codes are order-preserving) and key strides put the first
/// group column in the most significant position.
struct TupleLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const Value& x = a[i];
      const Value& y = b[i];
      if (x.is_string()) {
        const int c = x.as_string().compare(y.as_string());
        if (c != 0) return c < 0;
      } else if (x.is_double()) {
        if (x.as_double() != y.as_double()) return x.as_double() < y.as_double();
      } else {
        if (x.as_int() != y.as_int()) return x.as_int() < y.as_int();
      }
    }
    return false;
  }
};

/// One aggregate's cross-shard accumulator. Integer COUNT/SUM (and the
/// AVG numerator) merge by exact int64 addition; MIN/MAX keep the running
/// extremum in whichever domain the partials carry, guarded by the shard
/// row's count so empty-shard placeholder zeros never participate.
struct AggAcc {
  bool has = false;        ///< Any partial with count > 0 contributed.
  bool is_double = false;  ///< MIN/MAX domain (double column inputs).
  std::int64_t i = 0;
  double d = 0;
};

struct GroupAcc {
  std::int64_t rows = 0;  ///< Merged leading COUNT — the AVG denominator.
  std::vector<AggAcc> aggs;
};

using GroupMap = std::map<std::vector<Value>, GroupAcc, TupleLess>;

void merge_partials(const LogicalPlan& plan, const net::WireTable& t,
                    GroupMap& groups) {
  const std::size_t g_cols = plan.group_by.size();
  const std::size_t a_cols = plan.aggregates.size();
  if (t.columns.size() != g_cols + 1 + a_cols)
    throw Error("distributed: malformed partial-aggregate payload");
  const net::WireColumn& count_col = t.columns[g_cols];
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    std::vector<Value> key;
    key.reserve(g_cols);
    for (std::size_t c = 0; c < g_cols; ++c)
      key.push_back(wire_value(t.columns[c], r));
    GroupAcc& acc = groups[std::move(key)];
    if (acc.aggs.empty()) acc.aggs.resize(a_cols);
    if (count_col.kind != net::WireColumn::Kind::kInt64)
      throw Error("distributed: malformed partial-aggregate payload");
    const std::int64_t cnt = count_col.i64[r];
    acc.rows += cnt;
    for (std::size_t a = 0; a < a_cols; ++a) {
      const net::WireColumn& col = t.columns[g_cols + 1 + a];
      AggAcc& x = acc.aggs[a];
      switch (plan.aggregates[a].op) {
        case AggOp::kCount:
        case AggOp::kSum:
        case AggOp::kAvg:  // partial is the int64 SUM; finalized later
          if (col.kind != net::WireColumn::Kind::kInt64)
            throw Error("distributed: malformed partial-aggregate payload");
          x.i += col.i64[r];
          break;
        case AggOp::kMin:
        case AggOp::kMax: {
          if (cnt == 0) break;  // empty-group placeholder, not a value
          const bool want_max = plan.aggregates[a].op == AggOp::kMax;
          if (col.kind == net::WireColumn::Kind::kDouble) {
            const double v = col.f64[r];
            if (!x.has || (want_max ? v > x.d : v < x.d)) x.d = v;
            x.is_double = true;
          } else {
            const std::int64_t v = col.i64[r];
            if (!x.has || (want_max ? v > x.i : v < x.i)) x.i = v;
          }
          x.has = true;
          break;
        }
      }
    }
  }
}

/// Emits the merged groups in ascending key order with the single-node
/// result schema and value conventions (MIN/MAX of zero rows is int64 0,
/// AVG of zero rows is 0.0 — exactly what agg_out_value emits).
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
// GCC 12's uninit tracker misfires on moving a just-built Value (variant
// with a string alternative) into the row vector at -O2 (PR105562 class);
// would break the -Werror build.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
QueryResult finalize_partials(const LogicalPlan& plan, GroupMap& groups) {
  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult merged(std::move(names));
  for (auto& [key, acc] : groups) {
    std::vector<Value> row = key;
    row.reserve(key.size() + plan.aggregates.size());
    for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
      const AggAcc& x = acc.aggs[a];
      switch (plan.aggregates[a].op) {
        case AggOp::kCount:
        case AggOp::kSum:
          row.push_back(Value{x.i});
          break;
        case AggOp::kMin:
        case AggOp::kMax:
          if (!x.has)
            row.push_back(Value{std::int64_t{0}});
          else if (x.is_double)
            row.push_back(Value{x.d});
          else
            row.push_back(Value{x.i});
          break;
        case AggOp::kAvg:
          row.push_back(Value{acc.rows > 0 ? static_cast<double>(x.i) /
                                                 static_cast<double>(acc.rows)
                                           : 0.0});
          break;
      }
    }
    merged.add_row(std::move(row));
  }
  return merged;
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif

/// What one shard produced in phase A (its own stats, no shared state).
struct ShardOut {
  ExecStats stats;
  QueryResult result;                 ///< Partial-merge mode.
  std::vector<std::int64_t> row_ids;  ///< Gather mode: global row ids.
  std::string error;                  ///< Re-thrown in shard order.
};

/// Folds one shard's stats into the parent: totals add up, operator
/// entries land under an "s<i>:" prefix — the per-operator byte-sum
/// invariant survives because the appended entries sum to exactly the
/// work the fold adds.
void fold_shard_stats(ExecStats& stats, const ExecStats& shard,
                      std::size_t index) {
  stats.tuples_scanned += shard.tuples_scanned;
  stats.tuples_selected += shard.tuples_selected;
  stats.join_pairs += shard.join_pairs;
  stats.work += shard.work;
  stats.packed_column_reads += shard.packed_column_reads;
  stats.dram_bytes_saved += shard.dram_bytes_saved;
  stats.cold_tier_time_s += shard.cold_tier_time_s;
  stats.cold_tier_energy_j += shard.cold_tier_energy_j;
  for (const OperatorStats& op : shard.operators) {
    OperatorStats folded = op;
    folded.name = "s" + std::to_string(index) + ":" + op.name;
    stats.operators.push_back(std::move(folded));
  }
}

}  // namespace

QueryResult run_distributed(const storage::Catalog& catalog,
                            const PhysicalPlan& phys, ExecStats& stats,
                            const ExecOptions& options) {
  const LogicalPlan& plan = phys.logical;
  const DistPlan& dist = phys.dist;
  EIDB_EXPECTS(dist.active());
  const storage::Table& table = catalog.get(plan.table);
  const storage::PartitionSet* pset = table.partition_set();
  if (pset == nullptr || pset->shard_count() != dist.shard_count)
    throw Error("distributed: partition layer of " + plan.table +
                " changed since the plan was compiled");
  const std::size_t shard_count = dist.shard_count;

  std::optional<net::Cluster> transient;
  net::Cluster* cluster = options.cluster;
  if (cluster == nullptr) {
    transient.emplace(shard_count, hw::MachineSpec::server(),
                      hw::LinkSpec::tengbe());
    cluster = &*transient;
  } else if (cluster->node_count() < shard_count) {
    throw Error("distributed: cluster has " +
                std::to_string(cluster->node_count()) + " nodes for " +
                std::to_string(shard_count) + " shards");
  }

  // Phase A: every shard computes locally — own stats, own scratch, no
  // shared mutable state. Shards are the unit of parallelism, so shard
  // operators themselves run serial (pool = nullptr); the cluster, tier
  // manager and governor belong to the coordinator phases.
  PhysicalPlan shard_phys;
  if (dist.mode == DistMode::kPartialMerge) {
    shard_phys = phys;
    shard_phys.logical = partial_logical(plan);
    shard_phys.sort = SortStrategy::kNone;
    shard_phys.sort_on_result = false;
    shard_phys.dist = {};
    shard_phys.governor = {};
  }
  ExecOptions shard_options = options;
  shard_options.pool = nullptr;
  shard_options.shard_count = 0;
  shard_options.cluster = nullptr;
  shard_options.tiers = nullptr;  // tier residency names the original table
  shard_options.governor = nullptr;

  std::vector<ShardOut> outs(shard_count);
  const auto run_shard = [&](std::size_t s) {
    ShardOut& out = outs[s];
    try {
      const storage::Table& shard = *pset->shards[s];
      std::vector<std::int64_t> key_scratch;
      ops::OpContext sctx{catalog, shard_options, out.stats, key_scratch, {}};
      if (dist.mode == DistMode::kPartialMerge) {
        out.result = ops::execute_pipeline(sctx, shard_phys, shard);
      } else {
        BitVector sel;
        {
          ops::OperatorScope scope(out.stats,
                                   "scan+filter(" + shard.name() + ")");
          sel = ops::evaluate_predicates(sctx, shard, plan.predicates);
          if (plan.predicates.empty())
            out.stats.tuples_scanned += shard.row_count();
          out.stats.tuples_selected = sel.count();
        }
        const std::vector<std::uint32_t>& rows = pset->shard_rows[s];
        for (std::size_t i = 0; i < sel.size(); ++i)
          if (sel.test(i))
            out.row_ids.push_back(static_cast<std::int64_t>(rows[i]));
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  };
  // One task per shard on the pool; without one, the shards run in turn.
  exec::Chunks{options.pool, shard_count, 1}.run(
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) run_shard(s);
      });
  for (std::size_t s = 0; s < shard_count; ++s)
    if (!outs[s].error.empty()) throw Error(outs[s].error);

  stats.shards_executed = shard_count;
  for (std::size_t s = 0; s < shard_count; ++s)
    fold_shard_stats(stats, outs[s].stats, s);

  // Phases B/C run at the coordinator on the parent stats; exchanges are
  // replayed in shard order so the wire accounting is deterministic.
  std::vector<std::int64_t> key_scratch;
  ops::OpContext ctx{catalog, options, stats, key_scratch, {}};

  if (dist.mode == DistMode::kPartialMerge) {
    std::vector<net::WireTable> partials;
    partials.reserve(shard_count);
    partials.push_back(result_to_wire(outs[0].result));  // coordinator-local
    {
      ops::OperatorScope scope(stats, "exchange");
      for (const DistJoinExchange& ex : dist.joins)
        ops::charge_join_exchange(ctx, *cluster, ex, shard_count);
      for (std::size_t s = 1; s < shard_count; ++s)
        partials.push_back(ops::exchange_to_coordinator(
            ctx, *cluster, s, result_to_wire(outs[s].result)));
    }
    QueryResult merged;
    {
      ops::OperatorScope scope(stats, "merge-partials");
      GroupMap groups;
      double values = 0;
      for (const net::WireTable& t : partials) {
        merge_partials(plan, t, groups);
        values += static_cast<double>(t.row_count()) *
                  static_cast<double>(t.columns.size());
      }
      stats.work.cpu_cycles += values * ops::kAggCyclesPerTuple;
      merged = finalize_partials(plan, groups);
      if (plan.has_group_by()) stats.groups = merged.row_count();
    }
    if (phys.sort_on_result && plan.order_by.has_value()) {
      ops::OperatorScope scope(
          stats,
          (phys.sort == SortStrategy::kTopK ? "top-k(" : "sort(") +
              plan.order_by->column + ")");
      ops::sort_result_rows(ctx, merged, *plan.order_by, plan.limit);
    } else if (plan.limit != 0 && merged.row_count() > plan.limit) {
      QueryResult trimmed(merged.column_names());
      for (std::size_t i = 0; i < plan.limit; ++i)
        trimmed.add_row(merged.row(i));
      merged = std::move(trimmed);
    }
    return merged;
  }

  // Gather mode: OR the shipped row ids into a selection over the
  // original table, then run the unchanged single-node pipeline with that
  // selection preset — bit-identical by construction.
  BitVector preset(table.row_count());
  {
    ops::OperatorScope scope(stats, "exchange");
    for (const std::int64_t id : outs[0].row_ids)
      preset.set(static_cast<std::size_t>(id));
    for (std::size_t s = 1; s < shard_count; ++s) {
      net::WireTable ids;
      ids.columns.push_back(net::WireColumn::of_int64(outs[s].row_ids));
      const net::WireTable t =
          ops::exchange_to_coordinator(ctx, *cluster, s, ids);
      if (t.columns.size() != 1 ||
          t.columns[0].kind != net::WireColumn::Kind::kInt64)
        throw Error("distributed: malformed row-id payload");
      for (const std::int64_t id : t.columns[0].i64)
        preset.set(static_cast<std::size_t>(id));
    }
  }
  return ops::execute_pipeline(ctx, phys, table, &preset);
}

}  // namespace eidb::query
