#include "query/physical_plan.hpp"

#include <algorithm>
#include <sstream>

#include "opt/join_order.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query {

using storage::Column;
using storage::Table;
using storage::TypeId;

namespace {

/// Estimated selected-row count of `table` under `preds` (cached-stats
/// selectivities, conjuncts independent).
double estimate_selected_rows(const Table& table,
                              const std::vector<Predicate>& preds) {
  double rows = static_cast<double>(table.row_count());
  for (const Predicate& p : preds)
    rows *= ops::estimate_predicate_selectivity(table.column(p.column), p);
  return rows;
}

/// Probe-key provenance of one declared join: the FROM table (-1) or an
/// earlier declared join (its declaration index), plus the bare column
/// name on that table.
struct SourceRef {
  int source_decl = -1;
  std::string column;
};

SourceRef resolve_source(const LogicalPlan& plan, const Table& probe,
                         const std::vector<const Table*>& build_tables,
                         std::size_t j) {
  const std::string& key = plan.joins[j].left_key;
  const auto dot = key.find('.');
  if (dot != std::string::npos) {
    const std::string tbl = key.substr(0, dot);
    const std::string col = key.substr(dot + 1);
    if (tbl == probe.name()) return {-1, col};
    for (std::size_t i = 0; i < plan.joins.size(); ++i)
      if (i != j && plan.joins[i].table == tbl)
        return {static_cast<int>(i), col};
    throw Error("join key references unknown table: " + key);
  }
  // Unqualified: the FROM table binds first (an unqualified left key
  // names the probe side by convention). A key the probe side lacks falls
  // through to the snowflake case — some earlier/other build table owns
  // it — and there more than one owner is a hard error: silently picking
  // the first declaration binds the join to the wrong column.
  if (probe.schema().has_column(key)) return {-1, key};
  std::vector<std::string> candidates;
  SourceRef found{-1, key};
  for (std::size_t i = 0; i < plan.joins.size(); ++i) {
    if (i == j || !build_tables[i]->schema().has_column(key)) continue;
    if (candidates.empty()) found = {static_cast<int>(i), key};
    candidates.push_back(build_tables[i]->name());
  }
  if (candidates.empty()) throw Error("unknown join key column: " + key);
  if (candidates.size() > 1) {
    std::string msg = "ambiguous join key column \"" + key +
                      "\" (qualify it): candidates are";
    for (const std::string& t : candidates) msg += " " + t;
    throw Error(msg);
  }
  return found;
}

/// Key class of one join-key column pair. Integer keys compare raw
/// values; string and double keys compare dictionary codes (the build
/// side remapped into the source side's code domain), so both columns
/// must carry the same key class — and double keys need the ordered
/// double dictionary built at load (absent only when the column holds
/// NaN, which has no ordered code domain).
JoinKeyType classify_join_keys(const Column& source, const Column& build) {
  const auto cls = [](const Column& c) {
    switch (c.type()) {
      case TypeId::kString:
        return JoinKeyType::kString;
      case TypeId::kDouble:
        return JoinKeyType::kDouble;
      default:
        return JoinKeyType::kInt;
    }
  };
  const JoinKeyType s = cls(source), b = cls(build);
  if (s != b)
    throw Error("join key type mismatch: " + source.name() + " (" +
                storage::type_name(source.type()) + ") vs " + build.name() +
                " (" + storage::type_name(build.type()) + ")");
  if (s == JoinKeyType::kDouble) {
    for (const Column* c : {&source, &build})
      if (!c->has_double_dictionary())
        throw Error("double join key has no ordered dictionary (NaN "
                    "values): " +
                    c->name());
  }
  return s;
}

/// Linearizes a join-order plan into a left-deep table sequence: DP plans
/// carry one directly; greedy bushy plans replay the merge sequence,
/// concatenating each absorbed component's ordered table list.
std::vector<int> linearize(const opt::JoinOrderPlan& jp, int tables) {
  if (!jp.order.empty()) return jp.order;
  std::vector<int> parent(static_cast<std::size_t>(tables));
  std::vector<std::vector<int>> lists(static_cast<std::size_t>(tables));
  for (int t = 0; t < tables; ++t) {
    parent[static_cast<std::size_t>(t)] = t;
    lists[static_cast<std::size_t>(t)] = {t};
  }
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x)
      x = parent[static_cast<std::size_t>(x)];
    return x;
  };
  for (const auto& [a, b] : jp.merges) {
    const int ra = find(a), rb = find(b);
    if (ra == rb) continue;
    auto& la = lists[static_cast<std::size_t>(ra)];
    auto& lb = lists[static_cast<std::size_t>(rb)];
    la.insert(la.end(), lb.begin(), lb.end());
    lb.clear();
    parent[static_cast<std::size_t>(rb)] = ra;
  }
  return lists[static_cast<std::size_t>(find(0))];
}

/// Resolves a (possibly "table."-qualified) aggregate/group column against
/// the FROM table and every joined build table. nullptr when absent or
/// ambiguous — the caller treats that as "not provably decomposable" and
/// falls back to the gather mode, which is correct for every shape.
const Column* find_plan_column(const storage::Catalog& catalog,
                               const LogicalPlan& plan,
                               const std::string& name) {
  std::string tbl, col = name;
  const auto dot = name.find('.');
  if (dot != std::string::npos) {
    tbl = name.substr(0, dot);
    col = name.substr(dot + 1);
  }
  const Table& probe = catalog.get(plan.table);
  if (tbl.empty() || tbl == probe.name())
    if (probe.schema().has_column(col)) return &probe.column(col);
  const Column* found = nullptr;
  for (const JoinSpec& j : plan.joins) {
    if (!tbl.empty() && tbl != j.table) continue;
    const Table& build = catalog.get(j.table);
    if (!build.schema().has_column(col)) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = &build.column(col);
  }
  return found;
}

/// True when every aggregate of `plan` merges bit-exactly from per-shard
/// partials: COUNT always; SUM/MIN/MAX/AVG over integer columns (int
/// addition is associative; AVG rewrites to SUM+COUNT); MIN/MAX over
/// double columns (no rounding). Excluded: double SUM/AVG (floating-point
/// addition is not associative — per-shard partial sums would not be
/// bit-identical to the single-node left-to-right sum), expression
/// aggregates (double-valued), and string-typed inputs (shard
/// dictionaries renumber the codes the kernels aggregate).
bool partial_merge_eligible(const storage::Catalog& catalog,
                            const LogicalPlan& plan) {
  if (!plan.is_aggregate()) return false;
  for (const AggSpec& a : plan.aggregates) {
    if (a.op == AggOp::kCount) continue;
    if (a.expr != nullptr) return false;
    const Column* c = find_plan_column(catalog, plan, a.column);
    if (c == nullptr) return false;
    switch (c->type()) {
      case TypeId::kInt32:
      case TypeId::kInt64:
        break;
      case TypeId::kDouble:
        if (a.op != AggOp::kMin && a.op != AggOp::kMax) return false;
        break;
      case TypeId::kString:
        return false;
    }
  }
  return true;
}

/// The partition-aware half of compilation: validates the FROM table's
/// partition layer against the requested shard count, picks the merge
/// mode, and prices each join step's dimension exchange (broadcast vs
/// repartition) plus the result exchange via the cost model's
/// network-byte arm.
void plan_distribution(const storage::Catalog& catalog, PhysicalPlan& phys,
                       const ExecOptions& options, const opt::CostModel& cm) {
  if (options.shard_count == 0) return;
  const LogicalPlan& plan = phys.logical;
  const Table& probe = catalog.get(plan.table);
  const storage::PartitionSet* pset = probe.partition_set();
  if (pset == nullptr)
    throw Error("sharded execution requires a partition layer on " +
                plan.table + " (Table::build_partitions)");
  if (pset->shard_count() != options.shard_count)
    throw Error("shard_count mismatch for " + plan.table + ": options say " +
                std::to_string(options.shard_count) + ", table has " +
                std::to_string(pset->shard_count()));

  DistPlan dist;
  dist.shard_count = options.shard_count;
  dist.partition_key = pset->key_column;
  dist.mode = partial_merge_eligible(catalog, plan) ? DistMode::kPartialMerge
                                                    : DistMode::kGather;
  double in_rows = phys.est_probe_rows;
  for (const PhysicalJoinStep& step : phys.joins) {
    // Dimension exchanges exist only in partial-merge mode: the gather
    // mode joins at the coordinator after the row-id exchange, so its
    // only wire cost is the result gather priced below.
    if (dist.mode == DistMode::kPartialMerge) {
      const double bcast =
          cm.broadcast_wire_bytes(step.est_build_rows, dist.shard_count);
      const double repart = cm.repartition_wire_bytes(
          step.est_build_rows, in_rows, dist.shard_count);
      DistJoinExchange ex;
      ex.strategy = bcast <= repart ? ExchangeStrategy::kBroadcast
                                    : ExchangeStrategy::kRepartition;
      ex.est_bytes = std::min(bcast, repart);
      dist.joins.push_back(ex);
    }
    in_rows = step.est_rows_out;
  }
  if (dist.mode == DistMode::kGather) {
    // Shards ship their selected FROM-table row ids (pre-join).
    dist.est_result_bytes =
        cm.gather_wire_bytes(phys.est_probe_rows, 8.0, dist.shard_count);
  } else {
    // Shards ship partial group rows: group values + leading count +
    // one partial per aggregate, 8 bytes each. Group count estimated
    // from the key columns' distinct statistics, capped by the rows
    // flowing into the aggregation.
    double groups = 1;
    for (const std::string& g : plan.group_by) {
      const Column* c = find_plan_column(catalog, plan, g);
      if (c != nullptr)
        groups *= std::max<double>(
            1.0, static_cast<double>(c->stats().distinct));
    }
    groups = std::min(groups, std::max(1.0, in_rows));
    const double row_bytes = 8.0 * static_cast<double>(plan.group_by.size() +
                                                       1 +
                                                       plan.aggregates.size());
    dist.est_result_bytes =
        cm.gather_wire_bytes(groups, row_bytes, dist.shard_count);
  }
  phys.dist = std::move(dist);
}

/// Estimated fraction of probe rows whose key some selected build row
/// carries (what a semi-join filter on the step keeps). Integer keys: the
/// share of distinct build keys the build predicates keep, times the
/// share of the probe key range the build key range covers. Code keys:
/// the share of build rows kept, times the share of the probe dictionary
/// the build dictionary also holds — counted with the same linear merge
/// the execution's remap runs.
double estimate_filter_selectivity(const Column& source, const Column& build,
                                   JoinKeyType type, double est_build) {
  if (source.empty() || build.empty()) return 0;
  if (type == JoinKeyType::kInt) {
    const storage::ColumnStats& bs = build.stats();
    const double kept = std::min(
        1.0, est_build / std::max(1.0, static_cast<double>(bs.distinct)));
    return kept * source.stats().range_selectivity(bs.min, bs.max);
  }
  const bool str = type == JoinKeyType::kString;
  const std::vector<std::int32_t> remap =
      str ? build.dictionary().remap_to(source.dictionary())
          : build.double_dictionary().remap_to(source.double_dictionary());
  const auto held = static_cast<double>(
      std::count_if(remap.begin(), remap.end(),
                    [](std::int32_t code) { return code >= 0; }));
  const double source_codes =
      str ? static_cast<double>(source.dictionary().size())
          : static_cast<double>(source.double_dictionary().size());
  if (source_codes == 0) return 0;
  return std::min(1.0, est_build / static_cast<double>(build.size())) *
         std::min(1.0, held / source_codes);
}

/// Column binding, liveness and join roles. Binds every name the plan's
/// operators read (PhysicalPlan::bindings) and records, per executed side,
/// whether group keys read it and whether anything else does — aggregate
/// inputs, projections, a projection's sort key, snowflake probe keys —
/// then gives each step its JoinRole. A name that binds nowhere leaves
/// every step in the chain, where execution reports it.
void assign_join_roles(const storage::Catalog& catalog, PhysicalPlan& phys) {
  const LogicalPlan& plan = phys.logical;
  const Table& probe = catalog.get(plan.table);
  const std::size_t n = phys.joins.size();
  std::vector<const Table*> sides{&probe};  // side s + 1 = step s
  for (const PhysicalJoinStep& step : phys.joins)
    sides.push_back(&catalog.get(plan.joins[step.logical_index].table));
  const auto bind = [&](const std::string& name) -> const ColumnBinding* {
    const auto dot = name.find('.');
    for (std::size_t side = 0; side <= n; ++side) {
      const Table& t = *sides[side];
      if (dot == std::string::npos) {
        if (t.schema().has_column(name))
          return &(phys.bindings[name] = {side, name});
      } else if (t.name() == name.substr(0, dot)) {
        const std::string column = name.substr(dot + 1);
        if (!t.schema().has_column(column)) return nullptr;
        return &(phys.bindings[name] = {side, column});
      }
    }
    return nullptr;
  };
  struct SideReads {
    bool group = false;  ///< A GROUP BY key reads the side.
    bool other = false;  ///< Any other consumer reads it.
  };
  std::vector<SideReads> reads(n + 1);
  bool resolved = true;
  const auto read = [&](const std::string& name, bool group) {
    const ColumnBinding* b = bind(name);
    if (b == nullptr) {
      resolved = false;
      return;
    }
    SideReads& r = reads[b->side];
    (group ? r.group : r.other) = true;
  };
  if (plan.is_aggregate()) {
    for (const AggSpec& a : plan.aggregates)
      if (a.op != AggOp::kCount) read(a.column, false);
    for (const std::string& g : plan.group_by) read(g, true);
  } else {
    for (const std::string& p : plan.projection) read(p, false);
    if (plan.order_by.has_value()) read(plan.order_by->column, false);
  }
  for (const PhysicalJoinStep& step : phys.joins)
    reads[step.source_side].other = true;
  if (!resolved) return;

  std::vector<JoinRole> roles(n, JoinRole::kChain);
  for (std::size_t s = 0; s < n; ++s) {
    const PhysicalJoinStep& step = phys.joins[s];
    const SideReads& r = reads[s + 1];
    if (step.arm == opt::JoinArm::kDenseJoin && step.source_side == 0 &&
        !r.other)
      roles[s] = r.group ? JoinRole::kGather : JoinRole::kFilter;
  }
  settle_join_roles(roles);
  for (std::size_t s = 0; s < n; ++s) phys.joins[s].role = roles[s];
}

/// The semi-join filter arm. Candidates are the dense steps probed from
/// the FROM table (their key domain bounds the bitmap), taken most
/// selective first, which is also the pass order. Filter and gather steps
/// always run their pass; a chain step's pass is priced against the chain
/// as the passes before it leave it.
void plan_join_filters(const storage::Catalog& catalog, PhysicalPlan& phys,
                       const ExecOptions& options, const opt::CostModel& cm) {
  const Table& probe = catalog.get(phys.logical.table);
  for (std::size_t s = 0; s < phys.joins.size(); ++s) {
    PhysicalJoinStep& step = phys.joins[s];
    if (step.arm != opt::JoinArm::kDenseJoin || step.source_side != 0)
      continue;
    const JoinSpec& spec = phys.logical.joins[step.logical_index];
    step.filter_selectivity = estimate_filter_selectivity(
        probe.column(step.source_key),
        catalog.get(spec.table).column(spec.right_key), step.key_type,
        step.est_build_rows);
    phys.filter_order.push_back(s);
  }
  std::stable_sort(phys.filter_order.begin(), phys.filter_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return phys.joins[a].filter_selectivity <
                            phys.joins[b].filter_selectivity;
                   });
  double tested = std::max(0.0, phys.est_probe_rows);
  for (const std::size_t s : phys.filter_order) {
    PhysicalJoinStep& step = phys.joins[s];
    const Column& key = probe.column(step.source_key);
    const unsigned packed_bits =
        ops::use_packed(key, options) ? key.encoded()->bits : 0;
    const double build = std::max(0.0, step.est_build_rows);
    const double key_bytes = key.type() == TypeId::kInt64 ? 8.0 : 4.0;
    if (step.role != JoinRole::kChain) {
      step.join_filter = {
          true, cm.join_filter_pass_work(build, tested, packed_bits, key_bytes),
          {}};
    } else {
      const std::vector<double> rows_in = phys.chain_probe_rows();
      double chain_probes = 0;
      for (std::size_t t = 0; t <= s; ++t) chain_probes += rows_in[t];
      step.join_filter =
          cm.pick_join_filter(build, tested, chain_probes,
                              step.filter_selectivity, packed_bits, key_bytes);
    }
    if (step.join_filter.filter) tested *= step.filter_selectivity;
  }
}

}  // namespace

bool PhysicalPlan::chainless() const {
  return !joins.empty() &&
         std::none_of(joins.begin(), joins.end(),
                      [](const PhysicalJoinStep& step) {
                        return step.role == JoinRole::kChain;
                      });
}

std::vector<double> PhysicalPlan::chain_probe_rows() const {
  std::vector<double> rows(joins.size());
  double in = std::max(0.0, est_probe_rows);
  for (std::size_t t = 0; t < joins.size(); ++t) {
    double kept = in;
    for (std::size_t f = t; f < joins.size(); ++f)
      if (joins[f].join_filter.filter) kept *= joins[f].filter_selectivity;
    rows[t] = joins[t].role == JoinRole::kChain ? kept : 0;
    in = std::max(0.0, joins[t].est_rows_out);
  }
  return rows;
}

double PhysicalPlan::filtered_rows() const {
  double rows = std::max(0.0, est_probe_rows);
  for (const PhysicalJoinStep& step : joins)
    if (step.join_filter.filter) rows *= step.filter_selectivity;
  return rows;
}

std::string dist_mode_name(DistMode m) {
  switch (m) {
    case DistMode::kNone:
      return "single-node";
    case DistMode::kPartialMerge:
      return "partial-merge";
    case DistMode::kGather:
      return "gather";
  }
  return "?";
}

std::string exchange_strategy_name(ExchangeStrategy s) {
  switch (s) {
    case ExchangeStrategy::kBroadcast:
      return "broadcast";
    case ExchangeStrategy::kRepartition:
      return "repartition";
  }
  return "?";
}

std::string join_role_name(JoinRole r) {
  switch (r) {
    case JoinRole::kChain:
      return "chain";
    case JoinRole::kFilter:
      return "filter";
    case JoinRole::kGather:
      return "gather";
  }
  return "?";
}

bool settle_join_roles(std::vector<JoinRole>& roles) {
  const bool chain_left =
      std::find(roles.begin(), roles.end(), JoinRole::kChain) != roles.end();
  if (chain_left)
    for (JoinRole& role : roles)
      if (role == JoinRole::kGather) role = JoinRole::kChain;
  return chain_left;
}

std::string join_key_type_name(JoinKeyType t) {
  switch (t) {
    case JoinKeyType::kInt:
      return "int";
    case JoinKeyType::kString:
      return "string";
    case JoinKeyType::kDouble:
      return "double";
  }
  return "?";
}

PhysicalPlan compile_plan(const storage::Catalog& catalog,
                          const LogicalPlan& plan,
                          const ExecOptions& options) {
  validate_join_plan(plan);
  PhysicalPlan phys;
  phys.logical = plan;

  const Table& probe = catalog.get(plan.table);
  phys.est_probe_rows = estimate_selected_rows(probe, plan.predicates);

  if (plan.order_by.has_value()) {
    phys.sort = plan.limit != 0 ? SortStrategy::kTopK : SortStrategy::kFullSort;
    phys.sort_on_result = plan.is_aggregate();
  }

  static const opt::CostModel default_model = opt::CostModel::defaults();
  const opt::CostModel& cm =
      options.cost_model != nullptr ? *options.cost_model : default_model;

  const std::size_t k = plan.joins.size();
  if (k == 0) {
    plan_distribution(catalog, phys, options, cm);
    apply_plan_governor(catalog, phys, options);
    return phys;
  }

  // ---- Resolve every declared join: build table, key columns (typed),
  // probe-key provenance, and cardinality estimates. ----
  std::vector<const Table*> build_tables(k);
  for (std::size_t j = 0; j < k; ++j) {
    // Without aliases, a table joined twice makes every qualified
    // reference ambiguous — reject rather than silently bind to the
    // first instance.
    if (plan.joins[j].table == plan.table)
      throw Error("self-joins are not supported: " + plan.table);
    for (std::size_t i = 0; i < j; ++i)
      if (plan.joins[i].table == plan.joins[j].table)
        throw Error("table joined twice (aliases are not supported): " +
                    plan.joins[j].table);
    build_tables[j] = &catalog.get(plan.joins[j].table);
  }
  std::vector<SourceRef> sources(k);
  std::vector<double> est_build(k);
  std::vector<double> fanout(k);  // predicted matches per probe tuple
  std::vector<JoinKeyType> key_types(k, JoinKeyType::kInt);
  // Probe-side code-domain size per join (string/double keys): the dense
  // arm's direct-address domain is [-1, dict_size) — the -1 slot absorbs
  // build codes the probe dictionary lacks.
  std::vector<std::uint64_t> code_domain(k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const JoinSpec& spec = plan.joins[j];
    sources[j] = resolve_source(plan, probe, build_tables, j);
    const Table& src_tbl = sources[j].source_decl < 0
                               ? probe
                               : *build_tables[static_cast<std::size_t>(
                                     sources[j].source_decl)];
    const Column& left = src_tbl.column(sources[j].column);
    const Column& right = build_tables[j]->column(spec.right_key);
    key_types[j] = classify_join_keys(left, right);
    if (key_types[j] == JoinKeyType::kString)
      code_domain[j] =
          static_cast<std::uint64_t>(left.dictionary().size()) + 1;
    else if (key_types[j] == JoinKeyType::kDouble)
      code_domain[j] =
          static_cast<std::uint64_t>(left.double_dictionary().size()) + 1;
    est_build[j] = estimate_selected_rows(*build_tables[j], spec.predicates);
    const double distinct =
        std::max<double>(1.0, static_cast<double>(right.stats().distinct));
    fanout[j] = est_build[j] / distinct;
  }

  // ---- Join ordering: opt::join_order over the statistics-derived
  // JoinGraph (node 0 = the FROM table; node j+1 = join j's build side;
  // one edge per equi-join predicate with selectivity 1/distinct(key)).
  // DP below its feasibility bound, greedy operator ordering above it —
  // the E9 policy, now live inside the planner. ----
  std::vector<std::size_t> exec_order(k);
  if (k == 1) {
    exec_order[0] = 0;
  } else {
    opt::JoinGraph graph;
    graph.table_rows.push_back(std::max(1.0, phys.est_probe_rows));
    for (std::size_t j = 0; j < k; ++j)
      graph.table_rows.push_back(std::max(1.0, est_build[j]));
    for (std::size_t j = 0; j < k; ++j) {
      const Column& right =
          build_tables[j]->column(plan.joins[j].right_key);
      const double distinct =
          std::max<double>(1.0, static_cast<double>(right.stats().distinct));
      graph.edges.push_back({sources[j].source_decl + 1,
                             static_cast<int>(j) + 1, 1.0 / distinct});
    }
    const opt::JoinOrderPlan ordered =
        graph.table_count() <= 12 ? opt::optimize_dp(graph)
                                  : opt::optimize_greedy(graph);
    phys.join_order_algorithm = ordered.algorithm;
    phys.join_order_cost = ordered.cost;
    const std::vector<int> seq = linearize(ordered, graph.table_count());
    exec_order.clear();
    for (const int node : seq)
      if (node != 0) exec_order.push_back(static_cast<std::size_t>(node - 1));
    EIDB_ASSERT(exec_order.size() == k);
    // Topological fix-up: a snowflake step cannot run before the join
    // that produces its probe-key side. Stable insertion keeps the cost
    // order otherwise.
    std::vector<std::size_t> fixed;
    std::vector<bool> placed(k, false);
    while (fixed.size() < k) {
      bool progressed = false;
      for (const std::size_t j : exec_order) {
        if (placed[j]) continue;
        const int src = sources[j].source_decl;
        if (src >= 0 && !placed[static_cast<std::size_t>(src)]) continue;
        placed[j] = true;
        fixed.push_back(j);
        progressed = true;
      }
      if (!progressed)
        throw Error("cyclic join key references");  // a ON b.x, b ON a.y
    }
    exec_order = std::move(fixed);
  }

  // ---- Per-step physical arm (opt::CostModel) and cardinality chain. ----
  // Declaration index -> executed side (1-based; 0 is the probe table).
  std::vector<std::size_t> side_of(k, 0);
  for (std::size_t pos = 0; pos < k; ++pos)
    side_of[exec_order[pos]] = pos + 1;

  double est = phys.est_probe_rows;
  for (std::size_t pos = 0; pos < k; ++pos) {
    const std::size_t j = exec_order[pos];
    const Column& right = build_tables[j]->column(plan.joins[j].right_key);
    const storage::ColumnStats& ks = right.stats();
    PhysicalJoinStep step;
    step.logical_index = j;
    step.source_side = sources[j].source_decl < 0
                           ? 0
                           : side_of[static_cast<std::size_t>(
                                 sources[j].source_decl)];
    step.source_key = sources[j].column;
    step.est_build_rows = est_build[j];
    est *= fanout[j];
    step.est_rows_out = est;
    step.key_type = key_types[j];
    const bool code_key = step.key_type != JoinKeyType::kInt;
    if (code_key) {
      step.remap_entries =
          step.key_type == JoinKeyType::kString
              ? static_cast<std::size_t>(right.dictionary().size())
              : static_cast<std::size_t>(right.double_dictionary().size());
    }
    // Code-domain keys probe int32 codes in [-1, source dict size); the
    // build column's raw stats describe *its own* code domain and do not
    // apply after the remap.
    const std::uint64_t key_domain =
        code_key ? code_domain[j] : static_cast<std::uint64_t>(ks.domain());
    const unsigned key_width =
        code_key || right.type() != TypeId::kInt64 ? 4 : 8;
    step.arm = cm.pick_join_arm(
        static_cast<std::uint64_t>(std::max(0.0, est_build[j])), ks.distinct,
        key_domain, key_width);
    // The radix arm re-partitions a *selection*; only the first executed
    // step probes one, and only the aggregation sink consumes partition
    // order. Everywhere else it degrades to the cache-resident hash arm.
    if (step.arm == opt::JoinArm::kRadixJoin &&
        (pos != 0 || !plan.is_aggregate()))
      step.arm = opt::JoinArm::kHashJoin;
    phys.joins.push_back(std::move(step));
  }
  assign_join_roles(catalog, phys);
  plan_join_filters(catalog, phys, options, cm);
  plan_distribution(catalog, phys, options, cm);
  apply_plan_governor(catalog, phys, options);
  return phys;
}

std::string PhysicalPlan::explain() const {
  std::ostringstream os;
  os << "physical plan:\n";
  const auto fmt_rows = [](double rows) {
    std::ostringstream s;
    s << static_cast<std::uint64_t>(std::max(0.0, rows));
    return s.str();
  };
  if (logical.limit != 0) os << "  limit(" << logical.limit << ")\n";
  if (logical.order_by.has_value()) {
    os << "  " << (sort == SortStrategy::kTopK ? "top-k" : "sort") << "("
       << logical.order_by->column
       << (logical.order_by->ascending ? " asc" : " desc");
    if (sort == SortStrategy::kTopK) os << ", k=" << logical.limit;
    os << (sort_on_result ? ", over result rows" : ", over row ids") << ")\n";
  }
  if (logical.is_aggregate()) {
    os << "  aggregate(";
    if (logical.has_group_by()) {
      os << "group_by=[";
      for (std::size_t i = 0; i < logical.group_by.size(); ++i)
        os << (i ? "," : "") << logical.group_by[i];
      os << "], ";
    }
    os << "aggs=[";
    for (std::size_t i = 0; i < logical.aggregates.size(); ++i)
      os << (i ? "," : "") << agg_column_name(logical.aggregates[i]);
    os << "])\n";
  } else {
    os << "  project(";
    if (logical.projection.empty()) {
      os << "*";
    } else {
      for (std::size_t i = 0; i < logical.projection.size(); ++i)
        os << (i ? "," : "") << logical.projection[i];
    }
    os << ")\n";
  }
  for (auto it = joins.rbegin(); it != joins.rend(); ++it) {
    const JoinSpec& spec = logical.joins[it->logical_index];
    os << "  join[" << opt::join_arm_name(it->arm) << "](" << spec.table
       << " ON " << it->source_key << " = " << spec.right_key
       << ", probe side " << it->source_side
       << ", est_build=" << fmt_rows(it->est_build_rows)
       << ", est_out=" << fmt_rows(it->est_rows_out);
    if (it->key_type != JoinKeyType::kInt)
      os << ", key=" << join_key_type_name(it->key_type) << " codes, remap="
         << it->remap_entries << " entries";
    os << ", role=" << join_role_name(it->role) << ")\n";
  }
  os << "  scan+filter(" << logical.table << ", preds="
     << logical.predicates.size() << ", est_rows=" << fmt_rows(est_probe_rows)
     << ")\n";
  for (const std::size_t s : filter_order) {
    const PhysicalJoinStep& step = joins[s];
    os << "join-filter: " << logical.joins[step.logical_index].table << " ON "
       << step.source_key << ", est_sel=" << step.filter_selectivity
       << ", pass_cycles=" << fmt_rows(step.join_filter.pass.cpu_cycles);
    if (step.role != JoinRole::kChain)
      os << ", forced\n";  // the pass is the step
    else
      os << ", saved_probe_cycles="
         << fmt_rows(step.join_filter.probes.cpu_cycles) << ", "
         << (step.join_filter.filter ? "filter" : "declined") << "\n";
  }
  if (dist.active()) {
    os << "shards: " << dist.shard_count << " x " << logical.table
       << " (hash key " << dist.partition_key << ", mode "
       << dist_mode_name(dist.mode) << ")\n";
    for (std::size_t i = 0; i < dist.joins.size(); ++i)
      os << "exchange: join "
         << logical.joins[joins[i].logical_index].table << " "
         << exchange_strategy_name(dist.joins[i].strategy)
         << ", est_bytes=" << fmt_rows(dist.joins[i].est_bytes) << "\n";
    os << "exchange: result gather-to-coordinator, est_bytes="
       << fmt_rows(dist.est_result_bytes) << "\n";
  }
  if (!join_order_algorithm.empty())
    os << "join order: " << join_order_algorithm
       << " (C_out=" << join_order_cost << ")\n";
  if (governor.enabled)
    os << "governor: " << governor.cores << " cores x "
       << governor.state.freq_ghz << " GHz (" << governor.policy
       << ", est_busy=" << governor.est_busy_s
       << "s, est_energy=" << governor.est_energy_j << "J)\n";
  if (shared.members > 1)
    os << "shared: group=" << shared.group << " members=" << shared.members
       << "\n";
  return os.str();
}

}  // namespace eidb::query
