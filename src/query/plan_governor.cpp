#include "query/plan_governor.hpp"

#include <algorithm>
#include <cmath>

#include "opt/cost_model.hpp"
#include "query/ops/op_context.hpp"
#include "query/ops/scan_filter.hpp"
#include "query/physical_plan.hpp"
#include "sched/governor.hpp"
#include "sched/thread_pool.hpp"
#include "storage/table.hpp"

namespace eidb::query {

using storage::Column;
using storage::Table;

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::size_t kind_index(OperatorKind kind) {
  return static_cast<std::size_t>(kind);
}

}  // namespace

OperatorKind classify_operator(std::string_view name) {
  if (starts_with(name, "scan+filter")) return OperatorKind::kScan;
  if (starts_with(name, "hash-join") || starts_with(name, "radix-join") ||
      starts_with(name, "dense-join") || starts_with(name, "join"))
    return OperatorKind::kJoin;
  if (starts_with(name, "aggregate") || starts_with(name, "group-aggregate"))
    return OperatorKind::kAggregate;
  if (starts_with(name, "top-k") || starts_with(name, "sort"))
    return OperatorKind::kSort;
  if (starts_with(name, "materialize")) return OperatorKind::kMaterialize;
  return OperatorKind::kOther;
}

std::string_view operator_kind_name(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kScan: return "scan";
    case OperatorKind::kJoin: return "join";
    case OperatorKind::kAggregate: return "aggregate";
    case OperatorKind::kSort: return "sort";
    case OperatorKind::kMaterialize: return "materialize";
    case OperatorKind::kOther: break;
  }
  return "other";
}

double OperatorCalibration::factor(OperatorKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return factors_[kind_index(kind)];
}

void OperatorCalibration::observe(OperatorKind kind, double predicted_s,
                                  double measured_s) {
  if (!(predicted_s > 0) || !(measured_s > 0)) return;
  const double ratio = std::clamp(measured_s / predicted_s, 0.05, 20.0);
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = kind_index(kind);
  if (!seen_[i]) {
    factors_[i] = ratio;
    seen_[i] = true;
  } else {
    factors_[i] = (1.0 - alpha_) * factors_[i] + alpha_ * ratio;
  }
}

void OperatorCalibration::observe_operators(
    const std::vector<OperatorStats>& operators,
    const hw::MachineSpec& machine, const hw::DvfsState& state) {
  for (const OperatorStats& op : operators)
    observe(classify_operator(op.name), machine.exec_time_s(op.work, state),
            op.seconds);
}

namespace {

/// Predicted scan work of `table` under `preds` (one kernel pass per
/// conjunct, variant picked by the cost model).
hw::Work estimate_scan_work(const opt::CostModel& cm, const Table& table,
                            const std::vector<Predicate>& preds) {
  hw::Work work;
  const std::uint64_t rows = table.row_count();
  if (rows == 0) return work;
  for (const Predicate& p : preds) {
    const Column& col = table.column(p.column);
    const double sel = ops::estimate_predicate_selectivity(col, p);
    const exec::ScanVariant v = cm.pick_scan_variant(sel);
    const double bytes_per_tuple =
        static_cast<double>(col.byte_size()) / static_cast<double>(rows);
    work += cm.scan_work(v, rows, sel, bytes_per_tuple);
  }
  return work;
}

double calibrated(const ExecOptions& options, OperatorKind kind) {
  return options.calibration != nullptr ? options.calibration->factor(kind)
                                        : 1.0;
}

}  // namespace

hw::Work estimate_plan_work(const storage::Catalog& catalog,
                            const PhysicalPlan& phys,
                            const ExecOptions& options) {
  static const opt::CostModel default_model = opt::CostModel::defaults();
  const opt::CostModel& cm =
      options.cost_model != nullptr ? *options.cost_model : default_model;
  const LogicalPlan& plan = phys.logical;
  const Table& probe = catalog.get(plan.table);

  // Scans: the FROM table's conjuncts plus every build side's.
  hw::Work scan = estimate_scan_work(cm, probe, plan.predicates);
  for (const JoinSpec& spec : plan.joins)
    scan += estimate_scan_work(cm, catalog.get(spec.table), spec.predicates);

  // Joins: every filtered step's bitmap pass; the chain steps' builds and
  // probes along the compiled cardinality chain — probe rows into step i
  // are the previous step's predicted matches, shortened by the passes —
  // and each gather step's lookup build. A chainless plan's sink reads the
  // rows every pass keeps.
  hw::Work join;
  const std::vector<double> probe_rows = phys.chain_probe_rows();
  double rows_out = std::max(0.0, phys.est_probe_rows);
  for (std::size_t t = 0; t < phys.joins.size(); ++t) {
    const PhysicalJoinStep& step = phys.joins[t];
    const double build = std::max(0.0, step.est_build_rows);
    if (step.role == JoinRole::kChain)
      join += cm.join_work(step.arm, static_cast<std::uint64_t>(build),
                           static_cast<std::uint64_t>(probe_rows[t]),
                           /*bytes_per_tuple=*/8.0);
    else if (step.role == JoinRole::kGather)
      join += cm.lookup_build_work(build);
    if (step.join_filter.filter) join += step.join_filter.pass;
    rows_out = std::max(0.0, step.est_rows_out);
  }
  if (phys.chainless()) rows_out = phys.filtered_rows();
  const auto rows_u64 = static_cast<std::uint64_t>(rows_out);

  // Sink: aggregation (grouped or plain) or projection materialization.
  hw::Work agg;
  hw::Work materialize;
  if (plan.is_aggregate()) {
    agg = plan.has_group_by() ? cm.group_work(rows_u64, /*dense=*/false, 8.0)
                              : cm.agg_work(rows_u64, 8.0);
  } else {
    std::size_t cols = plan.projection.size();
    if (cols == 0) cols = probe.schema().columns().size();
    const double emitted =
        plan.limit != 0 ? std::min<double>(rows_out, plan.limit) : rows_out;
    materialize.cpu_cycles = ops::kMaterializeCyclesPerValue * emitted *
                             static_cast<double>(cols);
    materialize.dram_bytes = 8.0 * emitted * static_cast<double>(cols);
  }

  // Sort / top-k over row ids (aggregate-output sorts act on group counts
  // the planner cannot estimate; they are small and left to calibration).
  hw::Work sort;
  if (phys.sort != SortStrategy::kNone && !phys.sort_on_result &&
      rows_out >= 2) {
    const double k = static_cast<double>(plan.limit);
    const double comparisons =
        (phys.sort == SortStrategy::kTopK && k > 0 && k < rows_out)
            ? rows_out + k * std::log2(k + 1)
            : rows_out * std::log2(rows_out);
    sort.cpu_cycles = ops::kSortCyclesPerComparison * comparisons;
    sort.dram_bytes = 8.0 * rows_out;
  }

  hw::Work total = scan * calibrated(options, OperatorKind::kScan) +
                   join * calibrated(options, OperatorKind::kJoin) +
                   agg * calibrated(options, OperatorKind::kAggregate) +
                   sort * calibrated(options, OperatorKind::kSort) +
                   materialize * calibrated(options, OperatorKind::kMaterialize);
  // Sharded plans: the planner's modeled exchange volume rides the work
  // estimate's wire lane (uncalibrated — link costs are modeled, not
  // measured, so there is nothing for the EWMA to learn from).
  total.net_bytes += phys.dist.est_wire_bytes();
  return total;
}

void apply_plan_governor(const storage::Catalog& catalog, PhysicalPlan& phys,
                         const ExecOptions& options) {
  if (options.governor == nullptr) return;
  const sched::Governor& gov = *options.governor;
  const hw::MachineSpec& machine = gov.machine();

  const hw::Work work = estimate_plan_work(catalog, phys, options);
  const int pool_width =
      options.pool != nullptr
          ? static_cast<int>(options.pool->thread_count())
          : 1;
  // The uncapped grant is what the query *requests*; the serving tier's
  // free-worker clamp (ExecOptions::core_cap) bounds what it is granted,
  // so a burst of concurrent queries cannot collectively oversubscribe
  // the machine. The decision below is made at the granted width — the
  // busy-time and energy estimates describe what will actually run.
  const int requested = std::clamp(pool_width, 1, std::max(1, machine.cores));
  const int cores =
      options.core_cap == 0
          ? requested
          : std::max(1, std::min(requested,
                                 static_cast<int>(options.core_cap)));

  const sched::GovernorDecision decision =
      gov.decide(work, cores, options.constraint);
  phys.governor.enabled = true;
  phys.governor.state = decision.state;
  phys.governor.cores = cores;
  phys.governor.requested_cores = requested;
  phys.governor.policy = decision.policy;
  phys.governor.est_busy_s = decision.busy_s;
  // The bill settle_run will charge if the estimate holds: incremental
  // busy joules at the granted state over the predicted busy time.
  phys.governor.est_energy_j =
      machine.incremental_busy_energy_j(work, decision.state, decision.busy_s);
  phys.governor.est_work = work;
}

}  // namespace eidb::query
