#include "core/database.hpp"

#include <sstream>

#include "energy/rapl_meter.hpp"
#include "query/physical_plan.hpp"
#include "query/shared_scan.hpp"
#include "query/sql.hpp"
#include "util/assert.hpp"

namespace eidb::core {

Database::Database(DatabaseOptions options)
    : machine_(std::move(options.machine)),
      cost_model_(options.calibrate_cost_model ? opt::CostModel::calibrate()
                                               : opt::CostModel::defaults()),
      governor_(machine_, options.governor),
      pool_(options.worker_threads) {
  if (options.prefer_rapl) {
    auto rapl = std::make_unique<energy::RaplMeter>();
    if (rapl->available()) rapl_ = std::move(rapl);
  }
  model_ = std::make_unique<energy::ModelMeter>(machine_);
  active_meter_ = rapl_ ? rapl_.get()
                        : static_cast<energy::EnergyMeter*>(model_.get());
}

energy::MeterSource Database::meter_source() const {
  return active_meter_->source();
}

storage::Table& Database::create_table(const std::string& name,
                                       storage::Schema schema) {
  return catalog_.add(storage::Table(name, std::move(schema)));
}

void Database::register_tiers(const std::string& table) {
  const storage::Table& t = catalog_.get(table);
  for (std::size_t i = 0; i < t.schema().column_count(); ++i) {
    const auto& def = t.schema().column(i);
    tiers_.register_column(table, def.name,
                           t.row_count() * storage::physical_size(def.type));
  }
}

void Database::apply_engine_defaults(query::ExecOptions& exec) {
  if (exec.tiers == nullptr && tiers_.hot_bytes() + tiers_.cold_bytes() > 0)
    exec.tiers = &tiers_;
  if (exec.pool == nullptr) exec.pool = &pool_;
  if (exec.cost_model == nullptr) exec.cost_model = &cost_model_;
  if (exec.governor == nullptr) exec.governor = &governor_;
  if (exec.calibration == nullptr) exec.calibration = &calibration_;
}

RunResult Database::run(const query::LogicalPlan& plan,
                        const RunOptions& options) {
  std::vector<RunResult> outs = run_batch({{plan, options}});
  if (!outs.front().error.empty()) throw Error(outs.front().error);
  return std::move(outs.front());
}

void Database::settle_run(RunResult& out, const query::LogicalPlan& plan,
                          const RunOptions& options) {
  // The host ran every kernel at full speed: feed the model meter (no-op
  // for RAPL) the f_max busy interval and DRAM traffic.
  const double elapsed = out.stats.elapsed_s;
  model_->report_busy(elapsed, machine_.dvfs.fastest(), 1, out.stats.work);

  out.report.elapsed_s =
      elapsed + out.stats.cold_tier_time_s + out.stats.wire_time_s;
  out.report.energy.package_j += out.stats.cold_tier_energy_j;
  out.report.source = active_meter_->source();

  // Per-query attribution at the governor's granted P-state, over the
  // busy time the query takes there: host busy seconds stretched by
  // f_max / f_granted — exactly what the serving tier sleeps to pace it.
  // Plus its DRAM traffic and cold-tier penalty. The meter window in
  // report.energy cannot be used here — it is a whole-machine counter, so
  // under concurrency it would bill every query for its neighbors' work
  // and the shared idle floor.
  const hw::DvfsState& state =
      out.governor.enabled ? out.governor.state : machine_.dvfs.fastest();
  const double busy_s = elapsed * sched::slowdown(machine_, state);
  // Wire joules (sharded queries) are modeled link + codec energy — they
  // ride the attribution total but live outside the machine's busy-energy
  // quantum, and the ledger books them under the dedicated wire scope.
  out.attributed_j =
      machine_.incremental_busy_energy_j(out.stats.work, state, busy_s) +
      out.stats.cold_tier_energy_j + out.stats.wire_energy_j;

  // Close the governor's loop: measured per-operator seconds against the
  // model's prediction at the speed they ran (f_max on the host), folded
  // into the per-kind EWMA the next compile consults.
  calibration_.observe_operators(out.stats.operators, machine_,
                                 machine_.dvfs.fastest());

  ledger_.add(options.ledger_scope,
              {plan.table + ":" + (plan.is_aggregate() ? "agg" : "select"),
               out.report.elapsed_s, out.stats.work,
               out.attributed_j, out.stats.tuples_scanned});
  if (out.stats.wire_messages > 0 || out.stats.wire_energy_j > 0) {
    hw::Work wire_work;
    wire_work.net_bytes = out.stats.work.net_bytes;
    ledger_.add(energy::kWireScope,
                {plan.table + ":wire", out.stats.wire_time_s, wire_work,
                 out.stats.wire_energy_j, out.stats.wire_messages});
  }
}

std::vector<RunResult> Database::run_batch(const std::vector<BatchItem>& items) {
  std::vector<RunResult> outs(items.size());
  if (items.empty()) return outs;

  // Phase 1: per-member planning — engine defaults, then compile, which
  // runs the plan governor under the member's constraint. A member that
  // fails here carries its error and is excluded from execution (its
  // sharing key is empty → singleton group, skipped).
  std::vector<query::ExecOptions> exec_options(items.size());
  std::vector<query::PhysicalPlan> plans(items.size());
  std::vector<query::SharedBatchMember> batch(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    query::ExecOptions& exec = exec_options[i];
    exec = items[i].options.exec;
    apply_engine_defaults(exec);
    batch[i] = {nullptr, &exec_options[i]};
    try {
      plans[i] = query::compile_plan(catalog_, items[i].plan, exec);
      outs[i].governor = plans[i].governor;
      batch[i].phys = &plans[i];
    } catch (const std::exception& e) {
      outs[i].error = e.what();
    }
  }

  // Phase 2: compatibility analysis, then execute group by group — fused
  // single pass where the sharing arm approves, independent otherwise.
  // One meter window spans the whole batch: the report's machine-level
  // reading is shared (it cannot be split), while per-member attribution
  // below stays per-query via the work deltas.
  const std::vector<query::ScanShareGroup> groups =
      query::analyze_scan_sharing(catalog_, machine_, batch);
  energy::EnergyWindow window(*active_meter_);
  for (const query::ScanShareGroup& g : groups) {
    if (g.share && g.members.size() >= 2) {
      const std::uint64_t gid = shared_group_seq_.fetch_add(1) + 1;
      std::vector<query::SharedBatchMember> members;
      members.reserve(g.members.size());
      for (const std::size_t idx : g.members) {
        plans[idx].shared = {gid, g.members.size()};
        members.push_back(batch[idx]);
      }
      std::vector<query::SharedMemberOut> gouts(g.members.size());
      try {
        query::execute_shared_group(catalog_, members, gouts);
      } catch (const std::exception& e) {
        for (query::SharedMemberOut& go : gouts)
          if (go.error.empty()) go.error = e.what();
      }
      for (std::size_t k = 0; k < g.members.size(); ++k) {
        const std::size_t idx = g.members[k];
        outs[idx].shared_group = gid;
        outs[idx].shared_members = g.members.size();
        outs[idx].governor = plans[idx].governor;
        if (!gouts[k].error.empty()) {
          outs[idx].error = gouts[k].error;
          continue;
        }
        outs[idx].result = std::move(gouts[k].result);
        outs[idx].stats = std::move(gouts[k].stats);
      }
    } else {
      for (const std::size_t idx : g.members) {
        if (!outs[idx].error.empty()) continue;  // compile failed
        try {
          query::Executor executor(catalog_);
          outs[idx].result =
              executor.execute(plans[idx], outs[idx].stats, exec_options[idx]);
        } catch (const std::exception& e) {
          outs[idx].error = e.what();
        }
      }
    }
  }

  // Phase 3: settle every successful member — shared machine-level meter
  // reading, per-member attribution/calibration/ledger at its own elapsed
  // time (for fused members that includes their share of the fused pass).
  const auto consumed = window.consumed();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!outs[i].error.empty()) continue;
    outs[i].report.energy = consumed;
    settle_run(outs[i], items[i].plan, items[i].options);
  }
  return outs;
}

RunResult Database::run_sql(std::string_view sql, const RunOptions& options) {
  return run(query::parse_sql(sql), options);
}

std::string Database::explain(const query::LogicalPlan& plan,
                              const RunOptions& options) {
  std::ostringstream os;
  os << "plan: " << plan.to_string() << "\n";
  query::ExecOptions exec_options = options.exec;
  apply_engine_defaults(exec_options);
  os << query::compile_plan(catalog_, plan, exec_options).explain();
  os << "meter: " << energy::to_string(meter_source()) << "\n";
  return os.str();
}

}  // namespace eidb::core
