// eidb::core::Database — the public façade of the library.
//
// One object wires the whole stack together: catalog + tiering (storage),
// executor (query), meters (energy), machine model (hw), governor and cost
// model (sched/opt). Usage:
//
//   eidb::core::Database db;                       // model-metered
//   auto& t = db.create_table("sales", schema);
//   t.set_column(...);                             // bulk load
//   auto plan = eidb::query::QueryBuilder("sales")
//                   .filter_int("amount", 100, 999)
//                   .group_by("region")
//                   .aggregate(eidb::query::AggOp::kSum, "amount")
//                   .build();
//   auto run = db.run(plan);
//   std::cout << run.result.to_string() << run.report.to_string();
//
// Every run returns both the result and an EnergyReport (RAPL-measured when
// the host exposes it, model-derived otherwise) — energy as a first-class
// output, which is the paper's program in one sentence.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/ledger.hpp"
#include "energy/meter.hpp"
#include "energy/model_meter.hpp"
#include "hw/machine.hpp"
#include "opt/cost_model.hpp"
#include "query/executor.hpp"
#include "query/plan.hpp"
#include "query/plan_governor.hpp"
#include "query/result.hpp"
#include "sched/governor.hpp"
#include "sched/thread_pool.hpp"
#include "storage/table.hpp"
#include "storage/tier.hpp"

namespace eidb::core {

struct DatabaseOptions {
  /// Machine model used for energy modeling and simulated execution.
  hw::MachineSpec machine = hw::MachineSpec::server();
  /// Prefer hardware RAPL counters when readable.
  bool prefer_rapl = true;
  /// Calibrate the cost model on this host at startup (few ms) instead of
  /// using the published defaults.
  bool calibrate_cost_model = false;
  /// Width of the engine worker pool shared by every query's
  /// morsel-parallel operators (0 = hardware concurrency).
  std::size_t worker_threads = 0;
  /// Plan-governor policy knobs (deep-sleep availability — the E7 lever).
  /// The governor runs for every query: it picks cores × P-state at
  /// compile time and the settlement bills at that state. The default
  /// (race-to-idle, deep sleep allowed) resolves to f_max on all cores.
  sched::GovernorOptions governor{};
};

/// Per-query execution knobs. The governor's per-query constraint —
/// deadline, energy budget, stream policy — is exec.constraint.
struct RunOptions {
  query::ExecOptions exec;
  /// Ledger scope this run's joules are attributed to (empty = global).
  /// The serving tier sets it to the session's tenant id so per-tenant
  /// energy budgets can be debited from measured totals.
  std::string ledger_scope;
};

/// Everything a query run produces.
struct RunResult {
  query::QueryResult result;
  query::ExecStats stats;
  energy::EnergyReport report;
  /// This query's own energy share: incremental busy joules at the
  /// governor's granted P-state over its modeled busy time there (host
  /// busy seconds x sched::slowdown — the stretch the serving tier sleeps),
  /// plus its DRAM traffic, cold-tier and wire penalties. Unlike `report`
  /// — whose meter window spans the whole machine and so includes the idle
  /// floor and any concurrently running queries — this figure is
  /// attributable to *this* query alone; it is what the ledger records per
  /// scope and what the serving tier debits tenant budgets with.
  double attributed_j = 0;
  /// The plan governor's cores × P-state decision for this query: the
  /// state it is paced and billed at (enabled == false only for plans
  /// compiled without a governor).
  query::GovernorChoice governor;
  /// run_batch only: non-empty when this member failed (compile or
  /// execution error text); `result`/`stats` are then default-constructed
  /// and nothing was attributed. run() throws instead of setting this, so
  /// one bad batch member cannot take down its group-mates.
  std::string error;
  /// Shared-scan fusion (run_batch): when this member's FROM-table scan
  /// was fused with other compatible batch members into one pass,
  /// `shared_members` > 1 and `shared_group` identifies the fused group.
  std::uint64_t shared_group = 0;
  std::size_t shared_members = 0;
};

/// One member of a coalesced batch handed to Database::run_batch.
struct BatchItem {
  query::LogicalPlan plan;
  RunOptions options;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  // -- DDL / load -----------------------------------------------------------
  storage::Table& create_table(const std::string& name,
                               storage::Schema schema);
  [[nodiscard]] storage::Catalog& catalog() { return catalog_; }
  [[nodiscard]] const storage::Catalog& catalog() const { return catalog_; }
  /// Registers all columns of `table` with the tier manager (hot).
  void register_tiers(const std::string& table);
  [[nodiscard]] storage::TierManager& tiers() { return tiers_; }

  // -- Query ------------------------------------------------------------------
  /// Executes `plan`: a one-member run_batch that throws eidb::Error
  /// with the member's error text instead of returning it. Safe to call
  /// from multiple threads concurrently: the catalog is a shared-lock
  /// registry, the meters and ledger serialize internally, and each call
  /// uses its own executor. (Concurrent `run` with `drop` of a table in
  /// use remains a caller error.)
  [[nodiscard]] RunResult run(const query::LogicalPlan& plan,
                              const RunOptions& options = {});

  /// Parses and runs one SQL statement (see query/sql.hpp for the grammar).
  [[nodiscard]] RunResult run_sql(std::string_view sql,
                                  const RunOptions& options = {});

  /// Executes a coalesced batch as one unit. Members whose scans are
  /// compatible (same table, encoding-visible column set and conjunct
  /// structure — see query/shared_scan.hpp) and whose modeled sharing arm
  /// (opt::CostModel::pick_scan_sharing) approves are fused into ONE pass
  /// over their table: the fact table's DRAM bytes are charged once per
  /// group and attributed across members by their share of the work.
  /// Everyone else runs independently. Results are bit-identical to
  /// per-member run() calls. Per-member failures surface via
  /// RunResult::error instead of throwing.
  [[nodiscard]] std::vector<RunResult> run_batch(
      const std::vector<BatchItem>& items);

  /// EXPLAIN: the plan, the compiled physical plan with the governor's
  /// decision (its `governor:` line names the arm), and the meter.
  [[nodiscard]] std::string explain(const query::LogicalPlan& plan,
                                    const RunOptions& options = {});

  // -- Introspection ------------------------------------------------------------
  [[nodiscard]] const hw::MachineSpec& machine() const { return machine_; }
  [[nodiscard]] const opt::CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] energy::EnergyMeter& meter() { return *active_meter_; }
  [[nodiscard]] energy::MeterSource meter_source() const;
  [[nodiscard]] const energy::EnergyLedger& ledger() const { return ledger_; }
  /// Mutable ledger access for layers that attribute their own entries
  /// (the serving tier records per-session scopes through this).
  [[nodiscard]] energy::EnergyLedger& ledger() { return ledger_; }
  [[nodiscard]] const sched::Governor& governor() const { return governor_; }
  /// The engine worker pool every query's parallel operators draw from
  /// (shared across concurrent sessions; see sched::ThreadPool).
  [[nodiscard]] sched::ThreadPool& pool() { return pool_; }
  /// Measured-vs-predicted EWMA per operator kind feeding the governor's
  /// work estimates (updated after every run).
  [[nodiscard]] const query::OperatorCalibration& calibration() const {
    return calibration_;
  }

 private:
  /// Fills the engine-owned defaults of per-run ExecOptions: tier
  /// manager, worker pool, cost model, plan governor, and calibration
  /// (caller-set values win).
  void apply_engine_defaults(query::ExecOptions& exec);
  /// The metering tail of every run: model-meter feedback, per-query
  /// attribution at the governor's state, calibration EWMA update and
  /// ledger entries. Expects out.report.energy to hold the meter-window
  /// reading and out.governor/out.stats to be final; out.stats.elapsed_s
  /// is this query's own host busy seconds.
  void settle_run(RunResult& out, const query::LogicalPlan& plan,
                  const RunOptions& options);

  hw::MachineSpec machine_;
  storage::Catalog catalog_;
  storage::TierManager tiers_;
  opt::CostModel cost_model_;
  sched::Governor governor_;
  std::unique_ptr<energy::EnergyMeter> rapl_;
  std::unique_ptr<energy::ModelMeter> model_;
  energy::EnergyMeter* active_meter_ = nullptr;
  energy::EnergyLedger ledger_;
  sched::ThreadPool pool_;
  query::OperatorCalibration calibration_;
  /// Monotonic id for shared-scan groups (RunResult::shared_group).
  std::atomic<std::uint64_t> shared_group_seq_{0};
};

}  // namespace eidb::core
