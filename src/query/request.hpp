// query::QueryRequest / QueryResponse — the units of the serving tier.
//
// A request names *what* to run (SQL text or an already-built LogicalPlan)
// plus per-request constraints; a response carries the result *and* the
// energy report plus serving-tier timings. Energy as a first-class response
// field is the paper's program applied to the service boundary: a client
// can see what its query cost in joules, and a tenant's budget is debited
// from exactly these figures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "energy/report.hpp"
#include "query/plan.hpp"
#include "query/result.hpp"

namespace eidb::query {

/// One query submitted to server::QueryService.
struct QueryRequest {
  /// SQL text; parsed at execution time when `plan` is not set.
  std::string sql;
  /// Pre-built plan; takes precedence over `sql`.
  std::optional<LogicalPlan> plan;
  /// Optional per-query energy budget (joules) for the plan governor's
  /// budget arm: the query runs — is paced and billed — at the
  /// highest-frequency P-state whose predicted joules fit
  /// (sched::QueryConstraint).
  std::optional<double> energy_budget_j;
  /// Optional latency deadline (seconds) forwarded to the plan governor:
  /// it then picks the better of race-to-idle and pace for this query.
  double deadline_s = 0;
  /// Client-chosen tag echoed back in the response (correlation id).
  std::uint64_t tag = 0;

  [[nodiscard]] static QueryRequest from_sql(std::string sql_text);
  [[nodiscard]] static QueryRequest from_plan(LogicalPlan logical_plan);
};

enum class ResponseStatus : std::uint8_t {
  kOk,        ///< Executed; result and report are valid.
  kRejected,  ///< Admission control refused (tenant budget exhausted).
  kError,     ///< Execution failed (bad SQL, unknown table, ...).
  kShutdown,  ///< Service stopped before the request was served.
};

[[nodiscard]] std::string to_string(ResponseStatus status);

/// Everything the service hands back for one request.
struct QueryResponse {
  ResponseStatus status = ResponseStatus::kOk;
  std::string error;  ///< Human-readable cause when status != kOk.
  std::uint64_t tag = 0;

  QueryResult result;
  /// Host-measured (RAPL or model) energy of the execution itself.
  energy::EnergyReport report;

  // -- Serving-tier accounting -----------------------------------------------
  double queue_s = 0;    ///< Admission to dispatch (coalescing included).
  double exec_s = 0;     ///< Dispatch to completion (pacing included).
  double latency_s = 0;  ///< Admission to completion, the client-visible figure.
  /// Joules this query added to the rolling power the kEnergyCap policy
  /// reads: the same settlement as `billed_j`.
  double policy_energy_j = 0;
  /// Joules debited from the tenant's energy budget for this query: its
  /// *attributed* energy (own busy interval + DRAM + cold-tier penalties,
  /// excluding the idle floor and concurrent neighbors' work) — the same
  /// figure recorded under the tenant's ledger scope. Reconcile bills
  /// against this, not `report.total_j()`, whose meter window spans the
  /// whole machine.
  double billed_j = 0;

  // -- Plan-governor decision (empty policy = the query did not run) ---------
  /// The arm that decided how this query ran: "race-to-idle" | "pace" |
  /// "budget" | "budget-infeasible" (see sched::Governor::decide).
  std::string governor_policy;
  int governor_cores = 0;          ///< Core grant for the morsel fan-out.
  /// Cores the governor would have granted absent the serving tier's
  /// free-worker clamp (requested vs granted: equal when the service had
  /// spare workers, larger under concurrency).
  int governor_requested_cores = 0;
  /// The granted P-state: the one this query was paced and billed at.
  double governor_freq_ghz = 0;
  /// The governor's compile-time energy prediction for this query;
  /// reconcile against `billed_j` (the measured settlement) to judge the
  /// estimate.
  double predicted_j = 0;

  // -- Shared-scan fusion (members <= 1 = ran independently) ------------------
  /// When the service fused this query's fact-table scan with other
  /// members of its coalesced batch into one pass, the fused group's id
  /// and member count (mirrors EXPLAIN's "shared: group=<id>
  /// members=<n>" line). The table's scan DRAM bytes were charged once
  /// for the whole group and attributed across members; `billed_j`
  /// already reflects this query's share.
  std::uint64_t shared_group = 0;
  std::size_t shared_members = 0;

  [[nodiscard]] bool ok() const { return status == ResponseStatus::kOk; }
  /// One-line summary for logs: status, rows, latency, joules.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace eidb::query
