// The plan governor: the compile-time bridge between the physical plan
// and sched::Governor ("elasticity in the small", paper §IV Fig. 2).
//
// At compile_plan time the whole query's abstract work is estimated from
// the cost model and the plan's cardinality chain, and
// sched::Governor::decide picks the P-state for the query as a unit at its
// core grant, under ExecOptions::constraint:
//
//   * an energy budget: the highest-frequency P-state whose predicted
//     joules fit ("budget"), else the minimum-energy state
//     ("budget-infeasible");
//   * a deadline: race-to-idle vs pace over the deadline window, exactly
//     as sched::Governor::best_under_deadline;
//   * the kThroughput stream policy, or no deep sleep (consolidated
//     server): pace at the incremental-efficient P-state;
//   * otherwise race-to-idle at f_max.
//
// The choice is recorded in PhysicalPlan::governor and EXPLAIN, the
// serving tier paces at the granted state, and core::Database bills it
// there. Parallel operators cut their chunks from their input sizes, not
// from the grant, so a query's answer does not depend on it.
//
// The estimate is closed-loop: OperatorCalibration keeps an EWMA of
// measured-vs-predicted execution time per operator kind (fed by
// core::Database from every query's ExecStats), and the next compile
// scales its per-kind cycle estimates by those factors — §IV.B's
// "operators have to quickly adapt" requirement, applied to the governor.
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hw/machine.hpp"
#include "query/result.hpp"

namespace eidb::sched {
class Governor;
}  // namespace eidb::sched

namespace eidb::storage {
class Catalog;
}  // namespace eidb::storage

namespace eidb::query {

struct PhysicalPlan;
struct ExecOptions;

/// Operator families the calibration distinguishes (granularity of the
/// EWMA feedback; finer would starve each bucket of observations).
enum class OperatorKind : std::uint8_t {
  kScan,
  kJoin,
  kAggregate,
  kSort,
  kMaterialize,
  kOther,
};
inline constexpr std::size_t kOperatorKindCount = 6;

/// Maps an attributed operator name (ExecStats::operators entries, e.g.
/// "scan+filter(lineorder)", "hash-join(dates)+materialize",
/// "join-filter(customer)", "group-aggregate", "top-k(x)") to its kind.
[[nodiscard]] OperatorKind classify_operator(std::string_view name);
[[nodiscard]] std::string_view operator_kind_name(OperatorKind kind);

/// The governor's per-query decision, recorded in the PhysicalPlan.
struct GovernorChoice {
  bool enabled = false;      ///< False = no governor: legacy f_max behavior.
  hw::DvfsState state;       ///< Chosen P-state (attribution + pacing).
  int cores = 1;             ///< Core grant, clamped to the pool width.
  /// The grant absent ExecOptions::core_cap (the pool width clamped to
  /// the machine's cores): what this query asked for before the serving
  /// tier's free-worker clamp. Equal to `cores` when no cap applied.
  int requested_cores = 1;
  /// The arm that decided: "race-to-idle" | "pace" | "budget" |
  /// "budget-infeasible" (the budget fit no state; minimum-energy state).
  std::string policy;
  double est_busy_s = 0;     ///< Predicted busy time at the chosen config.
  /// Predicted bill: hw::MachineSpec::incremental_busy_energy_j of
  /// est_work at `state` over est_busy_s — the quantum settle_run charges.
  double est_energy_j = 0;
  hw::Work est_work;         ///< Calibrated whole-plan work estimate.
};

/// Thread-safe EWMA of measured/predicted time ratios per operator kind.
/// factor(kind) multiplies the governor's cycle estimates for that kind;
/// 1.0 until the first observation arrives.
class OperatorCalibration {
 public:
  explicit OperatorCalibration(double alpha = 0.2) : alpha_(alpha) {
    factors_.fill(1.0);
    seen_.fill(false);
  }

  [[nodiscard]] double factor(OperatorKind kind) const;

  /// Feeds one measured operator: predicted seconds from the machine
  /// model vs measured wall seconds. Ratios are clamped to [0.05, 20] so
  /// one scheduling hiccup cannot poison the estimate.
  void observe(OperatorKind kind, double predicted_s, double measured_s);

  /// Convenience: classifies and observes every attributed operator of a
  /// finished query, predicting each one's seconds from its recorded
  /// work on `machine` at `state`.
  void observe_operators(const std::vector<OperatorStats>& operators,
                         const hw::MachineSpec& machine,
                         const hw::DvfsState& state);

 private:
  double alpha_;
  mutable std::mutex mu_;
  std::array<double, kOperatorKindCount> factors_;
  std::array<bool, kOperatorKindCount> seen_;
};

/// Estimates the whole plan's abstract work from the compiled plan's
/// cardinality chain and the cost model, scaled per operator kind by the
/// calibration (when provided via options).
[[nodiscard]] hw::Work estimate_plan_work(const storage::Catalog& catalog,
                                          const PhysicalPlan& phys,
                                          const ExecOptions& options);

/// Runs the governor for a compiled plan and records the decision in
/// phys.governor. No-op when options.governor is null.
void apply_plan_governor(const storage::Catalog& catalog, PhysicalPlan& phys,
                         const ExecOptions& options);

}  // namespace eidb::query
