// Energy governor: "elasticity in the small" (paper §IV, Figure 2).
//
// Given an amount of work, a machine, and a constraint (deadline or joule
// budget), the governor picks the execution configuration — P-state, core
// count, and idle strategy. Two classic policies are implemented and
// compared in experiment E7:
//
//  * race-to-idle: run at f_max, then drop into the deepest C-state for the
//    remaining slack;
//  * pace: pick the slowest P-state that still meets the deadline, using
//    the superlinear P(f) curve to cut energy while busy.
//
// Which one wins depends on the ratio of idle to active power — exactly the
// "case-by-case" flexibility the paper demands.
//
// Governor::decide is the one place a query's P-state is chosen: the plan
// governor (query/plan_governor.hpp) calls it for every compiled query the
// serving tier runs, and the E8 simulator (sched::StreamScheduler) calls it
// for every simulated one. The serving tier then paces at the granted
// state and bills at it (core::Database settles over the same slowdown()).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/machine.hpp"

namespace eidb::sched {

/// The paper's stream policies (§IV: response time vs. throughput under an
/// energy constraint):
///
///  * kLatency     — no stream constraint: the governor's own arm applies
///                   (race-to-idle at f_max; pace at the incremental-
///                   efficient state when deep sleep is unavailable).
///  * kThroughput  — pace at the incremental-efficient P-state (lowest
///                   above-idle joules for the query's work).
///  * kEnergyCap   — kLatency while the rolling average power stays under
///                   the cap, else kThroughput (graceful degradation
///                   instead of admission rejection); see policy_in_force.
enum class Policy : std::uint8_t { kLatency, kThroughput, kEnergyCap };

[[nodiscard]] std::string policy_name(Policy p);

/// The kEnergyCap check shared by the live service and the simulator:
/// kEnergyCap resolves to kThroughput while `rolling_power_w` is above
/// `cap_w` and to kLatency otherwise; other policies pass through.
[[nodiscard]] Policy policy_in_force(Policy policy, double rolling_power_w,
                                     double cap_w);

/// Wall-clock stretch of P-state `s` relative to f_max for compute-bound
/// work (>= 1). The host cannot be clocked down from user space, so the
/// serving tier sleeps a query's host busy time times (slowdown - 1), and
/// the settlement bills the same stretched busy time at `s`.
[[nodiscard]] double slowdown(const hw::MachineSpec& machine,
                              const hw::DvfsState& s);

/// Per-query constraint the governor decides under. Precedence: a budget
/// wins over a deadline, a deadline over the stream policy.
struct QueryConstraint {
  /// Latency deadline in seconds (0 = none): the better of race-to-idle
  /// and pace over the whole deadline window.
  double deadline_s = 0;
  /// Energy budget in joules: the highest-frequency P-state at the core
  /// grant whose predicted joules fit (Fig. 2); the minimum-energy state
  /// when none does.
  std::optional<double> energy_budget_j;
  /// Stream policy in force (kEnergyCap already resolved by
  /// policy_in_force; unresolved it behaves as under its cap).
  Policy policy = Policy::kLatency;
};

/// A fully resolved execution configuration with its predicted cost.
struct GovernorDecision {
  hw::DvfsState state;
  int cores = 1;
  double busy_s = 0;      ///< Time actually computing.
  double idle_s = 0;      ///< Slack spent idle/asleep (deadline given).
  double energy_j = 0;    ///< Predicted total over busy + slack window.
  /// "race-to-idle" | "pace" | "budget" | "budget-infeasible" | ...
  std::string policy;
};

/// Policy knobs.
struct GovernorOptions {
  /// Whether slack may be spent in the deepest package sleep state. On a
  /// consolidated server that must keep other tenants' data hot, powering
  /// the package down is not an option — then only shallow idle is
  /// available and pacing becomes attractive (the E7 crossover).
  bool allow_deep_sleep = true;
};

class Governor {
 public:
  explicit Governor(hw::MachineSpec machine, GovernorOptions options = {})
      : machine_(std::move(machine)), options_(options) {}

  [[nodiscard]] const hw::MachineSpec& machine() const { return machine_; }
  [[nodiscard]] const GovernorOptions& options() const { return options_; }

  /// Race-to-idle under `deadline_s`: f_max, then deepest C-state that can
  /// wake before the deadline. Energy covers the whole deadline window.
  [[nodiscard]] GovernorDecision race_to_idle(const hw::Work& work,
                                              double deadline_s,
                                              int cores = 1) const;

  /// Pace under `deadline_s`: slowest P-state finishing in time (falls back
  /// to f_max when even that misses). Energy covers the whole window.
  [[nodiscard]] GovernorDecision pace(const hw::Work& work, double deadline_s,
                                      int cores = 1) const;

  /// The better of race/pace for this workload and deadline.
  [[nodiscard]] GovernorDecision best_under_deadline(const hw::Work& work,
                                                     double deadline_s,
                                                     int cores = 1) const;

  /// The per-query decision: the configuration `work` runs at on `cores`
  /// under `constraint` (see QueryConstraint for the arms and their
  /// precedence).
  [[nodiscard]] GovernorDecision decide(const hw::Work& work, int cores,
                                        const QueryConstraint& constraint)
      const;

  /// Best under an energy budget (Fig. 2): the highest-frequency P-state
  /// on `cores` whose predicted incremental joules
  /// (hw::MachineSpec::incremental_busy_energy_j over its busy time) fit
  /// `budget_j`, policy "budget". When none fits, the minimum-energy
  /// state, policy "budget-infeasible".
  [[nodiscard]] GovernorDecision best_under_budget(const hw::Work& work,
                                                   double budget_j,
                                                   int cores = 1) const;

  /// Full (time, energy) frontier over P-states for `cores` — each point is
  /// a run-to-completion execution with no idle tail.
  [[nodiscard]] std::vector<GovernorDecision> frontier(const hw::Work& work,
                                                       int cores = 1) const;

  /// P-state minimizing the *incremental* (above-idle) energy of one unit
  /// of work — the right notion when the package stays powered across a
  /// query stream and only busy power is attributable to the query.
  [[nodiscard]] hw::DvfsState incremental_efficient_state(
      const hw::Work& work) const;

 private:
  [[nodiscard]] GovernorDecision run_to_completion(const hw::Work& work,
                                                   const hw::DvfsState& s,
                                                   int cores) const;
  /// Power drawn during slack, honoring the deep-sleep option.
  [[nodiscard]] double slack_power_w(double slack_s) const;

  hw::MachineSpec machine_;
  GovernorOptions options_;
};

}  // namespace eidb::sched
