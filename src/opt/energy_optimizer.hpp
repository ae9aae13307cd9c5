// Energy-constrained plan selection — Figure 2 of the paper, made concrete.
//
// "the system has to flexibly balance query response time minimization and
// throughput maximization under a given energy constraint on a case-by-case
// basis (Figure 2)". Candidate physical plans (full scan, pruned scan,
// different kernels) × execution configurations (P-state, core count) form
// a set of (response time, energy) points. This component:
//   * enumerates the points,
//   * extracts the Pareto frontier (no point is faster AND cheaper),
//   * answers "fastest plan under an energy budget" — the Fig. 2 curve.
//
// It prices hand-described candidates for the F2 bench and the
// energy_budget_server example. A query's own budget is decided by the
// plan governor (sched::Governor::best_under_budget) over the compiled
// work estimate.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "opt/cost_model.hpp"

namespace eidb::opt {

/// A physical-plan candidate, described by the abstract work it performs.
struct PlanCandidate {
  std::string name;
  hw::Work work;
};

/// Who owns the idle power?
///
///  * kFullPackage  — the query is billed the whole package for its runtime
///    (dedicated server). Static power dominates 2012-era machines, so
///    "fastest is greenest" ([12]) and the Fig. 2 frontier is shallow.
///  * kIncremental  — only above-idle (busy) power is attributable (shared
///    server; the package is on regardless). Energy-per-cycle then falls
///    superlinearly at lower P-states and the frontier is rich.
/// The choice is a genuine policy input, not a modeling detail — the F2
/// bench reports both.
enum class Accounting : std::uint8_t { kFullPackage, kIncremental };

/// One fully configured execution alternative.
struct PlanPoint {
  std::string plan_name;
  hw::DvfsState state;
  int cores = 1;
  double time_s = 0;
  double energy_j = 0;
};

class EnergyOptimizer {
 public:
  explicit EnergyOptimizer(hw::MachineSpec machine,
                           Accounting accounting = Accounting::kFullPackage)
      : machine_(std::move(machine)), accounting_(accounting) {}

  [[nodiscard]] const hw::MachineSpec& machine() const { return machine_; }
  [[nodiscard]] Accounting accounting() const { return accounting_; }

  /// All (plan, P-state, cores) execution points.
  [[nodiscard]] std::vector<PlanPoint> enumerate(
      const std::vector<PlanCandidate>& plans, int max_cores = 0) const;

  /// Pareto-optimal subset (minimal time for the energy spent), sorted by
  /// ascending time.
  [[nodiscard]] static std::vector<PlanPoint> pareto(
      std::vector<PlanPoint> points);

  /// Fastest point whose energy fits `budget_j`; nullopt when the budget is
  /// below the cheapest plan's energy (the flat left edge of Fig. 2).
  [[nodiscard]] std::optional<PlanPoint> best_under_budget(
      const std::vector<PlanCandidate>& plans, double budget_j,
      int max_cores = 0) const;

  /// Minimal-energy point regardless of time (the budget floor).
  [[nodiscard]] PlanPoint min_energy_point(
      const std::vector<PlanCandidate>& plans, int max_cores = 0) const;

 private:
  hw::MachineSpec machine_;
  Accounting accounting_;
};

}  // namespace eidb::opt
