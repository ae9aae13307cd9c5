// Experiment F2 — "Impact of Energy Constraint on Query Optimization"
// (the paper's Figure 2, reproduced quantitatively).
//
// Sweeps a per-query energy budget and reports the best achievable response
// time over the (plan × cores × P-state) configuration space, under both
// accounting policies (dedicated vs. shared server), for a compute-bound
// and a memory-bound query. Every point is a sched::Governor::frontier
// run, priced by hw::MachineSpec.
//
// Paper claim: "the individual response time of a query may suffer from
// improved energy efficiency ... the system has to flexibly balance query
// response time minimization and throughput maximization under a given
// energy constraint on a case-by-case basis (Figure 2)."
//
// Writes BENCH_f2.json (floor, unconstrained optimum and the response time
// at each budget multiple, per query class and accounting) and exits 1
// when a curve is not Fig. 2-shaped.
#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/governor.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

/// A physical-plan candidate, described by the abstract work it performs.
struct Plan {
  std::string name;
  hw::Work work;
};

/// Who owns the idle power? A dedicated server bills the query the whole
/// package for its runtime: static power dominates 2012-era machines, so
/// "fastest is greenest" ([12]) and the frontier is shallow. A shared
/// server bills only the busy cores' above-idle power (the package is on
/// regardless): energy per cycle then falls superlinearly at lower
/// P-states and the frontier is rich.
enum class Accounting { kDedicated, kShared };

/// Every (plan, cores, P-state) run, in that loop order, with the plan
/// each came from. A run's energy_j is what `accounting` bills for it.
struct Points {
  std::vector<sched::GovernorDecision> runs;
  std::vector<const Plan*> plan;
};

Points enumerate(const sched::Governor& gov, const std::vector<Plan>& plans,
                 Accounting accounting) {
  const hw::MachineSpec& m = gov.machine();
  Points out;
  for (const Plan& plan : plans) {
    for (int cores = 1; cores <= m.cores; ++cores) {
      for (sched::GovernorDecision d : gov.frontier(plan.work, cores)) {
        if (accounting == Accounting::kShared)
          d.energy_j = m.incremental_busy_energy_j(plan.work, d.state,
                                                   cores * d.busy_s);
        out.runs.push_back(d);
        out.plan.push_back(&plan);
      }
    }
  }
  return out;
}

/// The fastest run whose joules fit `budget_j` (equal times: the cheaper,
/// then the earlier one); nullopt below the floor.
std::optional<std::size_t> fastest_under(
    const std::vector<sched::GovernorDecision>& runs, double budget_j) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const sched::GovernorDecision& p = runs[i];
    if (p.energy_j > budget_j) continue;
    if (!best || p.busy_s < runs[*best].busy_s ||
        (p.busy_s == runs[*best].busy_s && p.energy_j < runs[*best].energy_j))
      best = i;
  }
  return best;
}

/// Runs one sweep, prints its tables and records it under `key` in `json`.
/// Returns the shape violations it found (empty when the curve is Fig.
/// 2-shaped).
std::string run_sweep(const char* label, const std::string& key,
                      const std::vector<Plan>& plans, Accounting accounting,
                      bench::BenchJson& json) {
  const sched::Governor gov(hw::MachineSpec::server());
  const Points points = enumerate(gov, plans, accounting);
  const std::vector<sched::GovernorDecision>& runs = points.runs;
  const auto by_energy = [](const sched::GovernorDecision& a,
                            const sched::GovernorDecision& b) {
    return a.energy_j < b.energy_j;
  };
  const auto floor_at = static_cast<std::size_t>(
      std::min_element(runs.begin(), runs.end(), by_energy) - runs.begin());
  const sched::GovernorDecision& floor_point = runs[floor_at];
  const std::optional<std::size_t> fastest = fastest_under(runs, 1e18);

  std::cout << "\n[" << label << ", "
            << (accounting == Accounting::kDedicated
                    ? "dedicated-server accounting"
                    : "shared-server (incremental) accounting")
            << "]\n";
  std::cout << "energy floor: " << floor_point.energy_j << " J ("
            << points.plan[floor_at]->name << " @ "
            << floor_point.state.freq_ghz << " GHz x" << floor_point.cores
            << ")\n";

  std::ostringstream violations;
  const double below = floor_point.energy_j * 0.5;
  if (fastest_under(runs, below))
    violations << key << ": a run fits half the floor\n";
  TablePrinter table(
      {"budget_J", "response_s", "plan", "freq_GHz", "cores", "spent_J"});
  table.add_row({TablePrinter::fmt(below, 4), "infeasible", "-", "-", "-",
                 "-"});
  json.add(key + "_floor_J", floor_point.energy_j);
  double prev_s = std::numeric_limits<double>::infinity();
  for (double mult : {1.0, 1.1, 1.3, 1.6, 2.0, 3.0, 5.0, 10.0}) {
    const double budget = floor_point.energy_j * mult;
    std::ostringstream at;
    at << key << "_x" << mult;
    const std::optional<std::size_t> i = fastest_under(runs, budget);
    if (!i) {
      violations << at.str() << ": no run fits a budget above the floor\n";
      continue;
    }
    const sched::GovernorDecision& p = runs[*i];
    if (p.busy_s > prev_s)
      violations << at.str() << ": response time rose with the budget\n";
    prev_s = p.busy_s;
    json.add(at.str() + "_response_s", p.busy_s);
    table.add_row({TablePrinter::fmt(budget, 4),
                   TablePrinter::fmt(p.busy_s, 4), points.plan[*i]->name,
                   TablePrinter::fmt(p.state.freq_ghz, 3),
                   TablePrinter::fmt_int(p.cores),
                   TablePrinter::fmt(p.energy_j, 4)});
  }
  table.print(std::cout);
  if (fastest) {
    const sched::GovernorDecision& f = runs[*fastest];
    std::cout << "unconstrained optimum: " << f.busy_s << " s at "
              << f.energy_j << " J ("
              << TablePrinter::fmt(f.energy_j / floor_point.energy_j, 3)
              << "x the floor)\n";
    json.add(key + "_optimum_s", f.busy_s);
    json.add(key + "_optimum_J", f.energy_j);
    if (prev_s != f.busy_s)
      violations << key << ": the largest budget misses the optimum\n";
  }

  std::cout << "Pareto frontier (time vs energy):\n";
  TablePrinter fr({"time_s", "energy_J", "plan", "freq_GHz", "cores"});
  for (const std::size_t i : sched::pareto(runs))
    fr.add_row({TablePrinter::fmt(runs[i].busy_s, 4),
                TablePrinter::fmt(runs[i].energy_j, 4), points.plan[i]->name,
                TablePrinter::fmt(runs[i].state.freq_ghz, 3),
                TablePrinter::fmt_int(runs[i].cores)});
  fr.print(std::cout);
  return violations.str();
}

}  // namespace

int main() {
  std::cout << "== F2: response time under an energy budget (paper Fig. 2) ==\n";

  // Compute-bound analytical query: hash-heavy aggregation over 500M rows.
  const std::vector<Plan> compute = {
      {"hash-agg-full", {60e9, 4e9}},
      {"hash-agg-pruned", {12e9, 0.8e9}},
  };
  // Memory-bound scan: 40 GB streamed, few cycles.
  const std::vector<Plan> memory = {
      {"scan-full", {5e9, 40e9}},
      {"scan-zonemap-pruned", {1e9, 8e9}},
  };

  bench::BenchJson json("f2");
  std::string violations;
  for (const Accounting accounting :
       {Accounting::kDedicated, Accounting::kShared}) {
    const std::string acct =
        accounting == Accounting::kDedicated ? "dedicated" : "shared";
    violations += run_sweep("compute-bound", "compute_" + acct, compute,
                            accounting, json);
    violations += run_sweep("memory-bound", "memory_" + acct, memory,
                            accounting, json);
  }
  (void)json.write();

  std::cout << "\nShape checks (paper Fig. 2): response time decreases "
               "monotonically with budget; infeasible region below the "
               "floor; curve saturates at the unconstrained optimum.\n";
  if (!violations.empty()) {
    std::cerr << "F2 shape check failed:\n" << violations;
    return 1;
  }
  return 0;
}
