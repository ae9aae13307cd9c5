// Energy-budgeted query processing: Figure 2 of the paper, live.
//
// A server executes the same analytical query under growing per-query
// energy budgets. The plan governor's budget arm picks the fastest P-state
// whose predicted joules fit — the query then runs and is billed there —
// trading response time for joules ("elasticity in the small", §IV).
//
//   $ ./energy_budget_server
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/database.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace eidb;

  core::Database db;
  storage::Table& events = db.create_table(
      "events", storage::Schema({{"id", storage::TypeId::kInt64},
                                 {"severity", storage::TypeId::kInt64},
                                 {"latency_us", storage::TypeId::kInt64}}));
  constexpr std::size_t kRows = 2'000'000;
  {
    Pcg32 rng(99);
    std::vector<std::int64_t> id(kRows), sev(kRows), lat(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      id[i] = static_cast<std::int64_t>(i);
      sev[i] = rng.next_bounded(8);
      lat[i] = rng.next_bounded(1'000'000);
    }
    events.set_column(0, storage::Column::from_int64("id", id));
    events.set_column(1, storage::Column::from_int64("severity", sev));
    events.set_column(2, storage::Column::from_int64("latency_us", lat));
  }

  const auto plan = query::QueryBuilder("events")
                        .filter_int("severity", 6, 7)
                        .aggregate(query::AggOp::kCount)
                        .aggregate(query::AggOp::kMax, "latency_us")
                        .build();

  // -- Budget sweep (the Fig. 2 curve) -------------------------------------------
  std::cout << "machine: " << db.machine().name << ", "
            << db.machine().cores << " cores, "
            << db.machine().dvfs.slowest().freq_ghz << "-"
            << db.machine().dvfs.fastest().freq_ghz << " GHz\n\n";

  TablePrinter table({"budget_J", "arm", "freq_GHz", "cores",
                      "predicted_s", "predicted_J", "billed_J"});
  // Warm the calibration EWMA (the governor's work estimate settles after
  // a few runs), then probe the floor.
  for (int i = 0; i < 4; ++i) (void)db.run(plan);
  core::RunOptions probe;
  probe.exec.constraint.energy_budget_j = 1e-12;
  const double floor_j = db.run(plan, probe).governor.est_energy_j;

  for (double budget = floor_j * 0.8; budget < floor_j * 30; budget *= 1.5) {
    core::RunOptions options;
    options.exec.constraint.energy_budget_j = budget;
    const core::RunResult run = db.run(plan, options);
    const query::GovernorChoice& g = run.governor;
    table.add_row({TablePrinter::fmt(budget, 3), g.policy,
                   TablePrinter::fmt(g.state.freq_ghz, 3),
                   TablePrinter::fmt_int(g.cores),
                   TablePrinter::fmt(g.est_busy_s, 4),
                   TablePrinter::fmt(g.est_energy_j, 4),
                   TablePrinter::fmt(run.attributed_j, 4)});
  }
  table.print(std::cout);
  std::cout << "(below the floor the arm is budget-infeasible and the "
               "minimum-energy state runs; above it, more budget buys a "
               "faster P-state at the query's core grant)\n\n";

  // -- A compute-bound plan shows the full Fig. 2 curve -----------------------------
  // Accounting policy decides the frontier's shape: on a dedicated server
  // (full package billed) static power dominates and racing wins almost
  // always ("fastest is greenest", [12]); on a shared server only busy
  // power is attributable and slowing down genuinely saves joules. Each
  // point is one of the governor's frontier runs at 1..cores cores.
  const hw::Work hash_heavy_agg{40e9, 2e9};  // hashing dominates, CPU-bound
  for (const bool shared : {false, true}) {
    std::vector<sched::GovernorDecision> points;
    for (int cores = 1; cores <= db.machine().cores; ++cores) {
      for (sched::GovernorDecision d :
           db.governor().frontier(hash_heavy_agg, cores)) {
        if (shared)
          d.energy_j = db.machine().incremental_busy_energy_j(
              hash_heavy_agg, d.state, cores * d.busy_s);
        points.push_back(d);
      }
    }
    TablePrinter frontier_table({"time_s", "energy_J", "freq_GHz", "cores"});
    for (const std::size_t i : sched::pareto(points)) {
      frontier_table.add_row({TablePrinter::fmt(points[i].busy_s, 4),
                              TablePrinter::fmt(points[i].energy_j, 4),
                              TablePrinter::fmt(points[i].state.freq_ghz, 3),
                              TablePrinter::fmt_int(points[i].cores)});
    }
    std::cout << "Pareto frontier, "
              << (shared ? "shared server (incremental busy power)"
                         : "dedicated server (full package billed)")
              << ":\n";
    frontier_table.print(std::cout);
    std::cout << "\n";
  }

  // -- Stream scheduling under a power cap ------------------------------------------
  std::cout << "\nquery stream under power caps (500 queries, Poisson "
               "arrivals, 5 qps):\n";
  const hw::Work per_query{1.5e9, 3e8};
  const auto stream = sched::poisson_stream(500, 5.0, per_query, 7);
  TablePrinter stable({"policy", "cap_W", "mean_lat_ms", "p95_lat_ms",
                       "qps", "avg_W", "J_per_query"});
  const auto row = [&](sched::Policy policy, double cap) {
    sched::StreamScheduler sched(db.machine(), policy, cap);
    const auto r = sched.run(stream);
    stable.add_row({sched::policy_name(policy),
                    cap > 0 ? TablePrinter::fmt(cap, 3) : "-",
                    TablePrinter::fmt(r.mean_latency_s * 1e3, 4),
                    TablePrinter::fmt(r.p95_latency_s * 1e3, 4),
                    TablePrinter::fmt(r.throughput_qps, 4),
                    TablePrinter::fmt(r.avg_power_w, 4),
                    TablePrinter::fmt(r.energy_per_query_j, 4)});
  };
  row(sched::Policy::kLatency, 0);
  row(sched::Policy::kThroughput, 0);
  row(sched::Policy::kEnergyCap, db.machine().idle_power_w() + 60);
  row(sched::Policy::kEnergyCap, db.machine().idle_power_w() + 10);
  stable.print(std::cout);
  return 0;
}
