#include "sched/governor.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace eidb::sched {

std::string policy_name(Policy p) {
  switch (p) {
    case Policy::kLatency:
      return "latency";
    case Policy::kThroughput:
      return "throughput";
    case Policy::kEnergyCap:
      return "energy-cap";
  }
  return "invalid";
}

Policy policy_in_force(Policy policy, double rolling_power_w, double cap_w) {
  if (policy != Policy::kEnergyCap) return policy;
  return rolling_power_w > cap_w ? Policy::kThroughput : Policy::kLatency;
}

double slowdown(const hw::MachineSpec& machine, const hw::DvfsState& s) {
  if (s.freq_ghz <= 0) return 1.0;
  return std::max(1.0, machine.dvfs.fastest().freq_ghz / s.freq_ghz);
}

GovernorDecision Governor::run_to_completion(const hw::Work& work,
                                             const hw::DvfsState& s,
                                             int cores) const {
  GovernorDecision d;
  d.state = s;
  d.cores = cores;
  const hw::Work per_core{work.cpu_cycles / cores, work.dram_bytes / cores};
  d.busy_s = machine_.exec_time_s(per_core, s, 1.0 / cores);
  d.energy_j = machine_.package_power_w(s, cores) * d.busy_s +
               work.dram_bytes * machine_.dram_energy_nj_per_byte * 1e-9;
  return d;
}

double Governor::slack_power_w(double slack_s) const {
  if (options_.allow_deep_sleep && slack_s > machine_.package_wake_latency_s)
    return machine_.sleep_power_w();
  return machine_.idle_power_w();
}

GovernorDecision Governor::race_to_idle(const hw::Work& work,
                                        double deadline_s, int cores) const {
  GovernorDecision d =
      run_to_completion(work, machine_.dvfs.fastest(), cores);
  d.policy = "race-to-idle";
  const double slack = deadline_s - d.busy_s;
  if (slack > 0) {
    d.idle_s = slack;
    d.energy_j += slack_power_w(slack) * slack;
  }
  return d;
}

GovernorDecision Governor::pace(const hw::Work& work, double deadline_s,
                                int cores) const {
  // Slowest P-state that still meets the deadline.
  for (const hw::DvfsState& s : machine_.dvfs.states()) {
    GovernorDecision d = run_to_completion(work, s, cores);
    if (d.busy_s <= deadline_s) {
      d.policy = "pace";
      const double slack = deadline_s - d.busy_s;
      if (slack > 0) {
        d.idle_s = slack;
        d.energy_j += slack_power_w(slack) * slack;
      }
      return d;
    }
  }
  GovernorDecision d = run_to_completion(work, machine_.dvfs.fastest(), cores);
  d.policy = "pace";  // deadline unattainable: degenerate to f_max
  return d;
}

GovernorDecision Governor::best_under_deadline(const hw::Work& work,
                                               double deadline_s,
                                               int cores) const {
  const GovernorDecision race = race_to_idle(work, deadline_s, cores);
  const GovernorDecision paced = pace(work, deadline_s, cores);
  return paced.energy_j < race.energy_j ? paced : race;
}

GovernorDecision Governor::decide(const hw::Work& work, int cores,
                                  const QueryConstraint& constraint) const {
  if (constraint.energy_budget_j.has_value())
    return best_under_budget(work, *constraint.energy_budget_j, cores);
  if (constraint.deadline_s > 0)
    return best_under_deadline(work, constraint.deadline_s, cores);
  if (constraint.policy == Policy::kThroughput || !options_.allow_deep_sleep) {
    // Pace at the incremental-efficient P-state: the throughput policy,
    // and the E7 crossover on a package that cannot sleep.
    GovernorDecision d =
        run_to_completion(work, incremental_efficient_state(work), cores);
    d.policy = "pace";
    return d;
  }
  // No deadline, deep sleep available: finish fast, sleep deep.
  return race_to_idle(work, /*deadline_s=*/0, cores);
}

GovernorDecision Governor::best_under_budget(const hw::Work& work,
                                             double budget_j,
                                             int cores) const {
  // Fastest first: the serving tier paces a query by f_max / f, so a
  // higher clock is always the shorter run, even for bandwidth-bound work.
  GovernorDecision floor;
  double floor_j = std::numeric_limits<double>::infinity();
  const std::vector<hw::DvfsState>& states = machine_.dvfs.states();
  for (auto s = states.rbegin(); s != states.rend(); ++s) {
    GovernorDecision d = run_to_completion(work, *s, cores);
    const double j = machine_.incremental_busy_energy_j(work, *s, d.busy_s);
    if (j <= budget_j) {
      d.policy = "budget";
      return d;
    }
    if (j < floor_j) {
      floor = d;
      floor_j = j;
    }
  }
  floor.policy = "budget-infeasible";
  return floor;
}

hw::DvfsState Governor::incremental_efficient_state(
    const hw::Work& work) const {
  hw::DvfsState best = machine_.dvfs.fastest();
  double best_j = std::numeric_limits<double>::infinity();
  for (const hw::DvfsState& s : machine_.dvfs.states()) {
    const double t = machine_.exec_time_s(work, s);
    const double j = (s.active_power_w - machine_.core_idle_power_w) * t +
                     work.dram_bytes * machine_.dram_energy_nj_per_byte * 1e-9;
    if (j < best_j) {
      best_j = j;
      best = s;
    }
  }
  return best;
}

std::vector<GovernorDecision> Governor::frontier(const hw::Work& work,
                                                 int cores) const {
  std::vector<GovernorDecision> points;
  points.reserve(machine_.dvfs.size());
  for (const hw::DvfsState& s : machine_.dvfs.states()) {
    GovernorDecision d = run_to_completion(work, s, cores);
    d.policy = "frontier";
    points.push_back(d);
  }
  return points;
}

}  // namespace eidb::sched
