#include "sched/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace eidb::sched {
namespace {

Governor server_gov() { return Governor(hw::MachineSpec::server()); }

const hw::Work kCpuWork{5e9, 1e8};  // compute-heavy

/// The minimum-energy point of a (time, energy) frontier.
const GovernorDecision& min_energy(const std::vector<GovernorDecision>& pts) {
  return *std::min_element(pts.begin(), pts.end(),
                           [](const GovernorDecision& a,
                              const GovernorDecision& b) {
                             return a.energy_j < b.energy_j;
                           });
}

TEST(Governor, RaceToIdleUsesFastestState) {
  const Governor gov = server_gov();
  const auto d = gov.race_to_idle(kCpuWork, 10.0);
  EXPECT_DOUBLE_EQ(d.state.freq_ghz, gov.machine().dvfs.fastest().freq_ghz);
  EXPECT_GT(d.idle_s, 0.0);
  EXPECT_NEAR(d.busy_s + d.idle_s, 10.0, 1e-9);
}

TEST(Governor, PacePicksSlowestFeasibleState) {
  const Governor gov = server_gov();
  // Generous deadline: pace should drop to the slowest state.
  const auto d = gov.pace(kCpuWork, 100.0);
  EXPECT_DOUBLE_EQ(d.state.freq_ghz, gov.machine().dvfs.slowest().freq_ghz);
  // Tight deadline: only the fastest state fits.
  const double t_fast =
      gov.machine().exec_time_s(kCpuWork, gov.machine().dvfs.fastest());
  const auto tight = gov.pace(kCpuWork, t_fast * 1.01);
  EXPECT_DOUBLE_EQ(tight.state.freq_ghz,
                   gov.machine().dvfs.fastest().freq_ghz);
}

TEST(Governor, PaceUnattainableDeadlineFallsBackToFmax) {
  const Governor gov = server_gov();
  const auto d = gov.pace(kCpuWork, 1e-9);
  EXPECT_DOUBLE_EQ(d.state.freq_ghz, gov.machine().dvfs.fastest().freq_ghz);
  EXPECT_GT(d.busy_s, 1e-9);  // missed, but still the best effort
}

TEST(Governor, BestUnderDeadlineNeverWorseThanEither) {
  const Governor gov = server_gov();
  for (const double deadline : {2.0, 3.0, 5.0, 10.0, 30.0}) {
    const auto race = gov.race_to_idle(kCpuWork, deadline);
    const auto paced = gov.pace(kCpuWork, deadline);
    const auto best = gov.best_under_deadline(kCpuWork, deadline);
    EXPECT_LE(best.energy_j, race.energy_j + 1e-9);
    EXPECT_LE(best.energy_j, paced.energy_j + 1e-9);
  }
}

TEST(Governor, RaceVsPaceCrossoverDependsOnSleepAvailability) {
  // The E7 crossover: with deep package sleep available, racing at f_max
  // and sleeping through the slack wins (slack burns ~9 W). On a
  // consolidated server that cannot power down (shallow idle only, ~43 W
  // floor), pacing at a low-power P-state wins.
  const hw::MachineSpec m = hw::MachineSpec::server();
  const double t_slow = m.exec_time_s(kCpuWork, m.dvfs.slowest());
  const double deadline = t_slow;  // enough slack to pace all the way down

  const Governor with_sleep(m, {.allow_deep_sleep = true});
  EXPECT_EQ(with_sleep.best_under_deadline(kCpuWork, deadline).policy,
            "race-to-idle");

  const Governor no_sleep(m, {.allow_deep_sleep = false});
  EXPECT_EQ(no_sleep.best_under_deadline(kCpuWork, deadline).policy, "pace");
}

TEST(Governor, IncrementalEfficientStateIsSlow) {
  // Incremental energy-per-cycle rises superlinearly with f, so the
  // incremental-optimal state for compute work is the slowest one.
  const Governor gov = server_gov();
  const hw::DvfsState s = gov.incremental_efficient_state(kCpuWork);
  EXPECT_DOUBLE_EQ(s.freq_ghz, gov.machine().dvfs.slowest().freq_ghz);
}

TEST(Governor, BestUnderBudgetMonotone) {
  const Governor gov = server_gov();
  const hw::MachineSpec& m = gov.machine();
  // More budget can only help (weakly) the response time, and a feasible
  // pick's predicted incremental joules fit the budget.
  double prev_time = 1e100;
  bool any = false;
  for (double budget = 0.5; budget <= 50; budget *= 1.3) {
    const GovernorDecision d = gov.best_under_budget(kCpuWork, budget, 4);
    EXPECT_EQ(d.cores, 4);
    if (d.policy != "budget") continue;
    any = true;
    EXPECT_LE(d.busy_s, prev_time + 1e-12);
    prev_time = d.busy_s;
    EXPECT_LE(m.incremental_busy_energy_j(kCpuWork, d.state, d.busy_s),
              budget);
  }
  EXPECT_TRUE(any);
}

TEST(Governor, ImpossibleBudgetTakesTheMinimumEnergyState) {
  const Governor gov = server_gov();
  const hw::MachineSpec& m = gov.machine();
  const GovernorDecision d = gov.best_under_budget(kCpuWork, 1e-6, 2);
  EXPECT_EQ(d.policy, "budget-infeasible");
  const double floor_j =
      m.incremental_busy_energy_j(kCpuWork, d.state, d.busy_s);
  for (const GovernorDecision& p : gov.frontier(kCpuWork, 2))
    EXPECT_LE(floor_j,
              m.incremental_busy_energy_j(kCpuWork, p.state, p.busy_s) + 1e-12);
}

TEST(Governor, MostEfficientBeatsFmaxOnEnergy) {
  const Governor gov = server_gov();
  const double f_max = gov.machine().dvfs.fastest().freq_ghz;
  for (const hw::Work& work : {kCpuWork, hw::Work{1e6, 50e9}}) {
    for (const int cores : {1, 4}) {
      const auto frontier = gov.frontier(work, cores);
      const auto fastest = std::find_if(
          frontier.begin(), frontier.end(), [&](const GovernorDecision& d) {
            return d.state.freq_ghz == f_max;
          });
      ASSERT_NE(fastest, frontier.end());
      EXPECT_LE(min_energy(frontier).energy_j, fastest->energy_j);
    }
  }
}

TEST(Governor, FrontierTimeDecreasesEnergyShapes) {
  const Governor gov = server_gov();
  const auto points = gov.frontier(kCpuWork);
  ASSERT_EQ(points.size(), gov.machine().dvfs.size());
  // Time strictly decreases with frequency for compute-bound work.
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(points[i].busy_s, points[i - 1].busy_s);
}

TEST(Governor, MemoryBoundWorkFlattensFrontier) {
  const Governor gov = server_gov();
  const hw::Work mem_bound{1e6, 50e9};
  const auto points = gov.frontier(mem_bound);
  // Memory-bound: same time at every frequency => higher frequency only
  // wastes power; the minimum-energy point must be the slowest state.
  EXPECT_NEAR(points.front().busy_s, points.back().busy_s, 1e-9);
  EXPECT_DOUBLE_EQ(min_energy(points).state.freq_ghz,
                   gov.machine().dvfs.slowest().freq_ghz);
}

TEST(Governor, MultiCoreSpeedsUpAndFitsBudgetDifferently) {
  const Governor gov = server_gov();
  const auto d1 = gov.race_to_idle(kCpuWork, 100.0, 1);
  const auto d8 = gov.race_to_idle(kCpuWork, 100.0, 8);
  EXPECT_LT(d8.busy_s, d1.busy_s);
}

// -- The one decision entry point (Governor::decide) -------------------------

TEST(GovernorDecide, LatencyRacesAtFmax) {
  const Governor gov = server_gov();
  const GovernorDecision d = gov.decide(kCpuWork, 4, {});
  EXPECT_EQ(d.policy, "race-to-idle");
  EXPECT_EQ(d.cores, 4);
  EXPECT_DOUBLE_EQ(d.state.freq_ghz, gov.machine().dvfs.fastest().freq_ghz);
}

TEST(GovernorDecide, ThroughputPacesAtTheIncrementalEfficientState) {
  const Governor gov = server_gov();
  QueryConstraint c;
  c.policy = Policy::kThroughput;
  for (const hw::Work& work : {kCpuWork, hw::Work{1e6, 50e9}}) {
    const GovernorDecision d = gov.decide(work, 2, c);
    EXPECT_EQ(d.policy, "pace");
    EXPECT_DOUBLE_EQ(d.state.freq_ghz,
                     gov.incremental_efficient_state(work).freq_ghz);
  }
  EXPECT_LT(gov.decide(kCpuWork, 2, c).state.freq_ghz,
            gov.machine().dvfs.fastest().freq_ghz);
}

TEST(GovernorDecide, EnergyCapSwitchesAtTheCap) {
  const double cap = hw::MachineSpec::server().idle_power_w() + 20;
  EXPECT_EQ(policy_in_force(Policy::kEnergyCap, cap - 1, cap),
            Policy::kLatency);
  EXPECT_EQ(policy_in_force(Policy::kEnergyCap, cap + 1, cap),
            Policy::kThroughput);
  // The check returns a policy, never a state; others pass through.
  for (const double power : {0.0, cap + 100})
    for (const Policy p : {Policy::kLatency, Policy::kThroughput})
      EXPECT_EQ(policy_in_force(p, power, cap), p);
}

TEST(GovernorDecide, GenerousBudgetRacesTightRunsNoFasterInfeasibleFloors) {
  const Governor gov = server_gov();
  const hw::MachineSpec& m = gov.machine();
  QueryConstraint c;
  c.energy_budget_j = 1e9;
  const GovernorDecision generous = gov.decide(kCpuWork, 4, c);
  EXPECT_EQ(generous.policy, "budget");
  EXPECT_DOUBLE_EQ(generous.state.freq_ghz, m.dvfs.fastest().freq_ghz);

  c.energy_budget_j = 1e-9;
  const GovernorDecision floor = gov.decide(kCpuWork, 4, c);
  EXPECT_EQ(floor.policy, "budget-infeasible");
  const double floor_j =
      m.incremental_busy_energy_j(kCpuWork, floor.state, floor.busy_s);
  EXPECT_GT(floor_j, 1e-9);

  // Just above the floor: feasible, and no faster than the generous pick.
  c.energy_budget_j = floor_j * 1.01;
  const GovernorDecision tight = gov.decide(kCpuWork, 4, c);
  EXPECT_EQ(tight.policy, "budget");
  EXPECT_GE(tight.busy_s, generous.busy_s);
  EXPECT_LE(tight.state.freq_ghz, generous.state.freq_ghz);
}

TEST(GovernorDecide, BudgetWinsOverDeadlineWinsOverPolicy) {
  const Governor gov = server_gov();
  QueryConstraint c;
  c.policy = Policy::kThroughput;
  EXPECT_LT(gov.decide(kCpuWork, 1, c).state.freq_ghz,
            gov.machine().dvfs.fastest().freq_ghz);
  c.deadline_s = 1e-9;  // unattainable: the deadline arm's f_max fallback
  EXPECT_DOUBLE_EQ(gov.decide(kCpuWork, 1, c).state.freq_ghz,
                   gov.machine().dvfs.fastest().freq_ghz);
  c.energy_budget_j = 1e-9;
  EXPECT_EQ(gov.decide(kCpuWork, 1, c).policy, "budget-infeasible");
}

TEST(GovernorDecide, SlowdownIsRelativeToFmax) {
  const hw::MachineSpec m = hw::MachineSpec::server();
  EXPECT_DOUBLE_EQ(slowdown(m, m.dvfs.fastest()), 1.0);
  EXPECT_DOUBLE_EQ(slowdown(m, m.dvfs.slowest()),
                   m.dvfs.fastest().freq_ghz / m.dvfs.slowest().freq_ghz);
}

}  // namespace
}  // namespace eidb::sched
