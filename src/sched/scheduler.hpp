// Query-stream scheduler: response time vs. throughput under an energy cap.
//
// §IV "Performance": "we see application domains ... where throughput
// optimization is more important than response time optimization of a
// single query ... which is also highly correlated to improved energy
// efficiency." And §IV "Energy efficiency": "the system has to flexibly
// balance query response time minimization and throughput maximization
// under a given energy constraint on a case-by-case basis."
//
// Discrete-event simulation of a k-core server executing a stream of
// queries (experiment E8) under the stream policies of sched/governor.hpp.
// Every simulated query is decided exactly as a live one: the kEnergyCap
// check (policy_in_force) on the rolling average power, then
// Governor::decide on the query's work — the kernel the serving tier runs
// through the plan governor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "sched/governor.hpp"

namespace eidb::sched {

/// One query in the arrival stream.
struct QueryArrival {
  double arrive_s = 0;
  hw::Work work;
};

/// Aggregate outcome of a simulated run.
struct ScheduleResult {
  std::size_t queries = 0;
  double makespan_s = 0;
  double mean_latency_s = 0;
  double p95_latency_s = 0;
  double throughput_qps = 0;
  double energy_j = 0;
  double avg_power_w = 0;
  double energy_per_query_j = 0;
};

class StreamScheduler {
 public:
  StreamScheduler(hw::MachineSpec machine, Policy policy,
                  double power_cap_w = 0);

  /// Simulates the stream (arrivals must be sorted by arrive_s). Each query
  /// occupies one core; queries queue FIFO when all cores are busy.
  [[nodiscard]] ScheduleResult run(const std::vector<QueryArrival>& stream);

  /// The decision for one query of `work` dispatched at rolling average
  /// power `rolling_power_w`: one core, the policy in force.
  [[nodiscard]] GovernorDecision decide(const hw::Work& work,
                                        double rolling_power_w) const;

 private:
  hw::MachineSpec machine_;
  Governor governor_;
  Policy policy_;
  double power_cap_w_;
};

/// Poisson arrivals of identical queries (workload generator for E8).
[[nodiscard]] std::vector<QueryArrival> poisson_stream(std::size_t count,
                                                       double rate_qps,
                                                       const hw::Work& work,
                                                       std::uint64_t seed);

}  // namespace eidb::sched
