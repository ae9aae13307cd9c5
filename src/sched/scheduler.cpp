#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace eidb::sched {

StreamScheduler::StreamScheduler(hw::MachineSpec machine, Policy policy,
                                 double power_cap_w)
    : machine_(std::move(machine)),
      governor_(machine_),
      policy_(policy),
      power_cap_w_(power_cap_w) {}

GovernorDecision StreamScheduler::decide(const hw::Work& work,
                                         double rolling_power_w) const {
  QueryConstraint constraint;
  constraint.policy = policy_in_force(policy_, rolling_power_w, power_cap_w_);
  return governor_.decide(work, /*cores=*/1, constraint);
}

ScheduleResult StreamScheduler::run(const std::vector<QueryArrival>& stream) {
  ScheduleResult res;
  res.queries = stream.size();
  if (stream.empty()) return res;
  EIDB_EXPECTS(std::is_sorted(stream.begin(), stream.end(),
                              [](const QueryArrival& a, const QueryArrival& b) {
                                return a.arrive_s < b.arrive_s;
                              }));

  // Min-heap of core-free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> cores;
  for (int c = 0; c < machine_.cores; ++c) cores.push(0.0);

  StreamingStats latency;
  PercentileTracker latency_p;
  double busy_energy_j = 0;
  double busy_core_seconds = 0;
  double last_done = 0;
  double energy_so_far = 0;  // busy energy accumulated, for the cap policy

  for (const QueryArrival& q : stream) {
    const double core_free = cores.top();
    cores.pop();
    const double start = std::max(q.arrive_s, core_free);
    // Rolling average power estimate for the cap policy: busy energy so far
    // plus static floor, over elapsed time.
    const double elapsed = std::max(start, 1e-9);
    const double avg_power =
        (energy_so_far + machine_.idle_power_w() * elapsed) / elapsed;
    const GovernorDecision d = decide(q.work, avg_power);

    const double exec = d.busy_s;
    const double done = start + exec;
    const double busy_j =
        machine_.incremental_busy_energy_j(q.work, d.state, exec);
    busy_energy_j += busy_j;
    energy_so_far += busy_j;
    busy_core_seconds += exec;
    cores.push(done);
    last_done = std::max(last_done, done);
    const double lat = done - q.arrive_s;
    latency.add(lat);
    latency_p.add(lat);
  }

  res.makespan_s = last_done;
  res.mean_latency_s = latency.mean();
  res.p95_latency_s = latency_p.percentile(95);
  res.throughput_qps = static_cast<double>(stream.size()) / last_done;
  // Total energy = static floor over the makespan + dynamic busy energy.
  res.energy_j = machine_.idle_power_w() * last_done + busy_energy_j;
  res.avg_power_w = res.energy_j / last_done;
  res.energy_per_query_j = res.energy_j / static_cast<double>(stream.size());
  return res;
}

std::vector<QueryArrival> poisson_stream(std::size_t count, double rate_qps,
                                         const hw::Work& work,
                                         std::uint64_t seed) {
  EIDB_EXPECTS(rate_qps > 0);
  Pcg32 rng(seed);
  std::vector<QueryArrival> stream;
  stream.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Exponential inter-arrival times.
    const double u = std::max(rng.next_double(), 1e-12);
    t += -std::log(u) / rate_qps;
    stream.push_back({t, work});
  }
  return stream;
}

}  // namespace eidb::sched
