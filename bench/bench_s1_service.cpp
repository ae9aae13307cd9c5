// Experiment S1 — the serving tier under open-loop Poisson arrivals.
//
// The paper's §IV demand — balance response time, throughput and energy
// "under a given energy constraint ... on a case-by-case basis" — measured
// on LIVE execution: one Poisson arrival schedule replayed against a
// QueryService under each of the three policies, next to the discrete-event
// StreamScheduler simulation of the *same* schedule. Both tiers decide
// through one kernel — the kEnergyCap check (sched::policy_in_force), then
// sched::Governor::decide — so differences are queueing/measurement noise,
// not policy drift.
//
// Reported per policy: mean/p95 latency, throughput, average power and
// joules per query (idle floor + billed busy energy at each query's
// granted P-state — the same accounting the simulator uses). For the
// energy-cap policy the harness additionally tracks the rolling average
// power and reports whether it stayed under the cap.
//
//   $ ./bench_s1_service [queries_per_policy]   (default 240)
#include <algorithm>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/database.hpp"
#include "query/request.hpp"
#include "sched/scheduler.hpp"
#include "server/query_service.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

struct PolicyOutcome {
  double mean_latency_s = 0;
  double p95_latency_s = 0;
  double throughput_qps = 0;
  double avg_power_w = 0;
  double energy_per_query_j = 0;
  double peak_rolling_w = 0;  ///< Live only; 0 for simulation rows.
};

query::LogicalPlan bench_plan() {
  return query::QueryBuilder("events")
      .filter_int("severity", 6, 7)
      .aggregate(query::AggOp::kCount)
      .aggregate(query::AggOp::kSum, "latency_us")
      .build();
}

void load_events(core::Database& db, std::size_t rows) {
  storage::Table& t = db.create_table(
      "events", storage::Schema({{"id", storage::TypeId::kInt64},
                                 {"severity", storage::TypeId::kInt64},
                                 {"latency_us", storage::TypeId::kInt64}}));
  Pcg32 rng(3);
  std::vector<std::int64_t> id(rows), sev(rows), lat(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    id[i] = static_cast<std::int64_t>(i);
    sev[i] = rng.next_bounded(8);
    lat[i] = rng.next_bounded(1'000'000);
  }
  t.set_column(0, storage::Column::from_int64("id", id));
  t.set_column(1, storage::Column::from_int64("severity", sev));
  t.set_column(2, storage::Column::from_int64("latency_us", lat));
}

/// Replays `stream`'s arrival times open-loop against a fresh service.
PolicyOutcome run_live(core::Database& db,
                       const std::vector<sched::QueryArrival>& stream,
                       sched::Policy policy, double cap_w) {
  server::ServiceOptions opts;
  opts.policy = policy;
  opts.power_cap_w = cap_w;
  opts.workers = 2;
  opts.power_window_s = 0.5;
  // Race-to-idle batching for the energy-minded policies; the latency
  // policy dispatches per arrival.
  opts.coalesce_window_s = policy == sched::Policy::kLatency ? 0.0 : 0.005;
  server::QueryService service(db, opts);
  auto session = service.open_session("bench");
  const query::LogicalPlan plan = bench_plan();

  std::vector<std::future<query::QueryResponse>> futures;
  futures.reserve(stream.size());
  Stopwatch wall;
  double peak_w = 0;
  for (const sched::QueryArrival& arrival : stream) {
    const double now = wall.elapsed_seconds();
    if (arrival.arrive_s > now)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(arrival.arrive_s - now));
    futures.push_back(
        service.submit(session, query::QueryRequest::from_plan(plan)));
    peak_w = std::max(peak_w, service.stats().avg_power_w);
  }

  StreamingStats latency;
  PercentileTracker p95;
  double policy_busy_j = 0;
  for (auto& f : futures) {
    const query::QueryResponse resp = f.get();
    if (!resp.ok()) continue;
    latency.add(resp.latency_s);
    p95.add(resp.latency_s);
    policy_busy_j += resp.policy_energy_j;
  }
  const double makespan = wall.elapsed_seconds();
  service.stop();
  peak_w = std::max(peak_w, service.stats().peak_power_w);

  PolicyOutcome out;
  out.mean_latency_s = latency.mean();
  out.p95_latency_s = p95.percentile(95);
  out.throughput_qps = static_cast<double>(latency.count()) / makespan;
  // Simulator-compatible accounting: static floor over the makespan plus
  // the billed busy energy.
  const double total_j =
      db.machine().idle_power_w() * makespan + policy_busy_j;
  out.avg_power_w = total_j / makespan;
  out.energy_per_query_j = total_j / static_cast<double>(latency.count());
  out.peak_rolling_w = peak_w;
  return out;
}

/// One cell of the shared-scan sweep: closed-loop bursts of `concurrency`
/// compatible COUNT queries over the events fact table, with the serving
/// tier's scan fusion on or off.
struct SweepCell {
  double throughput_qps = 0;
  double p99_latency_s = 0;
  double joules_per_query = 0;  ///< Mean attributed (billed) J/query.
};

/// The burst members differ only in predicate bounds, so they bucket into
/// one sharing group; slot 0's bounds match across cells for comparability.
query::LogicalPlan sweep_plan(std::size_t slot) {
  const auto lo = static_cast<std::int64_t>((slot * 97'003) % 500'000);
  const auto hi = lo + 400'000 + static_cast<std::int64_t>(slot) * 10'000;
  return query::QueryBuilder("events")
      .filter_int("latency_us", lo, hi)
      .aggregate(query::AggOp::kCount)
      .build();
}

SweepCell run_sweep_cell(core::Database& db, std::size_t concurrency,
                         bool shared, std::size_t total_queries) {
  server::ServiceOptions opts;
  opts.policy = sched::Policy::kThroughput;
  // Wide enough that one burst always lands in one coalescing window;
  // pacing off so the cells compare fused work, not policy sleeps.
  opts.coalesce_window_s = 0.01;
  opts.max_batch = std::max<std::size_t>(concurrency, 2);
  opts.workers = 2;
  opts.pace_execution = false;
  opts.shared_scans = shared;
  server::QueryService service(db, opts);
  auto session = service.open_session("sweep");

  StreamingStats billed;
  PercentileTracker p99;
  std::size_t completed = 0;
  Stopwatch wall;
  for (std::size_t done = 0; done < total_queries; done += concurrency) {
    std::vector<std::future<query::QueryResponse>> futures;
    for (std::size_t slot = 0; slot < concurrency; ++slot)
      futures.push_back(service.submit(
          session, query::QueryRequest::from_plan(sweep_plan(slot))));
    for (auto& f : futures) {
      const query::QueryResponse resp = f.get();
      if (!resp.ok()) continue;
      ++completed;
      p99.add(resp.latency_s);
      billed.add(resp.billed_j);
    }
  }
  const double makespan = wall.elapsed_seconds();
  service.stop();

  SweepCell cell;
  cell.throughput_qps = static_cast<double>(completed) / makespan;
  cell.p99_latency_s = p99.percentile(99);
  cell.joules_per_query = billed.mean();
  return cell;
}

PolicyOutcome run_sim(const hw::MachineSpec& machine,
                      const std::vector<sched::QueryArrival>& stream,
                      sched::Policy policy, double cap_w) {
  sched::StreamScheduler scheduler(machine, policy, cap_w);
  const sched::ScheduleResult r = scheduler.run(stream);
  PolicyOutcome out;
  out.mean_latency_s = r.mean_latency_s;
  out.p95_latency_s = r.p95_latency_s;
  out.throughput_qps = r.throughput_qps;
  out.avg_power_w = r.avg_power_w;
  out.energy_per_query_j = r.energy_per_query_j;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t queries = 240;
  if (argc > 1) {
    try {
      queries = std::stoul(argv[1]);
    } catch (const std::exception&) {
      std::cerr << "usage: " << argv[0] << " [queries_per_policy >= 1]\n";
      return 2;
    }
    if (queries == 0) {
      std::cerr << "usage: " << argv[0] << " [queries_per_policy >= 1]\n";
      return 2;
    }
  }

  core::Database db;
  load_events(db, 200'000);
  const hw::MachineSpec& machine = db.machine();

  // Calibrate: one query's host cost and modeled work, to pick an arrival
  // rate around 60% of single-worker capacity.
  const query::LogicalPlan plan = bench_plan();
  core::RunResult probe = db.run(plan);
  probe = db.run(plan);  // Warm run, caches hot.
  const double service_s = std::max(probe.report.elapsed_s, 1e-5);
  const double rate_qps = std::clamp(0.6 / service_s, 20.0, 2000.0);
  const hw::Work per_query = probe.stats.work;

  const auto stream =
      sched::poisson_stream(queries, rate_qps, per_query, /*seed=*/42);

  // Cap between the efficient-state and f_max operating points so the
  // energy-cap policy genuinely has to throttle (computed from the live
  // latency-policy run below).
  std::cout << "== S1: serving tier, live vs. simulated, one Poisson stream "
               "==\n\n"
            << "query: ~" << service_s * 1e3 << " ms on host, stream: "
            << queries << " arrivals at " << rate_qps << " qps (seed 42)\n";

  const PolicyOutcome live_latency =
      run_live(db, stream, sched::Policy::kLatency, 0);
  // The cap policy consults the *rolling* monitor, so derive the cap from
  // the same metric: 40% of the rolling busy draw the uncapped run peaked
  // at — low enough to bind mid-stream, high enough to be satisfiable at
  // the efficient P-state.
  const double rolling_busy_w =
      live_latency.peak_rolling_w - machine.idle_power_w();
  const double cap_w = machine.idle_power_w() + 0.4 * rolling_busy_w;
  std::cout << "power cap for energy-cap policy: " << cap_w << " W (idle "
            << machine.idle_power_w() << " W + 40% of the uncapped peak "
            << "rolling busy draw, " << rolling_busy_w << " W)\n\n";

  const PolicyOutcome live_throughput =
      run_live(db, stream, sched::Policy::kThroughput, 0);
  const PolicyOutcome live_cap =
      run_live(db, stream, sched::Policy::kEnergyCap, cap_w);

  TablePrinter table({"policy", "tier", "mean_lat_ms", "p95_lat_ms",
                      "throughput_qps", "avg_W", "J_per_query"});
  const auto add = [&table](sched::Policy policy, const std::string& tier,
                            const PolicyOutcome& o) {
    table.add_row({sched::policy_name(policy), tier,
                   TablePrinter::fmt(o.mean_latency_s * 1e3, 4),
                   TablePrinter::fmt(o.p95_latency_s * 1e3, 4),
                   TablePrinter::fmt(o.throughput_qps, 4),
                   TablePrinter::fmt(o.avg_power_w, 4),
                   TablePrinter::fmt(o.energy_per_query_j, 4)});
  };
  for (const auto policy :
       {sched::Policy::kLatency, sched::Policy::kThroughput,
        sched::Policy::kEnergyCap}) {
    const double cap = policy == sched::Policy::kEnergyCap ? cap_w : 0;
    const PolicyOutcome& live = policy == sched::Policy::kLatency
                                    ? live_latency
                                : policy == sched::Policy::kThroughput
                                    ? live_throughput
                                    : live_cap;
    add(policy, "live", live);
    add(policy, "sim", run_sim(machine, stream, policy, cap));
  }
  table.print(std::cout);

  const bool held = live_cap.peak_rolling_w <= cap_w * 1.10;
  std::cout << "\nenergy-cap rolling average power: peak "
            << live_cap.peak_rolling_w << " W vs cap " << cap_w << " W -> "
            << (held ? "HELD" : "EXCEEDED")
            << " (policy reacts at the cap, so transient overshoot is "
               "bounded by one window)\n";
  std::cout << "\nShape checks: the latency policy minimizes mean/p95 "
               "latency at the highest J/query; the throughput policy paces "
               "to the efficient P-state, trading latency for fewer joules; "
               "the energy-cap run tracks f_max until the rolling average "
               "hits the cap, then degrades toward the throughput point. "
               "Live and sim rows decide through one governor kernel, so "
               "their per-policy ordering matches even where absolute "
               "figures differ "
               "(the simulator models an 8-core machine; the live tier runs "
               "on this host).\n";

  // ---- Shared-scan sweep: concurrency x {solo, shared} ----------------------
  // Bursts of compatible queries over the fact table; with sharing on the
  // service fuses each burst into one pass (Database::run_batch), so the
  // table's scan DRAM bytes are charged once per burst and the attributed
  // J/query drops toward 1/concurrency of the solo figure.
  std::cout << "\n== shared scans: burst concurrency x fusion ==\n\n";
  bench::BenchJson json("s1_service");
  TablePrinter sweep({"concurrency", "mode", "throughput_qps", "p99_lat_ms",
                      "attributed_J_per_query"});
  const std::size_t per_cell = std::max<std::size_t>(queries / 5, 24);
  double solo8_j = 0, shared8_j = 0, solo8_qps = 0, shared8_qps = 0;
  for (const std::size_t c : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    for (const bool shared : {false, true}) {
      const SweepCell cell =
          run_sweep_cell(db, c, shared, (per_cell / c) * c);
      const std::string mode = shared ? "shared" : "solo";
      sweep.add_row({std::to_string(c), mode,
                     TablePrinter::fmt(cell.throughput_qps, 4),
                     TablePrinter::fmt(cell.p99_latency_s * 1e3, 4),
                     TablePrinter::fmt(cell.joules_per_query, 4)});
      const std::string key = "c" + std::to_string(c) + "_" + mode;
      json.add(key + "_throughput_qps", cell.throughput_qps);
      json.add(key + "_p99_latency_ms", cell.p99_latency_s * 1e3);
      json.add(key + "_joules_per_query", cell.joules_per_query);
      if (c == 8 && shared) {
        shared8_j = cell.joules_per_query;
        shared8_qps = cell.throughput_qps;
      } else if (c == 8) {
        solo8_j = cell.joules_per_query;
        solo8_qps = cell.throughput_qps;
      }
    }
  }
  sweep.print(std::cout);
  const double j_ratio = shared8_j > 0 ? solo8_j / shared8_j : 0;
  const double qps_ratio = solo8_qps > 0 ? shared8_qps / solo8_qps : 0;
  json.add("c8_joules_ratio_solo_over_shared", j_ratio);
  json.add("c8_throughput_ratio_shared_over_solo", qps_ratio);
  std::cout << "\nat concurrency 8: " << j_ratio
            << "x lower attributed J/query and " << qps_ratio
            << "x the aggregate throughput with sharing on (one fused pass "
               "per burst vs one pass per member)\n";
  std::cout << "wrote " << json.write() << "\n";
  return 0;
}
