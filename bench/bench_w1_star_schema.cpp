// W1 — star-schema analytical workload (paper §II: "more and more
// analytical applications ... multiple billion record databases"; scaled to
// laptop size). A Star-Schema-Benchmark-flavored fact table with two
// dimensions; six query classes run through the full public API, each
// reporting time AND energy — the per-query currency the paper wants
// optimizers to spend.
//
//   Q1  flight-style filter + aggregate (no join)
//   Q2  filter via zone maps on the clustered date key
//   Q3  dimension join + aggregate
//   Q4  grouped rollup by dimension attribute
//   Q5  dimension join, two-sided filters
//   Q6  join + GROUP BY the dimension attribute (vectorized path only)
//   Q7  multi-way grouped star join (fact + 2 dimensions) with
//       ORDER BY + LIMIT — the physical-plan compiler's full pipeline
//       (join ordering, chained probes, result top-k)
//   Q8  string-keyed star join: the fact side probes on dictionary
//       codes, the dimension's codes are remapped across dictionaries
//       once, and no string is materialized before projection
//
// A second section pits the cost model's join-arm pick (kAuto) against
// each pinned arm — dense direct-address array, one hash table,
// radix-partitioned — on the join-heavy queries, all on the vectorized
// block-at-a-time pipeline (packed key probing, morsel-parallel probe),
// and everything lands in BENCH_w1_star_schema.json for CI trend
// tracking.
//
// Usage: bench_w1_star_schema [fact_rows]   (default 4,000,000)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/database.hpp"
#include "exec/parallel.hpp"
#include "hw/sync_sim.hpp"
#include "opt/cost_model.hpp"
#include "query/physical_plan.hpp"
#include "query/plan_governor.hpp"
#include "query/sql.hpp"
#include "sched/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

constexpr std::int64_t kDates = 2556;      // 7 years of days
constexpr std::int64_t kCustomers = 30'000;

void load(core::Database& db, std::size_t fact_rows) {
  using storage::Column;
  using storage::Schema;
  using storage::TypeId;

  Pcg32 rng(1994);  // SSB's base year
  storage::Table& lineorder = db.create_table(
      "lineorder", Schema({{"orderdate", TypeId::kInt64},
                           {"custkey", TypeId::kInt64},
                           {"quantity", TypeId::kInt64},
                           {"discount", TypeId::kInt64},
                           {"revenue", TypeId::kInt64},
                           {"prio", TypeId::kString}}));
  std::vector<std::int64_t> odate, cust, qty, disc, rev;
  std::vector<std::string> prio;
  const char* prios[] = {"bulk", "high", "low", "mid", "rush"};
  odate.reserve(fact_rows);
  for (std::size_t i = 0; i < fact_rows; ++i) {
    // Clustered by date (append order), the realistic fact layout.
    odate.push_back(static_cast<std::int64_t>(i * kDates / fact_rows));
    cust.push_back(rng.next_bounded(static_cast<std::uint32_t>(kCustomers)));
    qty.push_back(1 + rng.next_bounded(50));
    disc.push_back(rng.next_bounded(11));
    rev.push_back(1000 + rng.next_bounded(100'000));
    // "rush" has no dimension row: Q8's remap carries a real miss.
    prio.emplace_back(prios[rng.next_bounded(5)]);
  }
  lineorder.set_column(0, Column::from_int64("orderdate", odate));
  lineorder.set_column(1, Column::from_int64("custkey", cust));
  lineorder.set_column(2, Column::from_int64("quantity", qty));
  lineorder.set_column(3, Column::from_int64("discount", disc));
  lineorder.set_column(4, Column::from_int64("revenue", rev));
  lineorder.set_column(5, Column::from_strings("prio", prio));

  storage::Table& customer = db.create_table(
      "customer", Schema({{"custkey", TypeId::kInt64},
                          {"region", TypeId::kString},
                          {"segment", TypeId::kString}}));
  std::vector<std::int64_t> ck;
  std::vector<std::string> region, segment;
  const char* regions[] = {"africa", "america", "asia", "europe", "mideast"};
  const char* segments[] = {"auto", "building", "furniture", "machinery"};
  for (std::int64_t k = 0; k < kCustomers; ++k) {
    ck.push_back(k);
    region.emplace_back(regions[rng.next_bounded(5)]);
    segment.emplace_back(segments[rng.next_bounded(4)]);
  }
  customer.set_column(0, Column::from_int64("custkey", ck));
  customer.set_column(1, Column::from_strings("region", region));
  customer.set_column(2, Column::from_strings("segment", segment));

  // priorities(prio, factor): the string-keyed dimension. Its dictionary
  // only partially overlaps lineorder.prio — "urgent" is build-only,
  // "rush" probe-only — so the Q8 join exercises the cross-dictionary
  // remap with misses on both sides.
  storage::Table& priorities = db.create_table(
      "priorities",
      Schema({{"prio", TypeId::kString}, {"factor", TypeId::kInt64}}));
  std::vector<std::string> pnames = {"bulk", "high", "low", "mid", "urgent"};
  std::vector<std::int64_t> pfactors = {3, 8, 1, 5, 13};
  priorities.set_column(0, Column::from_strings("prio", pnames));
  priorities.set_column(1, Column::from_int64("factor", pfactors));

  storage::Table& dates = db.create_table(
      "dates", Schema({{"datekey", TypeId::kInt64},
                       {"year", TypeId::kInt64}}));
  std::vector<std::int64_t> dk, year;
  for (std::int64_t d = 0; d < kDates; ++d) {
    dk.push_back(d);
    year.push_back(1994 + d / 365);
  }
  dates.set_column(0, Column::from_int64("datekey", dk));
  dates.set_column(1, Column::from_int64("year", year));
}

/// Best-of-3 run of one statement: minimum wall seconds and the
/// attributed joules of that fastest run.
struct Measured {
  double wall_s = 1e100;
  double attributed_j = 0;
  std::size_t rows_out = 0;
};
Measured measure(core::Database& db, const std::string& sql,
                 const core::RunOptions& options, int runs = 3) {
  Measured m;
  for (int i = 0; i < runs; ++i) {
    const core::RunResult run = db.run_sql(sql, options);
    if (run.report.elapsed_s < m.wall_s) {
      m.wall_s = run.report.elapsed_s;
      m.attributed_j = run.attributed_j;
      m.rows_out = run.result.row_count();
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t fact_rows =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 4'000'000;
  std::cout << "== W1: star-schema workload (" << fact_rows
            << "-row fact table) ==\n\n";
  core::Database db;
  load(db, fact_rows);
  sched::ThreadPool pool;
  bench::BenchJson json("w1_star_schema");
  json.add("fact_rows", static_cast<double>(fact_rows));

  struct QueryCase {
    const char* id;
    const char* sql;
    bool zone_maps;
  };
  const QueryCase cases[] = {
      {"Q1-filter-agg",
       "SELECT SUM(revenue * discount / 100), COUNT(*) FROM lineorder WHERE "
       "discount BETWEEN 1 AND 3 AND quantity < 25",
       false},
      {"Q2-date-slice",
       "SELECT SUM(revenue) FROM lineorder WHERE orderdate BETWEEN 400 AND "
       "430",
       true},
      {"Q3-join-region",
       "SELECT SUM(revenue), COUNT(*) FROM lineorder JOIN customer ON "
       "lineorder.custkey = customer.custkey WHERE customer.region = "
       "'europe' AND discount BETWEEN 0 AND 2",
       false},
      {"Q4-rollup",
       "SELECT COUNT(*), SUM(revenue), AVG(quantity) FROM lineorder "
       "GROUP BY discount",
       false},
      {"Q5-join-filters",
       "SELECT COUNT(*), SUM(revenue) FROM lineorder JOIN customer ON "
       "lineorder.custkey = customer.custkey WHERE discount BETWEEN 4 AND 6 "
       "AND customer.segment = 'machinery'",
       false},
      {"Q6-join-groupby",
       "SELECT COUNT(*), SUM(revenue) FROM lineorder JOIN customer ON "
       "lineorder.custkey = customer.custkey GROUP BY customer.region",
       false},
      {"Q7-star-groupby-topk",
       "SELECT COUNT(*), SUM(revenue) FROM lineorder "
       "JOIN customer ON lineorder.custkey = customer.custkey "
       "JOIN dates ON lineorder.orderdate = dates.datekey "
       "WHERE customer.segment = 'machinery' AND dates.year <= 1996 "
       "GROUP BY customer.region ORDER BY SUM(revenue) DESC LIMIT 3",
       false},
      {"Q8-string-star",
       "SELECT COUNT(*), SUM(revenue), MAX(priorities.factor) FROM lineorder "
       "JOIN priorities ON lineorder.prio = priorities.prio "
       "JOIN customer ON lineorder.custkey = customer.custkey "
       "WHERE customer.segment = 'auto' "
       "GROUP BY priorities.prio ORDER BY SUM(revenue) DESC LIMIT 4",
       false},
  };

  TablePrinter table({"query", "rows_out", "time_ms", "energy_J", "avg_W",
                      "tuples_scanned", "J_per_Mtuple"});
  for (const QueryCase& qc : cases) {
    core::RunOptions options;
    options.exec.use_zone_maps = qc.zone_maps;
    options.exec.pool = &pool;
    (void)db.run_sql(qc.sql, options);  // warm zone-map caches etc.
    const core::RunResult run = db.run_sql(qc.sql, options);
    const double mtuples =
        static_cast<double>(run.stats.tuples_scanned) / 1e6;
    table.add_row(
        {qc.id, TablePrinter::fmt_int(
                    static_cast<long long>(run.result.row_count())),
         TablePrinter::fmt(run.report.elapsed_s * 1e3, 4),
         TablePrinter::fmt(run.report.total_j(), 4),
         TablePrinter::fmt(run.report.avg_power_w(), 4),
         TablePrinter::fmt_int(
             static_cast<long long>(run.stats.tuples_scanned)),
         TablePrinter::fmt(
             mtuples > 0 ? run.report.total_j() / mtuples : 0, 4)});
    const std::string id(qc.id);
    json.add(id + "_ms", run.report.elapsed_s * 1e3);
    json.add(id + "_J", run.report.total_j());
    json.add(id + "_attributed_J", run.attributed_j);
    json.add(id + "_dram_MB", run.stats.work.dram_bytes / 1e6);
  }
  table.print(std::cout);

  // ---- Join arms: the cost model's pick (auto) against each arm pinned
  // through the model's own KernelCosts, all on the vectorized block
  // pipeline with the pool. Same statements, same answers. The pinned twin
  // of auto's pick runs the same plan, so its gap to auto is the
  // run-to-run noise; another arm beating auto by more than that is a
  // cost-model miss. ----
  const struct {
    const char* id;
    const char* sql;
  } join_cases[] = {
      {"Q3-join-region", cases[2].sql},
      {"QJ-join-full",
       "SELECT SUM(revenue), COUNT(*) FROM lineorder JOIN customer ON "
       "lineorder.custkey = customer.custkey"},
  };
  // The customer keys are dense, so the dense arm is the defaults' pick.
  // Hash and radix take no dense domain; hash a cache budget no build
  // reaches, radix one of kCustomers / 16 rows, under which
  // pick_radix_bits keeps the default model's 4 bits for every build.
  const auto pinned = [&](opt::JoinArm arm) {
    opt::KernelCosts costs = db.cost_model().costs();
    if (arm != opt::JoinArm::kDenseJoin) costs.dense_join_max_domain = 0;
    if (arm == opt::JoinArm::kHashJoin)
      costs.join_cache_build_entries = std::uint64_t{1} << 40;
    if (arm == opt::JoinArm::kRadixJoin)
      costs.join_cache_build_entries = std::uint64_t{kCustomers} >> 4;
    return opt::CostModel(costs);
  };
  const opt::CostModel dense = pinned(opt::JoinArm::kDenseJoin);
  const opt::CostModel hash = pinned(opt::JoinArm::kHashJoin);
  const opt::CostModel radix = pinned(opt::JoinArm::kRadixJoin);
  const struct {
    const char* name;
    const opt::CostModel* model;
    opt::JoinArm arm;
  } join_arms[] = {{"dense", &dense, opt::JoinArm::kDenseJoin},
                   {"hash", &hash, opt::JoinArm::kHashJoin},
                   {"radix", &radix, opt::JoinArm::kRadixJoin}};
  std::cout << "\njoin arm comparison (best of 3; vs_auto = arm / auto):\n";
  TablePrinter arms({"query", "arm", "time_ms", "attributed_J",
                     "vs_auto_time", "vs_auto_J"});
  for (const auto& jc : join_cases) {
    core::RunOptions auto_opts;
    auto_opts.exec.pool = &pool;
    auto_opts.exec.cost_model = &db.cost_model();
    const query::LogicalPlan plan = query::parse_sql(jc.sql);
    const std::string picked = opt::join_arm_name(
        query::compile_plan(db.catalog(), plan, auto_opts.exec)
            .joins.front()
            .arm);
    const Measured base = measure(db, jc.sql, auto_opts);
    const auto add = [&](const std::string& name, const std::string& label,
                         const Measured& m) {
      arms.add_row({jc.id, label, TablePrinter::fmt(m.wall_s * 1e3, 4),
                    TablePrinter::fmt(m.attributed_j, 4),
                    TablePrinter::fmt(m.wall_s / base.wall_s, 2),
                    TablePrinter::fmt(m.attributed_j / base.attributed_j, 2)});
      const std::string prefix = std::string(jc.id) + "_" + name;
      json.add(prefix + "_ms", m.wall_s * 1e3);
      json.add(prefix + "_attributed_J", m.attributed_j);
    };
    add("auto", "auto (" + picked + ")", base);
    for (const auto& arm : join_arms) {
      core::RunOptions options = auto_opts;
      options.exec.cost_model = arm.model;
      const opt::JoinArm ran =
          query::compile_plan(db.catalog(), plan, options.exec)
              .joins.front()
              .arm;
      if (ran != arm.arm) {
        std::cerr << jc.id << ": the " << arm.name << " pin compiled to "
                  << opt::join_arm_name(ran) << "\n";
        return 1;
      }
      add(arm.name, arm.name, measure(db, jc.sql, options));
    }
  }
  arms.print(std::cout);

  // ---- Per-operator attribution of the multi-way star join (Q7): the
  // compiled physical plan plus the operator-level time/DRAM/joule split
  // whose work deltas sum to the query totals. ----
  {
    core::RunOptions options;
    options.exec.pool = &pool;
    const auto plan = query::parse_sql(cases[6].sql);
    std::cout << "\n" << db.explain(plan, options);
    const core::RunResult run = db.run_sql(cases[6].sql, options);
    std::cout << "\nQ7 per-operator attribution:\n"
              << query::format_operator_stats(run.stats, db.machine(),
                                              db.machine().dvfs.fastest());
  }

  // ---- Q7 thread-scaling sweep: morsel parallelism across the whole
  // plan (scan -> chained joins -> grouped agg -> top-k). Each arm runs
  // the real work-stealing pool at 1/2/4/8 workers; every pass with at
  // least one morsel of live rows fans out (exec::pass_chunks), smaller
  // ones run as one chunk, and the per-operator work deltas stay
  // byte-exact at every width. Wall-clock scaling is
  // then projected on the 8-core server spec via the contention
  // simulator (this host has one vCPU; DESIGN.md §5 substitution
  // convention), splitting Q7's *measured* per-operator work into its
  // parallel phase (scan/join/agg morsels) and serial tail (top-k merge
  // + materialize), with a 1% per-morsel critical section for the shared
  // aggregation state. ----
  {
    std::cout << "\nQ7 thread-scaling sweep (best of 3 per arm):\n";
    const std::string q7_id(cases[6].id);
    const char* q7_sql = cases[6].sql;
    const hw::MachineSpec server = hw::MachineSpec::server();
    const hw::DvfsState fmax = server.dvfs.fastest();
    TablePrinter sweep({"threads", "wall_ms", "attributed_J", "model_ms",
                        "model_speedup", "model_J"});
    for (const int n : {1, 2, 4, 8}) {
      sched::ThreadPool sweep_pool(static_cast<std::size_t>(n));
      core::RunOptions options;
      options.exec.pool = &sweep_pool;
      const Measured m = measure(db, q7_sql, options);
      const core::RunResult run = db.run_sql(q7_sql, options);

      // Split measured work by operator kind: morsel-parallel phases vs
      // the serial merge tail.
      hw::Work par_work, tail_work;
      for (const query::OperatorStats& op : run.stats.operators) {
        const query::OperatorKind kind = query::classify_operator(op.name);
        if (kind == query::OperatorKind::kSort ||
            kind == query::OperatorKind::kMaterialize) {
          tail_work += op.work;
        } else {
          par_work += op.work;
        }
      }
      const double par_s = server.exec_time_s(par_work, fmax, 1.0);
      const std::int64_t tasks = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(fact_rows / exec::kDefaultMorselRows));
      hw::SyncWorkload wl;
      wl.tasks = tasks;
      wl.parallel_s = par_s * 0.99 / static_cast<double>(tasks);
      wl.critical_s = par_s * 0.01 / static_cast<double>(tasks);
      wl.final_serial_s = server.exec_time_s(tail_work, fmax, 1.0);
      const hw::SyncResult sim = hw::simulate_sync(wl, n, server, fmax);

      sweep.add_row({TablePrinter::fmt_int(n),
                     TablePrinter::fmt(m.wall_s * 1e3, 4),
                     TablePrinter::fmt(m.attributed_j, 4),
                     TablePrinter::fmt(sim.makespan_s * 1e3, 4),
                     TablePrinter::fmt(sim.speedup, 2),
                     TablePrinter::fmt(sim.energy_j, 4)});
      const std::string arm = q7_id + "_threads" + std::to_string(n);
      json.add(arm + "_ms", m.wall_s * 1e3);
      json.add(arm + "_attributed_J", m.attributed_j);
      json.add(arm + "_model_ms", sim.makespan_s * 1e3);
      json.add(arm + "_model_speedup", sim.speedup);
      json.add(arm + "_model_J", sim.energy_j);
    }
    sweep.print(std::cout);
    std::cout << "(model columns: Q7's measured per-operator work replayed "
                 "on the 8-core server spec; attributed joules are "
                 "work-based, so they stay flat as threads scale)\n";
  }

  // ---- Sharded arm: Q7/Q8 over a hash-partitioned fact table. Shards
  // fan out over the pool, partials (or gathered row ids) ship to the
  // coordinator through the modeled cluster links with a per-link codec
  // choice, and the wire bytes/joules land in the ledger's wire scope —
  // the network cost of scale-out next to the single-node numbers. At
  // one shard the fact table lives on the coordinator and the wire
  // columns must read exactly zero. ----
  {
    std::cout << "\nsharded execution (hash-partitioned fact table, modeled "
                 "10GbE links, best of 3):\n";
    TablePrinter sharded({"query", "shards", "wall_ms", "wire_MB",
                          "wire_J", "total_J"});
    for (const QueryCase* qc : {&cases[6], &cases[7]}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        db.catalog().get("lineorder").build_partitions("custkey", shards);
        core::RunOptions options;
        options.exec.pool = &pool;
        options.exec.shard_count = shards;
        const Measured m = measure(db, qc->sql, options);
        const core::RunResult run = db.run_sql(qc->sql, options);
        sharded.add_row(
            {qc->id, TablePrinter::fmt_int(static_cast<long long>(shards)),
             TablePrinter::fmt(m.wall_s * 1e3, 4),
             TablePrinter::fmt(run.stats.work.net_bytes / 1e6, 4),
             TablePrinter::fmt(run.stats.wire_energy_j, 6),
             TablePrinter::fmt(run.attributed_j, 4)});
        const std::string arm =
            std::string(qc->id) + "_sharded" + std::to_string(shards);
        json.add(arm + "_ms", m.wall_s * 1e3);
        json.add(arm + "_wire_bytes", run.stats.work.net_bytes);
        json.add(arm + "_wire_J", run.stats.wire_energy_j);
        json.add(arm + "_total_J", run.attributed_j);
      }
    }
    sharded.print(std::cout);
    std::cout << "(total_J = attributed joules including the modeled wire; "
                 "the wire scope of the ledger below carries the cluster's "
                 "network bill separately)\n";
  }

  std::cout << "\nper-operator energy ledger across the workload:\n"
            << db.ledger().to_string();
  std::cout << "\nShape checks: Q2's zone-mapped date slice touches ~1% of "
               "the fact table and its joules shrink accordingly (E1's "
               "claim inside a realistic workload); Q6's grouped join "
               "returns one row per region (the pre-vectorized path could "
               "not answer it at all); Q7 chains two dimension probes "
               "through the physical-plan compiler and top-ks the grouped "
               "result; in the join arm table no pinned arm should beat "
               "auto by more than the gap between auto and the pinned twin "
               "of its pick (same plan, so that gap is noise); Q8 "
               "joins on a string key end to end in the int32 code domain "
               "(one dictionary remap, no per-row string compares) and "
               "returns the four shared priorities — 'rush' rows never "
               "match.\n";
  std::cout << "\nwrote " << json.write() << "\n";
  return 0;
}
