// Experiment P1 — the single-pass vectorized aggregation pipeline.
//
// Same queries, three configurations of the one aggregation path
// (exec/vector_agg: all aggregates in ONE pass over each input column,
// key ranges from the cached ColumnStats):
//   * vectorized         — plain column arrays, serial (the reference
//                          column: speedup and J_ratio are relative to it);
//   * vectorized+packed  — the bit-packed column images (the default);
//   * vectorized+pool    — packed and morsel-parallel on a worker pool.
//
// The DRAM ledger (ExecStats.work.dram_bytes) shows the single-pass
// property directly; modeled joules drop with it — the paper's "fastest
// plan is the greenest" applied to the engine's own hot path.
//
// Usage: bench_p1_pipeline [rows]   (default 10M; CI uses fewer)
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "query/executor.hpp"
#include "sched/thread_pool.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

struct PathResult {
  double wall_s = 0;
  double joules = 0;
  double dram_bytes = 0;
  std::uint64_t groups = 0;
};

PathResult run_path(query::Executor& ex, const query::LogicalPlan& plan,
                    const query::ExecOptions& options,
                    const hw::MachineSpec& machine) {
  PathResult r;
  query::ExecStats probe;  // one untimed run for the stats snapshot
  (void)ex.execute(plan, probe, options);
  r.dram_bytes = probe.work.dram_bytes;
  r.groups = probe.groups;
  r.wall_s = bench::time_best([&] {
    query::ExecStats stats;
    (void)ex.execute(plan, stats, options);
  });
  r.joules = bench::modeled_joules(machine, r.wall_s, r.dram_bytes);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 10'000'000;
  std::cout << "== P1: single-pass vectorized aggregation pipeline ("
            << rows << " rows) ==\n\n";
  const hw::MachineSpec machine = hw::MachineSpec::server();

  // sales(k int32[1000 groups], v1 int64, v2 int32, v3 double)
  storage::Catalog catalog;
  storage::Table& sales = catalog.add(storage::Table(
      "sales", storage::Schema({{"k", storage::TypeId::kInt32},
                                {"v1", storage::TypeId::kInt64},
                                {"v2", storage::TypeId::kInt32},
                                {"v3", storage::TypeId::kDouble}})));
  {
    const auto k = bench::uniform_i32(rows, 1000, 1);
    const auto v1 = bench::uniform_i64(rows, 1'000'000, 2);
    const auto v2 = bench::uniform_i32(rows, 10'000, 3);
    std::vector<double> v3(rows);
    Pcg32 rng(4);
    for (auto& x : v3) x = rng.next_double() * 100.0;
    sales.set_column(0, storage::Column::from_int32("k", k));
    sales.set_column(1, storage::Column::from_int64("v1", v1));
    sales.set_column(2, storage::Column::from_int32("v2", v2));
    sales.set_column(3, storage::Column::from_double("v3", v3));
  }
  query::Executor ex(catalog);

  // Q1: multi-aggregate group-by (the serving tier's hottest shape).
  const auto q1 = query::QueryBuilder("sales")
                      .filter_int("v1", 0, 800'000)  // ~80% selectivity
                      .group_by("k")
                      .aggregate(query::AggOp::kCount)
                      .aggregate(query::AggOp::kSum, "v1")
                      .aggregate(query::AggOp::kMin, "v2")
                      .aggregate(query::AggOp::kMax, "v2")
                      .aggregate(query::AggOp::kAvg, "v3")
                      .build();
  // Q2: global multi-aggregate over ONE column — four aggregates, one
  // pass.
  const auto q2 = query::QueryBuilder("sales")
                      .aggregate(query::AggOp::kSum, "v1")
                      .aggregate(query::AggOp::kMin, "v1")
                      .aggregate(query::AggOp::kMax, "v1")
                      .aggregate(query::AggOp::kAvg, "v1")
                      .build();

  // Plain vectorized isolates the single-pass effect; the packed arm adds
  // the compressed column segments (the production default) on top.
  query::ExecOptions vectorized;
  vectorized.use_encodings = false;
  query::ExecOptions vec_packed;  // defaults: vectorized + packed segments
  sched::ThreadPool pool;
  query::ExecOptions vec_parallel;
  vec_parallel.pool = &pool;

  bench::BenchJson json("p1_pipeline");
  json.add("rows", static_cast<double>(rows));
  TablePrinter table({"query", "path", "time_ms", "modeled_J", "dram_MB",
                      "speedup", "J_ratio"});

  const auto compare = [&](const char* qname, const query::LogicalPlan& q) {
    const PathResult base = run_path(ex, q, vectorized, machine);
    const PathResult packed = run_path(ex, q, vec_packed, machine);
    const PathResult par = run_path(ex, q, vec_parallel, machine);
    const auto add = [&](const char* path, const PathResult& r) {
      table.add_row({qname, path, TablePrinter::fmt(r.wall_s * 1e3, 4),
                     TablePrinter::fmt(r.joules, 4),
                     TablePrinter::fmt(r.dram_bytes / 1e6, 3),
                     TablePrinter::fmt(base.wall_s / r.wall_s, 3),
                     TablePrinter::fmt(base.joules / r.joules, 3)});
      const std::string prefix = std::string(qname) + "_" + path;
      json.add(prefix + "_wall_s", r.wall_s);
      json.add(prefix + "_joules", r.joules);
      json.add(prefix + "_dram_bytes", r.dram_bytes);
    };
    add("vectorized", base);
    add("vectorized+packed", packed);
    add("vectorized+pool", par);
  };
  compare("q1_groupby", q1);
  compare("q2_global", q2);

  table.print(std::cout);
  std::cout << "(vectorized touches each input column once: dram_MB is the "
               "single-pass floor; +packed charges the bit-packed images "
               "instead of plain widths; joules track bytes + time)\n";
  std::cout << "wrote " << json.write() << "\n";
  return 0;
}
