// A1 — ablations over the design choices the core library makes.
//
//  A1.a  Zone-map block size: pruning effectiveness vs. map overhead.
//  A1.b  Dense-array vs. hash group-by: the domain-size crossover behind
//        the adaptive strategy.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exec/vector_agg.hpp"
#include "storage/zonemap.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

void ablation_zonemap_block() {
  std::cout << "[A1.a] zone-map block size (8M sorted rows, 1000-row range "
               "predicate)\n";
  std::vector<std::int64_t> sorted(8'000'000);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    sorted[i] = static_cast<std::int64_t>(i);
  TablePrinter table({"block_rows", "zones", "rows_touched", "map_KiB",
                      "scan_us"});
  for (const std::size_t block : {256u, 1024u, 4096u, 16384u, 65536u,
                                  262144u}) {
    const storage::ZoneMap zm = storage::ZoneMap::build(sorted, block);
    const std::int64_t lo = 4'000'000, hi = 4'000'999;
    std::size_t touched = 0;
    volatile std::int64_t sink = 0;
    const double s = bench::time_best([&] {
      touched = 0;
      std::int64_t acc = 0;
      for (const auto& r : zm.candidate_ranges(lo, hi, sorted.size())) {
        touched += r.end - r.begin;
        for (std::size_t i = r.begin; i < r.end; ++i)
          if (sorted[i] >= lo && sorted[i] <= hi) acc += sorted[i];
      }
      sink = acc;
    });
    (void)sink;
    table.add_row(
        {TablePrinter::fmt_int(static_cast<long long>(block)),
         TablePrinter::fmt_int(static_cast<long long>(zm.zone_count())),
         TablePrinter::fmt_int(static_cast<long long>(touched)),
         TablePrinter::fmt(zm.zone_count() * sizeof(storage::Zone) / 1024.0,
                           4),
         TablePrinter::fmt(s * 1e6, 4)});
  }
  table.print(std::cout);
  std::cout << "(small blocks prune tighter but cost map space; the default "
               "4096 sits at the knee for range predicates)\n\n";
}

void ablation_group_strategy() {
  std::cout << "[A1.b] dense vs hash group-by across key-domain sizes (2M "
               "rows)\n";
  TablePrinter table({"domain", "dense_ms", "hash_ms", "dense_speedup"});
  constexpr std::size_t kRows = 2'000'000;
  const auto vals = bench::uniform_i64(kRows, 1000, 2);
  const std::vector<exec::AggInput> inputs = {
      exec::AggInput::from(std::span<const std::int64_t>(vals))};
  BitVector sel(kRows);
  sel.set_all();
  for (const std::uint32_t domain :
       {16u, 256u, 4096u, 65536u, 262144u, 1u << 20}) {
    const auto keys = bench::uniform_i64(kRows, domain, 3);
    const auto run = [&](exec::GroupStrategy strategy) {
      return bench::time_best(
          [&] {
            (void)exec::grouped_multi_aggregate(keys, inputs, sel, {},
                                                strategy);
          },
          0.3);
    };
    const double dense_s = run(exec::GroupStrategy::kDenseArray);
    const double hash_s = run(exec::GroupStrategy::kHash);
    table.add_row({TablePrinter::fmt_int(domain),
                   TablePrinter::fmt(dense_s * 1e3, 4),
                   TablePrinter::fmt(hash_s * 1e3, 4),
                   TablePrinter::fmt(hash_s / dense_s, 3)});
  }
  table.print(std::cout);
  std::cout << "(dense accumulators win while the domain fits caches; the "
               "adaptive kAuto threshold of 2^20 slots keeps the dense arm "
               "inside its winning region)\n";
}

}  // namespace

int main() {
  std::cout << "== A1: design-choice ablations ==\n\n";
  ablation_zonemap_block();
  ablation_group_strategy();
  return 0;
}
