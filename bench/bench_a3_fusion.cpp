// A3 — operator fusion and short-circuit evaluation ablation (paper §IV.B,
// citing Neumann's compiled plans [14]).
//
// Part A: fused single-pass filter+aggregate vs. the materializing
// operator-at-a-time pipeline, across selectivities. Fusion avoids the
// bitmap write + second pass; its advantage shrinks as SIMD makes the
// materializing scan nearly free.
// Part B: conjunctive predicates with short-circuit (masked) evaluation —
// the one-member conjunct pass a solo scan runs — vs. independent full
// scans, across first-predicate selectivities.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exec/fused.hpp"
#include "exec/scan_kernels.hpp"
#include "exec/shared_scan.hpp"
#include "exec/vector_agg.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

int main() {
  std::cout << "== A3: fusion & short-circuit ablations ==\n\n";
  constexpr std::size_t kRows = 8'000'000;
  const auto keys = bench::uniform_i64(kRows, 100000, 1);
  const auto values = bench::uniform_i64(kRows, 1000, 2);
  const std::vector<exec::AggInput> inputs = {
      exec::AggInput::from(std::span<const std::int64_t>(values))};
  const hw::MachineSpec machine = hw::MachineSpec::server();

  std::cout << "[A3.a] fused filter+aggregate vs materialize-then-aggregate "
               "(8M rows)\n";
  TablePrinter fusion({"selectivity", "fused_ms", "pipeline_ms", "speedup",
                       "fused_J", "pipeline_J"});
  for (const double sel : {0.001, 0.01, 0.1, 0.3, 0.5, 0.9}) {
    const auto hi = static_cast<std::int64_t>(sel * 100000) - 1;
    const double fused_s = bench::time_best(
        [&] { (void)exec::fused_filter_aggregate(keys, 0, hi, values); },
        0.3);
    BitVector sel_bits(kRows);
    const double pipe_s = bench::time_best(
        [&] {
          exec::scan_bitmap_best64(keys, 0, hi, sel_bits);
          (void)exec::multi_aggregate(inputs, sel_bits);
        },
        0.3);
    // Fused touches keys + matching values; pipeline touches keys + bitmap
    // + matching values (bitmap traffic is tiny; count it anyway).
    const double fused_bytes = kRows * 8.0 * (1 + sel);
    const double pipe_bytes = kRows * 8.0 * (1 + sel) + kRows / 8.0 * 2;
    fusion.add_row({TablePrinter::fmt(sel, 3),
                    TablePrinter::fmt(fused_s * 1e3, 4),
                    TablePrinter::fmt(pipe_s * 1e3, 4),
                    TablePrinter::fmt(pipe_s / fused_s, 3),
                    TablePrinter::fmt(
                        bench::modeled_joules(machine, fused_s, fused_bytes),
                        3),
                    TablePrinter::fmt(
                        bench::modeled_joules(machine, pipe_s, pipe_bytes),
                        3)});
  }
  fusion.print(std::cout);

  std::cout << "\n[A3.b] conjunctive scan: short-circuit vs independent full "
               "scans (second predicate 50% selective)\n";
  TablePrinter sc({"first_pred_sel", "full_ms", "masked_ms", "speedup",
                   "words_skipped_%"});
  const auto second = bench::uniform_i64(kRows, 1000, 3);
  for (const double sel1 : {0.0001, 0.001, 0.01, 0.1, 0.5}) {
    const auto hi1 = static_cast<std::int64_t>(sel1 * 100000) - 1;
    BitVector full_sel(kRows), masked_sel(kRows), tmp(kRows);
    const double full_s = bench::time_best(
        [&] {
          exec::scan_bitmap_best64(keys, 0, hi1, full_sel);
          exec::scan_bitmap_best64(second, 0, 499, tmp);
          full_sel &= tmp;
        },
        0.3);
    // The one-member conjunct pass a solo scan runs, without a pool: the
    // second conjunct reads only the words the first left live.
    const auto conjunct = [](std::span<const std::int64_t> v,
                             std::int64_t hi) {
      exec::SharedConjunct c;
      c.kind = exec::SharedConjunct::Kind::kInt64;
      c.i64 = v;
      c.hi = hi;
      return c;
    };
    exec::SharedQuery solo{{conjunct(keys, hi1), conjunct(second, 499)},
                           &masked_sel};
    exec::SharedScanStats stats;
    const double masked_s = bench::time_best(
        [&] { exec::shared_scan(kRows, {&solo, 1}, nullptr, stats); }, 0.3);
    if (!(masked_sel == full_sel)) {
      std::cerr << "MISMATCH between masked and full conjunction!\n";
      return 1;
    }
    sc.add_row({TablePrinter::fmt(sel1, 4),
                TablePrinter::fmt(full_s * 1e3, 4),
                TablePrinter::fmt(masked_s * 1e3, 4),
                TablePrinter::fmt(full_s / masked_s, 3),
                TablePrinter::fmt(
                    100.0 * (1.0 - static_cast<double>(stats.evaluated[0][1]) /
                                       static_cast<double>(kRows)),
                    3)});
  }
  sc.print(std::cout);
  std::cout << "\nShape checks: on SIMD hosts the *vectorized* "
               "materializing pipeline beats branchy scalar fusion at every "
               "mid selectivity — the bitmap pass is nearly free at 4+ "
               "Gtuples/s, while the fused loop pays branch misses; fusion "
               "approaches parity only where its branch predicts (~0 or "
               "~100% selectivity). This reproduces the "
               "vectorization-vs-compilation finding of the post-[14] "
               "literature. Short-circuit evaluation is the clear win: "
               "selective first predicates skip >90% of the second "
               "column's words for ~2.5x, with a mild penalty once nothing "
               "can be skipped.\n";
  return 0;
}
