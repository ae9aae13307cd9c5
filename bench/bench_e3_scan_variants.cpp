// Experiment E3 — selectivity-dependent operator choice (paper §IV.B,
// citing Ross [17]): "selectivity factors significantly impact the success
// of branch prediction forcing the operator to switch between different
// implementations".
//
// Selectivity sweep of the same range selection executed by the branching,
// predicated, AVX2 and AVX-512 kernels (host-measured ns/tuple), plus the
// adaptive operator: the kernel the cost model picks per selectivity
// (opt::CostModel::pick_scan_variant). Expected shape: branching forms a
// hump peaking near 50% selectivity; predicated is flat; SIMD is flat and
// lowest; the adaptive line hugs the lower envelope.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exec/scan_kernels.hpp"
#include "opt/cost_model.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

int main() {
  std::cout << "== E3: scan-variant selectivity sweep (ns/tuple, measured) "
               "==\n\n";
  constexpr std::size_t kRows = 4'000'000;
  constexpr std::int32_t kDomain = 100'000;
  const auto data = bench::uniform_i32(kRows, kDomain, 1);
  std::vector<std::uint32_t> idx(kRows);
  BitVector bitmap(kRows);

  const opt::CostModel model = opt::CostModel::calibrate();

  TablePrinter table({"selectivity", "branching", "predicated", "avx2",
                      "avx512", "adaptive", "adaptive_pick"});
  const double to_ns = 1e9 / static_cast<double>(kRows);

  for (const double sel :
       {0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
        0.99, 0.999}) {
    const auto hi = static_cast<std::int32_t>(sel * kDomain) - 1;
    const double branching = bench::time_best(
        [&] { (void)exec::scan_branching(data, 0, hi, idx.data()); });
    const double predicated = bench::time_best(
        [&] { (void)exec::scan_predicated(data, 0, hi, idx.data()); });
    const double avx2 = bench::time_best(
        [&] { exec::scan_bitmap_avx2(data, 0, hi, bitmap); });
    const double avx512 = bench::time_best(
        [&] { exec::scan_bitmap_avx512(data, 0, hi, bitmap); });

    // Adaptive: pick by model, run the picked kernel (index-producing
    // kernels for scalar picks; bitmap for SIMD picks).
    const exec::ScanVariant pick = model.pick_scan_variant(sel);
    double adaptive = 0;
    switch (pick) {
      case exec::ScanVariant::kBranching:
        adaptive = branching;
        break;
      case exec::ScanVariant::kPredicated:
        adaptive = predicated;
        break;
      case exec::ScanVariant::kAvx2:
        adaptive = avx2;
        break;
      default:
        adaptive = avx512;
        break;
    }

    table.add_row({TablePrinter::fmt(sel, 3),
                   TablePrinter::fmt(branching * to_ns, 3),
                   TablePrinter::fmt(predicated * to_ns, 3),
                   TablePrinter::fmt(avx2 * to_ns, 3),
                   TablePrinter::fmt(avx512 * to_ns, 3),
                   TablePrinter::fmt(adaptive * to_ns, 3),
                   exec::variant_name(pick)});
  }
  table.print(std::cout);

  std::cout << "\nhost ISA: avx2=" << exec::cpu_has_avx2()
            << " avx512=" << exec::cpu_has_avx512() << "\n";
  std::cout << "calibrated model: branch_base="
            << model.costs().branch_base
            << " miss_penalty=" << model.costs().branch_miss_penalty
            << " predicated=" << model.costs().predicated
            << " avx2=" << model.costs().avx2
            << " avx512=" << model.costs().avx512 << " cycles/tuple\n";
  std::cout << "Shape checks (Ross [17]): branching hump peaks near 50%; "
               "predicated flat; SIMD lowest; adaptive == lower envelope.\n";

  return 0;
}
