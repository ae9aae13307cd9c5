// Experiment E5 — scans on compressed (bit-packed) columns (paper §IV.B:
// "main memory is the new disk ... cache lines may be considered the new
// block size"). Narrow widths move fewer bytes; with SIMD-friendly widths
// the scan runs directly on the packed image and beats the raw scan once
// memory-bound.
//
// Width sweep: host-measured scan throughput on packed data vs. the raw
// 64-bit scan, plus the decompress-then-scan arm, with modeled energy.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exec/scan_kernels.hpp"
#include "query/executor.hpp"
#include "storage/bitpack.hpp"
#include "util/table_printer.hpp"

using namespace eidb;

namespace {

/// End-to-end arm: the same query through query::Executor with the
/// compressed segments on vs off — what the kernel sweep above predicts,
/// measured through the whole pipeline with real DRAM-ledger attribution.
void run_pipeline_arm(const hw::MachineSpec& machine, bench::BenchJson& json,
                      std::size_t rows) {
  storage::Catalog catalog;
  storage::Table& t = catalog.add(storage::Table(
      "events", storage::Schema({{"code", storage::TypeId::kInt64},
                                 {"val", storage::TypeId::kInt32}})));
  {
    Pcg32 rng(11);
    std::vector<std::int64_t> code(rows);
    std::vector<std::int32_t> val(rows);
    for (auto& v : code)
      v = static_cast<std::int64_t>(rng.next() & 0xfffff);  // 20-bit domain
    for (auto& v : val)
      v = static_cast<std::int32_t>(rng.next_bounded(10'000));
    t.set_column(0, storage::Column::from_int64("code", code));
    t.set_column(1, storage::Column::from_int32("val", val));
  }
  query::Executor ex(catalog);
  const auto plan = query::QueryBuilder("events")
                        .filter_int("code", 0x10000, 0x4ffff)  // ~25%
                        .group_by("val")
                        .aggregate(query::AggOp::kCount)
                        .aggregate(query::AggOp::kSum, "code")
                        .build();

  // Two energy figures per arm:
  //  * wall_J       — measured wall time on THIS host × modeled power (a
  //    1-core VM is compute-bound, so packed may not win here);
  //  * attributed_J — the engine's own settlement quantum: roofline
  //    execution time of the attributed work on the reference server spec
  //    plus its DRAM-lane energy. This is what the admission controller
  //    debits, and it tracks the ledger's packed byte counts directly.
  TablePrinter table({"arm", "time_ms", "dram_MB", "wall_J", "attributed_J",
                      "attr_vs_plain"});
  double plain_attr = 0;
  const hw::DvfsState state = machine.dvfs.fastest();
  for (const bool packed : {false, true}) {
    query::ExecOptions options;
    options.use_encodings = packed;
    query::ExecStats probe;
    (void)ex.execute(plan, probe, options);
    const double wall_s = bench::time_best([&] {
      query::ExecStats stats;
      (void)ex.execute(plan, stats, options);
    });
    const double wall_j =
        bench::modeled_joules(machine, wall_s, probe.work.dram_bytes);
    const double attributed_j = machine.energy_j(probe.work, state);
    if (!packed) plain_attr = attributed_j;
    const char* arm = packed ? "pipeline-packed" : "pipeline-plain";
    table.add_row({arm, TablePrinter::fmt(wall_s * 1e3, 4),
                   TablePrinter::fmt(probe.work.dram_bytes / 1e6, 3),
                   TablePrinter::fmt(wall_j, 4),
                   TablePrinter::fmt(attributed_j, 4),
                   TablePrinter::fmt(plain_attr / attributed_j, 3)});
    const std::string prefix = packed ? "pipeline_packed" : "pipeline_plain";
    json.add(prefix + "_wall_s", wall_s);
    json.add(prefix + "_wall_joules", wall_j);
    json.add(prefix + "_attributed_joules", attributed_j);
    json.add(prefix + "_dram_bytes", probe.work.dram_bytes);
  }
  std::cout << "\n== E5b: the same effect in the query pipeline ("
            << rows << " rows, filter+group-by) ==\n\n";
  table.print(std::cout);
  std::cout << "(the packed arm streams the bit-packed images: the DRAM "
               "ledger and the attributed/settled joules drop with the "
               "byte count; wall time additionally drops once the host is "
               "memory-bound)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E5: scans on bit-packed columns ==\n\n";
  const hw::MachineSpec machine = hw::MachineSpec::server();
  bench::BenchJson json("e5_compressed_scan");

  const std::size_t kRows =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1]))
               : 16'000'000;  // 122 MiB raw, LLC-busting
  json.add("rows", static_cast<double>(kRows));
  Pcg32 rng(3);

  // Raw baseline: 64-bit values in a 20-bit domain.
  std::vector<std::int64_t> raw(kRows);
  for (auto& v : raw)
    v = static_cast<std::int64_t>(rng.next() & 0xfffff);
  BitVector sel(kRows);
  const std::int64_t lo = 0x10000, hi = 0x4ffff;  // ~25% selectivity

  const double raw_s = bench::time_best(
      [&] { exec::scan_bitmap_best64(raw, lo, hi, sel); }, 0.4);
  const double raw_gbps = kRows * 8.0 / raw_s / 1e9;
  std::cout << "raw 64-bit scan: "
            << kRows / raw_s / 1e6 << " Mtuples/s (" << raw_gbps
            << " GB/s touched), modeled "
            << bench::modeled_joules(machine, raw_s, kRows * 8.0) << " J\n\n";

  TablePrinter table({"bits", "packed_MiB", "scan_Mtps", "vs_raw",
                      "unpack_then_scan_Mtps", "modeled_nJ_per_tuple"});
  BitVector ref(kRows);

  for (const unsigned bits : {4u, 8u, 12u, 16u, 20u, 24u, 32u}) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> values(kRows);
    for (auto& v : values) v = rng.next64() & mask;
    const auto packed = storage::bitpack(values, bits);
    const std::uint64_t plo = mask / 4, phi = mask / 2;

    const double packed_s = bench::time_best(
        [&] {
          exec::scan_packed_bitmap_range(packed, bits, 0, kRows, plo, phi,
                                         sel);
        },
        0.4);

    // Decompress-then-scan arm.
    std::vector<std::uint64_t> scratch(kRows);
    const double unpack_scan_s = bench::time_best(
        [&] {
          storage::bitunpack(packed, bits, kRows, scratch);
          exec::scan_bitmap_best64(
              std::span<const std::int64_t>(
                  reinterpret_cast<const std::int64_t*>(scratch.data()),
                  kRows),
              static_cast<std::int64_t>(plo), static_cast<std::int64_t>(phi),
              ref);
        },
        0.4);

    const double bytes_touched = static_cast<double>(packed.size() * 8);
    const double nj_per_tuple =
        bench::modeled_joules(machine, packed_s, bytes_touched) / kRows * 1e9;

    table.add_row(
        {TablePrinter::fmt_int(bits),
         TablePrinter::fmt(bytes_touched / (1 << 20), 4),
         TablePrinter::fmt(kRows / packed_s / 1e6, 4),
         TablePrinter::fmt(raw_s / packed_s, 3),
         TablePrinter::fmt(kRows / unpack_scan_s / 1e6, 4),
         TablePrinter::fmt(nj_per_tuple, 3)});
  }
  table.print(std::cout);

  std::cout << "\nShape checks: byte-aligned widths (8/16/32) scan the "
               "packed image directly with SIMD and beat the raw scan by "
               "the bandwidth ratio; odd widths pay scalar unpacking; "
               "scan-on-packed always beats decompress-then-scan; energy "
               "per tuple falls with width (fewer DRAM bytes).\n";

  run_pipeline_arm(machine, json, kRows);
  std::cout << "wrote " << json.write() << "\n";
  return 0;
}
