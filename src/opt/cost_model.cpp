#include "opt/cost_model.hpp"

#include <algorithm>
#include <vector>

#include "exec/aggregate.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace eidb::opt {

double CostModel::scan_cycles_per_tuple(exec::ScanVariant v,
                                        double sel) const {
  EIDB_EXPECTS(sel >= 0.0 && sel <= 1.0);
  switch (v) {
    case exec::ScanVariant::kBranching:
      // Flip probability of the selection branch on random data.
      return costs_.branch_base +
             costs_.branch_miss_penalty * 2.0 * sel * (1.0 - sel);
    case exec::ScanVariant::kPredicated:
      return costs_.predicated;
    case exec::ScanVariant::kAvx2:
      return costs_.avx2;
    case exec::ScanVariant::kAvx512:
      return costs_.avx512;
    case exec::ScanVariant::kAuto:
      return scan_cycles_per_tuple(pick_scan_variant(sel), sel);
  }
  return costs_.predicated;
}

exec::ScanVariant CostModel::pick_scan_variant(double sel, bool has_avx2,
                                               bool has_avx512) const {
  exec::ScanVariant best = exec::ScanVariant::kBranching;
  double best_cost = scan_cycles_per_tuple(best, sel);
  const auto consider = [&](exec::ScanVariant v) {
    const double c = scan_cycles_per_tuple(v, sel);
    if (c < best_cost) {
      best = v;
      best_cost = c;
    }
  };
  consider(exec::ScanVariant::kPredicated);
  if (has_avx2) consider(exec::ScanVariant::kAvx2);
  if (has_avx512) consider(exec::ScanVariant::kAvx512);
  return best;
}

exec::ScanVariant CostModel::pick_scan_variant(double sel) const {
  return pick_scan_variant(sel, exec::cpu_has_avx2(), exec::cpu_has_avx512());
}

hw::Work CostModel::scan_work(exec::ScanVariant v, std::uint64_t rows,
                              double sel, double bytes_per_tuple) const {
  return {scan_cycles_per_tuple(v, sel) * static_cast<double>(rows),
          bytes_per_tuple * static_cast<double>(rows)};
}

hw::Work CostModel::agg_work(std::uint64_t rows,
                             double bytes_per_tuple) const {
  return {costs_.agg_per_tuple * static_cast<double>(rows),
          bytes_per_tuple * static_cast<double>(rows)};
}

hw::Work CostModel::group_work(std::uint64_t rows, bool dense,
                               double bytes_per_tuple) const {
  const double cpt =
      dense ? costs_.group_dense_per_tuple : costs_.group_hash_per_tuple;
  return {cpt * static_cast<double>(rows),
          bytes_per_tuple * static_cast<double>(rows)};
}

hw::Work CostModel::group_work(std::uint64_t rows,
                               const storage::ColumnStats& key_stats,
                               double bytes_per_tuple) const {
  // Same policy as the exec kernels: dense accumulator arrays when the
  // key domain fits exec::kDenseDomainLimit, hashing otherwise.
  const std::int64_t domain = key_stats.domain();
  const bool dense = domain >= 1 && domain <= exec::kDenseDomainLimit;
  return group_work(rows, dense, bytes_per_tuple);
}

hw::Work CostModel::join_work(std::uint64_t build_rows,
                              std::uint64_t probe_rows,
                              double bytes_per_tuple) const {
  return {costs_.join_build_per_tuple * static_cast<double>(build_rows) +
              costs_.join_probe_per_tuple * static_cast<double>(probe_rows),
          bytes_per_tuple * static_cast<double>(build_rows + probe_rows)};
}

std::string join_arm_name(JoinArm arm) {
  switch (arm) {
    case JoinArm::kHashJoin:
      return "hash-join";
    case JoinArm::kRadixJoin:
      return "radix-join";
    case JoinArm::kDenseJoin:
      return "dense-join";
  }
  return "?";
}

hw::Work CostModel::join_work(JoinArm arm, std::uint64_t build_rows,
                              std::uint64_t probe_rows,
                              double bytes_per_tuple) const {
  hw::Work work = join_work(build_rows, probe_rows, bytes_per_tuple);
  if (arm == JoinArm::kRadixJoin) {
    const double n = static_cast<double>(build_rows + probe_rows);
    work.cpu_cycles += costs_.radix_partition_per_tuple * n;
    // The partition pass writes (key, row) pairs and the per-partition
    // join reads them back: two extra 12-byte streams over both sides.
    work.dram_bytes += 2.0 * 12.0 * n;
  }
  return work;
}

JoinArm CostModel::pick_join_arm(std::uint64_t build_rows,
                                 std::uint64_t distinct_hint,
                                 std::uint64_t key_domain,
                                 unsigned key_width_bytes) const {
  // Dense direct-address arm: the domain must be affordable (4 bytes per
  // value) and not grossly sparser than the build side — an empty-ish
  // array per build row wastes more cache than hashing costs.
  if (key_domain >= 1 && key_domain <= costs_.dense_join_max_domain &&
      key_domain <= std::max<std::uint64_t>(1024, build_rows * 256))
    return JoinArm::kDenseJoin;
  const std::uint64_t entries =
      distinct_hint != 0 ? std::min(build_rows, distinct_hint) : build_rows;
  // A hash slot is the key plus an 8-byte row/next payload: narrower keys
  // (int32 / dictionary codes) pack more entries into the same cache
  // budget, pushing out the point where radix partitioning pays off.
  const double slot_scale =
      16.0 / (8.0 + static_cast<double>(key_width_bytes));
  const auto cache_entries = static_cast<std::uint64_t>(
      static_cast<double>(costs_.join_cache_build_entries) * slot_scale);
  return entries > cache_entries ? JoinArm::kRadixJoin : JoinArm::kHashJoin;
}

hw::Work CostModel::join_filter_pass_work(double build_rows,
                                         double tested_rows,
                                         unsigned packed_key_bits,
                                         double plain_key_bytes) const {
  const bool packed = packed_key_bits > 0;
  const double test_cycles =
      packed ? costs_.packed_scan_unaligned : costs_.scalar_bitmap;
  const double key_bytes =
      packed ? static_cast<double>(packed_key_bits) / 8.0 : plain_key_bytes;
  return {costs_.scalar_bitmap * build_rows + test_cycles * tested_rows,
          key_bytes * tested_rows};
}

JoinFilterChoice CostModel::pick_join_filter(double build_rows,
                                             double tested_rows,
                                             double chain_probes,
                                             double selectivity,
                                             unsigned packed_key_bits,
                                             double plain_key_bytes) const {
  const double sel = std::clamp(selectivity, 0.0, 1.0);
  JoinFilterChoice out;
  out.pass = join_filter_pass_work(build_rows, tested_rows, packed_key_bits,
                                   plain_key_bytes);
  const double removed = (1.0 - sel) * chain_probes;
  out.probes = {costs_.join_probe_per_tuple * removed, 8.0 * removed};
  out.filter = out.pass.cpu_cycles < out.probes.cpu_cycles;
  return out;
}

hw::Work CostModel::lookup_build_work(double build_rows) const {
  return {costs_.join_build_per_tuple * build_rows, 16.0 * build_rows};
}

hw::Work CostModel::remap_work(std::uint64_t entries) const {
  const double n = static_cast<double>(entries);
  // Linear merge over both sorted dictionaries plus one int32 write+read
  // of the translation table.
  return {costs_.dict_remap_per_entry * n, 2.0 * 4.0 * n};
}

unsigned CostModel::pick_radix_bits(std::uint64_t build_rows) const {
  unsigned bits = 4;
  while (bits < 12 &&
         (build_rows >> bits) > costs_.join_cache_build_entries)
    ++bits;
  return bits;
}

std::string storage_arm_name(StorageArm arm) {
  switch (arm) {
    case StorageArm::kPlainScan:
      return "plain-scan";
    case StorageArm::kPackedScan:
      return "packed-scan";
    case StorageArm::kDecodeThenScan:
      return "decode-then-scan";
  }
  return "?";
}

hw::Work CostModel::storage_scan_work(StorageArm arm, std::uint64_t rows,
                                      unsigned bits,
                                      double plain_bytes) const {
  const double n = static_cast<double>(rows);
  const double packed_bytes_per_tuple = static_cast<double>(bits) / 8.0;
  switch (arm) {
    case StorageArm::kPlainScan:
      return {costs_.avx2 * n, plain_bytes * n};
    case StorageArm::kPackedScan: {
      const bool aligned = bits == 8 || bits == 16 || bits == 32;
      const double cpt =
          aligned ? costs_.packed_scan_aligned : costs_.packed_scan_unaligned;
      return {cpt * n, packed_bytes_per_tuple * n};
    }
    case StorageArm::kDecodeThenScan:
      // Unpack into scratch (read packed, write plain-width scratch), then
      // a plain kernel over the scratch — three byte streams total.
      return {(costs_.transient_decode_per_tuple + costs_.avx2) * n,
              (packed_bytes_per_tuple + 2.0 * plain_bytes) * n};
  }
  return {};
}

StorageArm CostModel::pick_storage_arm(const hw::MachineSpec& machine,
                                       std::uint64_t rows, unsigned bits,
                                       double plain_bytes,
                                       bool packed_kernel_available,
                                       bool by_time) const {
  const hw::DvfsState state = machine.dvfs.fastest();
  const auto cost = [&](StorageArm arm) {
    const hw::Work w = storage_scan_work(arm, rows, bits, plain_bytes);
    return by_time ? machine.exec_time_s(w, state)
                   : machine.energy_j(w, state);
  };
  const StorageArm candidate = packed_kernel_available
                                   ? StorageArm::kPackedScan
                                   : StorageArm::kDecodeThenScan;
  return cost(candidate) <= cost(StorageArm::kPlainScan)
             ? candidate
             : StorageArm::kPlainScan;
}

ScanSharingChoice CostModel::pick_scan_sharing(
    const hw::MachineSpec& machine, std::size_t members, double scan_bytes,
    double member_cycles, const hw::AcceleratorSpec& near_memory) const {
  ScanSharingChoice out;
  if (members < 2 || scan_bytes <= 0) return out;
  const hw::DvfsState& s = machine.dvfs.fastest();
  const double n = static_cast<double>(members);

  hw::Work one;
  one.cpu_cycles = member_cycles;
  one.dram_bytes = scan_bytes;
  out.independent_j = n * machine.energy_j(one, s);

  // Fused: the lead member streams the table from DRAM once; every
  // follower re-evaluates the cache-resident chunk at the near-memory
  // point (row-buffer-cost bytes, modest compute speedup). Plus the
  // per-member coordination cycles of grouping and attribution.
  const double follower_cpu_s =
      s.freq_ghz > 0 ? member_cycles / (s.freq_ghz * 1e9) : 0.0;
  const double follower_j =
      near_memory.offload_energy_j(follower_cpu_s, scan_bytes, 0.0);
  hw::Work coord;
  coord.cpu_cycles = costs_.shared_scan_coord_cycles * n;
  out.shared_j = machine.energy_j(one, s) + (n - 1.0) * follower_j +
                 machine.energy_j(coord, s);
  out.share = out.shared_j < out.independent_j;
  return out;
}

double CostModel::broadcast_wire_bytes(double build_rows, std::size_t shards,
                                       double width_bytes) const {
  if (shards <= 1) return 0;
  return build_rows * width_bytes * static_cast<double>(shards - 1);
}

double CostModel::repartition_wire_bytes(double build_rows, double probe_rows,
                                         std::size_t shards,
                                         double width_bytes) const {
  if (shards <= 1) return 0;
  return (build_rows + probe_rows) * width_bytes *
         static_cast<double>(shards - 1) / static_cast<double>(shards);
}

double CostModel::gather_wire_bytes(double result_rows, double row_bytes,
                                    std::size_t shards) const {
  if (shards <= 1) return 0;
  return result_rows * row_bytes * static_cast<double>(shards - 1) /
         static_cast<double>(shards);
}

namespace {

/// Measures cycles/tuple of one kernel invocation via wall time and the
/// host's nominal frequency (adequate for *relative* calibration).
template <typename Fn>
double measure_cycles_per_tuple(std::size_t rows, double nominal_ghz,
                                Fn&& fn) {
  Stopwatch sw;
  fn();
  const double s = sw.elapsed_seconds();
  return s * nominal_ghz * 1e9 / static_cast<double>(rows);
}

}  // namespace

CostModel CostModel::calibrate(std::size_t sample_rows) {
  EIDB_EXPECTS(sample_rows >= 1024);
  // Host nominal frequency is unknown without cpuid gymnastics; relative
  // constants are what matter, so a fixed 2.5 GHz reference is used.
  constexpr double kRefGhz = 2.5;

  Pcg32 rng(12345);
  std::vector<std::int32_t> data(sample_rows);
  for (auto& v : data) v = static_cast<std::int32_t>(rng.next_bounded(10000));
  std::vector<std::uint32_t> idx(sample_rows);
  BitVector bitmap(sample_rows);

  KernelCosts costs;  // start from defaults, overwrite what we measure

  // Predicated at 50% selectivity (selectivity-independent by design).
  costs.predicated = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
    (void)exec::scan_predicated(data, 0, 4999, idx.data());
  });

  // Branching at ~0% and 50%: solve base + penalty from the two points.
  const double b0 = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
    (void)exec::scan_branching(data, -2, -1, idx.data());
  });
  const double b50 = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
    (void)exec::scan_branching(data, 0, 4999, idx.data());
  });
  costs.branch_base = std::max(0.2, b0);
  costs.branch_miss_penalty = std::max(1.0, (b50 - b0) / 0.5);

  if (exec::cpu_has_avx2())
    costs.avx2 = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
      exec::scan_bitmap_avx2(data, 0, 4999, bitmap);
    });
  if (exec::cpu_has_avx512())
    costs.avx512 = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
      exec::scan_bitmap_avx512(data, 0, 4999, bitmap);
    });
  costs.scalar_bitmap = measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
    exec::scan_bitmap_scalar(data, 0, 4999, bitmap);
  });

  // Aggregation over a 50%-selective bitmap (the executor's actual path:
  // word-walking the selection), and dense grouped aggregation.
  std::vector<std::int64_t> values64(sample_rows);
  for (std::size_t i = 0; i < sample_rows; ++i) values64[i] = data[i];
  exec::scan_bitmap_scalar(data, 0, 4999, bitmap);
  // measure_cycles_per_tuple divides by all rows, but only ~50% are
  // selected and the model charges per *selected* tuple: scale by 2.
  costs.agg_per_tuple =
      2.0 * measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
        (void)exec::aggregate_selected(values64, bitmap);
      });
  std::vector<std::int64_t> keys(sample_rows);
  for (std::size_t i = 0; i < sample_rows; ++i) keys[i] = data[i] & 1023;
  BitVector all(sample_rows);
  all.set_all();
  costs.group_dense_per_tuple =
      measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
        (void)exec::group_aggregate(keys, values64, all,
                                    exec::GroupStrategy::kDenseArray);
      });
  costs.group_hash_per_tuple =
      measure_cycles_per_tuple(sample_rows, kRefGhz, [&] {
        (void)exec::group_aggregate(keys, values64, all,
                                    exec::GroupStrategy::kHash);
      });

  return CostModel(costs);
}

}  // namespace eidb::opt
