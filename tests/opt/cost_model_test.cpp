#include "opt/cost_model.hpp"

#include <gtest/gtest.h>

namespace eidb::opt {
namespace {

TEST(CostModel, BranchingCostPeaksAtHalfSelectivity) {
  const CostModel m = CostModel::defaults();
  const double at0 =
      m.scan_cycles_per_tuple(exec::ScanVariant::kBranching, 0.0);
  const double at50 =
      m.scan_cycles_per_tuple(exec::ScanVariant::kBranching, 0.5);
  const double at100 =
      m.scan_cycles_per_tuple(exec::ScanVariant::kBranching, 1.0);
  EXPECT_GT(at50, at0);
  EXPECT_GT(at50, at100);
  EXPECT_DOUBLE_EQ(at0, at100);  // symmetric flip probability
}

TEST(CostModel, PredicatedIsFlat) {
  const CostModel m = CostModel::defaults();
  const double a =
      m.scan_cycles_per_tuple(exec::ScanVariant::kPredicated, 0.0);
  const double b =
      m.scan_cycles_per_tuple(exec::ScanVariant::kPredicated, 0.7);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(CostModel, SimdIsCheapest) {
  const CostModel m = CostModel::defaults();
  for (const double sel : {0.0, 0.25, 0.5, 0.9}) {
    EXPECT_LT(m.scan_cycles_per_tuple(exec::ScanVariant::kAvx512, sel),
              m.scan_cycles_per_tuple(exec::ScanVariant::kAvx2, sel));
    EXPECT_LT(m.scan_cycles_per_tuple(exec::ScanVariant::kAvx2, sel),
              m.scan_cycles_per_tuple(exec::ScanVariant::kPredicated, sel));
  }
}

TEST(CostModel, ScalarPickCrossesOverWithSelectivity) {
  // Without SIMD (the Ross setting): branching at the extremes, predicated
  // in the middle.
  const CostModel m = CostModel::defaults();
  EXPECT_EQ(m.pick_scan_variant(0.005, false, false),
            exec::ScanVariant::kBranching);
  EXPECT_EQ(m.pick_scan_variant(0.5, false, false),
            exec::ScanVariant::kPredicated);
  EXPECT_EQ(m.pick_scan_variant(0.995, false, false),
            exec::ScanVariant::kBranching);
}

TEST(CostModel, SimdPickWhenAvailable) {
  const CostModel m = CostModel::defaults();
  EXPECT_EQ(m.pick_scan_variant(0.5, true, true), exec::ScanVariant::kAvx512);
  EXPECT_EQ(m.pick_scan_variant(0.5, true, false), exec::ScanVariant::kAvx2);
}

TEST(CostModel, WorkScalesLinearly) {
  const CostModel m = CostModel::defaults();
  const hw::Work w1 =
      m.scan_work(exec::ScanVariant::kPredicated, 1000, 0.5, 4);
  const hw::Work w2 =
      m.scan_work(exec::ScanVariant::kPredicated, 2000, 0.5, 4);
  EXPECT_DOUBLE_EQ(w2.cpu_cycles, 2 * w1.cpu_cycles);
  EXPECT_DOUBLE_EQ(w2.dram_bytes, 2 * w1.dram_bytes);
  EXPECT_DOUBLE_EQ(w1.dram_bytes, 4000);
}

TEST(CostModel, GroupHashCostlierThanDense) {
  const CostModel m = CostModel::defaults();
  EXPECT_GT(m.group_work(1000, false, 8).cpu_cycles,
            m.group_work(1000, true, 8).cpu_cycles);
}

TEST(CostModel, JoinWorkCountsBothSides) {
  const CostModel m = CostModel::defaults();
  const hw::Work w = m.join_work(100, 1000, 8);
  EXPECT_GT(w.cpu_cycles, 0);
  EXPECT_DOUBLE_EQ(w.dram_bytes, 8 * 1100);
}

TEST(CostModel, CalibrationProducesUsableConstants) {
  const CostModel m = CostModel::calibrate(1 << 16);
  const KernelCosts& c = m.costs();
  EXPECT_GT(c.predicated, 0.0);
  EXPECT_GT(c.branch_base, 0.0);
  EXPECT_GT(c.branch_miss_penalty, 0.0);
  // When the ISA exists the SIMD kernel must at least calibrate to a finite
  // positive cost. (Whether it undercuts the scalar kernels depends on the
  // host — AVX-512 downclocking and virtualized CPUs routinely invert the
  // ranking — so that is not asserted here.)
  if (exec::cpu_has_avx512()) {
    EXPECT_GT(c.avx512, 0.0);
  }
  // The picker still behaves sanely with calibrated constants.
  const exec::ScanVariant v = m.pick_scan_variant(0.5);
  EXPECT_NE(v, exec::ScanVariant::kAuto);
}

TEST(CostModel, AutoResolvesToPickedVariant) {
  const CostModel m = CostModel::defaults();
  const double c_auto =
      m.scan_cycles_per_tuple(exec::ScanVariant::kAuto, 0.3);
  const exec::ScanVariant picked = m.pick_scan_variant(0.3);
  EXPECT_DOUBLE_EQ(c_auto, m.scan_cycles_per_tuple(picked, 0.3));
}

TEST(CostModel, StorageScanWorkTracksPackedBytes) {
  const CostModel m = CostModel::defaults();
  constexpr std::uint64_t kRows = 1'000'000;
  const hw::Work plain =
      m.storage_scan_work(StorageArm::kPlainScan, kRows, 8, 8.0);
  const hw::Work packed =
      m.storage_scan_work(StorageArm::kPackedScan, kRows, 8, 8.0);
  const hw::Work decode =
      m.storage_scan_work(StorageArm::kDecodeThenScan, kRows, 8, 8.0);
  // Packed touches exactly bits/8 bytes per tuple.
  EXPECT_DOUBLE_EQ(packed.dram_bytes, kRows * 1.0);
  EXPECT_DOUBLE_EQ(plain.dram_bytes, kRows * 8.0);
  // Decode-then-scan reads packed, writes scratch, reads scratch.
  EXPECT_GT(decode.dram_bytes, plain.dram_bytes);
  EXPECT_GT(decode.cpu_cycles, plain.cpu_cycles);
  // Odd widths pay more cycles than byte-aligned ones.
  const hw::Work odd =
      m.storage_scan_work(StorageArm::kPackedScan, kRows, 13, 8.0);
  EXPECT_GT(odd.cpu_cycles, packed.cpu_cycles);
}

TEST(CostModel, PickStorageArmPrefersPackedWhenKernelExists) {
  const CostModel m = CostModel::defaults();
  const hw::MachineSpec machine = hw::MachineSpec::server();
  // Narrow width, packed kernel available: scan-on-compressed wins on the
  // memory-bound energy model.
  EXPECT_EQ(m.pick_storage_arm(machine, 10'000'000, 8, 8.0, true),
            StorageArm::kPackedScan);
  // No packed kernel: the fallback is whichever of decode/plain is cheaper
  // — never kPackedScan.
  const StorageArm fallback =
      m.pick_storage_arm(machine, 10'000'000, 8, 8.0, false);
  EXPECT_NE(fallback, StorageArm::kPackedScan);
  EXPECT_FALSE(storage_arm_name(fallback).empty());
}

TEST(CostModel, PickJoinArmByBuildCardinality) {
  const CostModel m;
  const std::uint64_t budget = m.costs().join_cache_build_entries;
  // Small builds keep the single cache-resident table.
  EXPECT_EQ(m.pick_join_arm(1000), JoinArm::kHashJoin);
  EXPECT_EQ(m.pick_join_arm(budget), JoinArm::kHashJoin);
  // Larger builds radix-partition.
  EXPECT_EQ(m.pick_join_arm(budget * 8), JoinArm::kRadixJoin);
  // A low distinct estimate caps the table size: many duplicate rows of
  // few keys stay on the hash arm.
  EXPECT_EQ(m.pick_join_arm(budget * 8, /*distinct_hint=*/100),
            JoinArm::kHashJoin);
  EXPECT_FALSE(join_arm_name(JoinArm::kHashJoin).empty());
  EXPECT_FALSE(join_arm_name(JoinArm::kRadixJoin).empty());
  EXPECT_FALSE(join_arm_name(JoinArm::kDenseJoin).empty());
}

TEST(CostModel, PickJoinArmPrefersDenseDomains) {
  const CostModel m;
  const std::uint64_t max_domain = m.costs().dense_join_max_domain;
  // The star-schema case: surrogate keys 0..N over a comparable build.
  EXPECT_EQ(m.pick_join_arm(30'000, 30'000, /*key_domain=*/30'000),
            JoinArm::kDenseJoin);
  // Even a large build takes the dense arm when the domain is affordable.
  EXPECT_EQ(m.pick_join_arm(1u << 20, 0, max_domain), JoinArm::kDenseJoin);
  // Too-large domains fall back to the cardinality policy.
  EXPECT_EQ(m.pick_join_arm(1000, 0, max_domain * 2), JoinArm::kHashJoin);
  // Grossly sparse domains (hash-like keys) are not worth the array.
  EXPECT_EQ(m.pick_join_arm(10, 10, /*key_domain=*/1u << 20),
            JoinArm::kHashJoin);
  // No domain knowledge: never dense.
  EXPECT_EQ(m.pick_join_arm(1000, 0, 0), JoinArm::kHashJoin);
}

TEST(CostModel, RadixBitsScaleWithBuildAndStayClamped) {
  const CostModel m;
  const std::uint64_t budget = m.costs().join_cache_build_entries;
  const unsigned small_bits = m.pick_radix_bits(budget * 2);
  const unsigned big_bits = m.pick_radix_bits(budget * 1024);
  EXPECT_GE(small_bits, 4u);
  EXPECT_LE(big_bits, 12u);
  EXPECT_LE(small_bits, big_bits);
  // Each partition's build side fits the budget (until the clamp).
  EXPECT_LE((budget * 2) >> small_bits, budget);
}

TEST(CostModel, PickJoinFilterWeighsPassAgainstSavedProbes) {
  const CostModel m;
  const KernelCosts& c = m.costs();
  // A selective dimension in front of a long chain: the pass (one packed
  // block test per fact row) costs far less than the probes it removes.
  const JoinFilterChoice selective =
      m.pick_join_filter(7'500, 4e6, 7.2e6, 0.25, /*packed_key_bits=*/15, 8);
  EXPECT_TRUE(selective.filter);
  EXPECT_DOUBLE_EQ(selective.pass.cpu_cycles,
                   c.scalar_bitmap * 7'500 + c.packed_scan_unaligned * 4e6);
  EXPECT_DOUBLE_EQ(selective.pass.dram_bytes, 15.0 / 8.0 * 4e6);
  EXPECT_DOUBLE_EQ(selective.probes.cpu_cycles,
                   c.join_probe_per_tuple * 0.75 * 7.2e6);
  // A filter that keeps every row saves nothing and never fires.
  const JoinFilterChoice useless = m.pick_join_filter(100, 4e6, 4e6, 1.0, 0, 8);
  EXPECT_FALSE(useless.filter);
  EXPECT_DOUBLE_EQ(useless.probes.cpu_cycles, 0.0);
  // Plain keys price the test as a scalar bitmap pass over the key width.
  const JoinFilterChoice plain = m.pick_join_filter(0, 1000, 1000, 0.5, 0, 4);
  EXPECT_DOUBLE_EQ(plain.pass.cpu_cycles, c.scalar_bitmap * 1000);
  EXPECT_DOUBLE_EQ(plain.pass.dram_bytes, 4.0 * 1000);
  // A nearly non-selective filter on a short chain loses to its probes.
  EXPECT_FALSE(m.pick_join_filter(5, 4e5, 4e5, 0.9, 3, 4).filter);
}

TEST(CostModel, RadixJoinWorkAddsPartitionPass) {
  const CostModel m;
  const hw::Work hash = m.join_work(JoinArm::kHashJoin, 1 << 20, 1 << 22, 8.0);
  const hw::Work radix =
      m.join_work(JoinArm::kRadixJoin, 1 << 20, 1 << 22, 8.0);
  EXPECT_GT(radix.cpu_cycles, hash.cpu_cycles);
  EXPECT_GT(radix.dram_bytes, hash.dram_bytes);
}

}  // namespace
}  // namespace eidb::opt
