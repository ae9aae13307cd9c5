// Calibrated time/energy cost model for operator variants.
//
// The optimizer's currency: cycles per tuple and bytes per tuple, turned
// into seconds and joules through hw::MachineSpec. Constants default to
// published per-kernel figures and can be *calibrated* on the host by
// micro-measurement (`CostModel::calibrate()`), which is exactly how the
// engine would adapt to new hardware — §IV.B's "operators have to quickly
// adapt ... to changing hardware structures".
#pragma once

#include <cstdint>
#include <string>

#include "exec/scan_kernels.hpp"
#include "hw/accelerator.hpp"
#include "hw/machine.hpp"
#include "storage/column.hpp"

namespace eidb::opt {

/// How a scan consumes a column that has a bit-packed image.
enum class StorageArm : std::uint8_t {
  kPlainScan,       ///< read the plain array (or no image exists)
  kPackedScan,      ///< evaluate directly on the packed image
  kDecodeThenScan,  ///< transient decode into scratch, then plain kernels
};

[[nodiscard]] std::string storage_arm_name(StorageArm arm);

/// Physical arm of the vectorized join pipeline.
enum class JoinArm : std::uint8_t {
  kHashJoin,   ///< one cache-resident hash table, direct probe
  kRadixJoin,  ///< radix-partition both sides, join partition pairs
  kDenseJoin,  ///< direct-address array over a dense build-key domain
};

[[nodiscard]] std::string join_arm_name(JoinArm arm);

/// Verdict of the shared-scan arm for one compatible batch: fuse the
/// members into one pass, or run them independently.
struct ScanSharingChoice {
  bool share = false;
  double independent_j = 0;  ///< Modeled energy of N independent scans.
  double shared_j = 0;       ///< Modeled energy of the fused pass.
};

/// Verdict of the semi-join filter arm for one join step: test the fact
/// foreign keys against a bitmap of the step's surviving build keys
/// before the chain runs, or leave the step to its probes.
struct JoinFilterChoice {
  bool filter = false;
  hw::Work pass;    ///< Bitmap build plus the fact-key test pass.
  hw::Work probes;  ///< Chain probes of the rows the pass would remove.
};

/// Cycles-per-tuple parameters for each kernel family.
struct KernelCosts {
  // Branching selection: base work plus misprediction penalty weighted by
  // the per-tuple flip probability 2*sel*(1-sel) (random data).
  double branch_base = 1.6;
  double branch_miss_penalty = 16.0;
  double predicated = 2.4;
  double avx2 = 0.4;
  double avx512 = 0.25;
  double scalar_bitmap = 1.4;
  double agg_per_tuple = 1.5;
  double group_dense_per_tuple = 3.0;
  double group_hash_per_tuple = 9.0;
  double join_build_per_tuple = 12.0;
  double join_probe_per_tuple = 10.0;
  double materialize_per_value = 20.0;
  // Storage-side (compressed-segment) scan arms.
  double packed_scan_aligned = 0.35;    ///< byte-aligned widths: direct SIMD
  double packed_scan_unaligned = 2.2;   ///< odd widths: block unpack + compare
  double transient_decode_per_tuple = 1.6;  ///< bitunpack into scratch
  // Join-arm parameters.
  double radix_partition_per_tuple = 2.5;  ///< scatter into partitions
  /// Build-side hash-table entries that stay cache-resident (~L2 worth of
  /// 16-byte slots): a larger build thrashes a single table and the radix
  /// arm partitions it down to this size.
  std::uint64_t join_cache_build_entries = 1u << 16;
  /// Largest build-key value domain the dense direct-address arm will
  /// allocate heads for (4 bytes per domain value).
  std::uint64_t dense_join_max_domain = 1u << 20;
  /// Cross-dictionary code translation (string/double join keys): cycles
  /// per build-dictionary entry for the linear merge that produces the
  /// build-code -> probe-code remap.
  double dict_remap_per_entry = 3.0;
  /// Shared-scan coordination overhead per fused-group member (cycles):
  /// grouping, per-member selection bookkeeping and the attribution fold.
  /// Keeps the sharing arm from fusing trivially small scans where the
  /// bookkeeping outweighs the saved DRAM pass.
  double shared_scan_coord_cycles = 50'000.0;
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(KernelCosts costs) : costs_(costs) {}

  /// Library defaults (Sandy-Bridge-class constants).
  [[nodiscard]] static CostModel defaults() { return CostModel{}; }

  /// Micro-measures the scan kernels on this host and fits the constants.
  /// `sample_rows` controls calibration cost (~ms at the default).
  [[nodiscard]] static CostModel calibrate(std::size_t sample_rows = 1 << 20);

  [[nodiscard]] const KernelCosts& costs() const { return costs_; }

  /// Predicted cycles/tuple of an index-producing selection at selectivity
  /// `sel` with variant `v` (kAuto resolves to the predicted-best).
  [[nodiscard]] double scan_cycles_per_tuple(exec::ScanVariant v,
                                             double sel) const;

  /// Predicted-cheapest variant at selectivity `sel`, honoring the host ISA
  /// (pass false to model a machine without SIMD).
  [[nodiscard]] exec::ScanVariant pick_scan_variant(double sel, bool has_avx2,
                                                    bool has_avx512) const;
  [[nodiscard]] exec::ScanVariant pick_scan_variant(double sel) const;

  /// Abstract work of scanning `rows` tuples of `bytes_per_tuple` with
  /// variant `v` at selectivity `sel`.
  [[nodiscard]] hw::Work scan_work(exec::ScanVariant v, std::uint64_t rows,
                                   double sel, double bytes_per_tuple) const;

  /// Work of aggregating `rows` selected tuples (plus value-column bytes).
  [[nodiscard]] hw::Work agg_work(std::uint64_t rows,
                                  double bytes_per_tuple) const;

  /// Work of a grouped aggregation (dense or hash).
  [[nodiscard]] hw::Work group_work(std::uint64_t rows, bool dense,
                                    double bytes_per_tuple) const;

  /// Grouped-aggregation work predicted from cached key-column statistics:
  /// the dense/hash strategy choice is derived from the key domain, the
  /// same policy the exec kernels apply at runtime.
  [[nodiscard]] hw::Work group_work(std::uint64_t rows,
                                    const storage::ColumnStats& key_stats,
                                    double bytes_per_tuple) const;

  /// Work of a hash join.
  [[nodiscard]] hw::Work join_work(std::uint64_t build_rows,
                                   std::uint64_t probe_rows,
                                   double bytes_per_tuple) const;

  /// Work of a join via `arm`: the radix arm adds the partition pass
  /// (scatter cycles plus writing and re-reading the (key, row) pairs of
  /// both sides).
  [[nodiscard]] hw::Work join_work(JoinArm arm, std::uint64_t build_rows,
                                   std::uint64_t probe_rows,
                                   double bytes_per_tuple) const;

  /// Join arm by build-side cardinality and key domain (both from the
  /// cached ColumnStats). A dense key domain — small enough for
  /// dense_join_max_domain and not grossly sparser than the build — takes
  /// the direct-address arm (the star-schema surrogate-key case: probe is
  /// one load, no hashing). Otherwise the selected build rows, capped by
  /// the key column's distinct estimate when one is known, decide:
  /// radix-partitioned once the build exceeds join_cache_build_entries,
  /// a single cache-resident table below.
  /// `key_width_bytes` is the in-memory width of the probed key (8 for
  /// int64, 4 for int32/dictionary codes): narrower keys shrink each
  /// hash-table slot, so more build entries stay cache-resident before
  /// the radix arm pays off.
  [[nodiscard]] JoinArm pick_join_arm(std::uint64_t build_rows,
                                      std::uint64_t distinct_hint = 0,
                                      std::uint64_t key_domain = 0,
                                      unsigned key_width_bytes = 8) const;

  /// Work of one semi-join filter pass: it sets one bitmap bit per
  /// selected build row and tests `tested_rows` fact keys against the
  /// bitmap, 64 per selection word — a block unpack plus compare per key
  /// when the key is bit-packed (`packed_key_bits` > 0), a scalar bitmap
  /// test otherwise.
  [[nodiscard]] hw::Work join_filter_pass_work(double build_rows,
                                               double tested_rows,
                                               unsigned packed_key_bits,
                                               double plain_key_bytes) const;

  /// Semi-join filter arm for one dense chain step probed from the fact
  /// table: the pass (join_filter_pass_work) removes the (1 -
  /// `selectivity`) share of `chain_probes` — the probes into this step
  /// and every chain step before it — each priced as a join probe. Fires
  /// when the pass costs fewer cycles than those probes.
  [[nodiscard]] JoinFilterChoice pick_join_filter(
      double build_rows, double tested_rows, double chain_probes,
      double selectivity, unsigned packed_key_bits,
      double plain_key_bytes) const;

  /// Work of a gather step's dense key -> group-value lookup: one read of
  /// the group column and one lookup write per selected build row.
  [[nodiscard]] hw::Work lookup_build_work(double build_rows) const;

  /// Work of building a build-code -> probe-code dictionary remap over
  /// `entries` build-dictionary entries (one linear merge; the output
  /// int32 table is written once and read per build row).
  [[nodiscard]] hw::Work remap_work(std::uint64_t entries) const;

  /// Partition count (log2) sizing each partition's build side to the
  /// cache budget; clamped to [4, 12].
  [[nodiscard]] unsigned pick_radix_bits(std::uint64_t build_rows) const;

  /// Work of scanning `rows` tuples of a column bit-packed at `bits` via
  /// `arm` (plain width `plain_bytes` per tuple). kPackedScan touches only
  /// the packed bytes; kDecodeThenScan pays the unpack cycles *and* both
  /// byte streams (the packed read plus the scratch write-back).
  [[nodiscard]] hw::Work storage_scan_work(StorageArm arm, std::uint64_t rows,
                                           unsigned bits,
                                           double plain_bytes) const;

  /// Storage arm minimizing modeled energy (or roofline time, when
  /// `by_time`) on `machine` for one scan — the executor's fallback
  /// policy in model form: scan-on-packed when a packed kernel exists for
  /// the operator, else whichever of transient decode and plain is
  /// predicted cheaper.
  [[nodiscard]] StorageArm pick_storage_arm(const hw::MachineSpec& machine,
                                            std::uint64_t rows, unsigned bits,
                                            double plain_bytes,
                                            bool packed_kernel_available,
                                            bool by_time = false) const;

  /// Shared-scan arm: price `members` compatible scans — each streaming
  /// `scan_bytes` of predicate columns and spending `member_cycles` of
  /// evaluation — run independently vs fused into one pass. The fused
  /// form pays the DRAM stream once; followers re-evaluate cache-resident
  /// chunks, modeled at `near_memory` (the in-memory-compute point,
  /// hw::AcceleratorSpec::pim()): their bytes move at row-buffer energy,
  /// not CPU-side DRAM energy. Declines (share == false) below two
  /// members or when per-member coordination overhead
  /// (shared_scan_coord_cycles) outweighs the saved traffic — the
  /// diverged-predicates case surfaces as different group keys upstream,
  /// so what reaches this arm only varies in size.
  [[nodiscard]] ScanSharingChoice pick_scan_sharing(
      const hw::MachineSpec& machine, std::size_t members, double scan_bytes,
      double member_cycles, const hw::AcceleratorSpec& near_memory) const;

  // -- Network-byte arm (partition-aware plans) -----------------------------
  // Wire bytes are the sharded planner's currency the way DRAM bytes are
  // the storage planner's: per join step the physical planner charges the
  // cheaper of broadcasting the build side and hash-repartitioning both
  // sides, and the total feeds the plan governor's work estimate
  // (hw::Work::net_bytes). All three return 0 at shards <= 1 — one shard
  // lives on the coordinator and ships nothing.

  /// Modeled wire bytes of shipping one join step's build (dimension)
  /// side to every other shard: build_rows × width × (shards − 1).
  [[nodiscard]] double broadcast_wire_bytes(double build_rows,
                                            std::size_t shards,
                                            double width_bytes = 8.0) const;

  /// Modeled wire bytes of hash-repartitioning both sides on the join
  /// key: a (shards − 1) / shards fraction of every row relocates.
  [[nodiscard]] double repartition_wire_bytes(double build_rows,
                                              double probe_rows,
                                              std::size_t shards,
                                              double width_bytes = 8.0) const;

  /// Modeled wire bytes of the shard → coordinator result exchange
  /// (partial rows or gathered row ids): the non-coordinator shards'
  /// share of `result_rows` rows of `row_bytes` each.
  [[nodiscard]] double gather_wire_bytes(double result_rows, double row_bytes,
                                         std::size_t shards) const;

 private:
  KernelCosts costs_;
};

}  // namespace eidb::opt
