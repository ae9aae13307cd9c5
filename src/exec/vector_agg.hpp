// Single-pass vectorized aggregation kernels.
//
// These kernels consume the selection bitmap 64 rows at a word and
// compute *all* of a query's aggregates in ONE pass over the data:
//
//  * full selection words take a branch-free unrolled path (SIMD-friendly:
//    plain `for (j = 0..64)` loops the compiler autovectorizes);
//  * partial words extract the set bits into a tiny index block
//    (count-trailing-zeros), then accumulate column-at-a-time over the
//    block so each input column streams sequentially.
//
// Every input column is therefore touched exactly once per query — the
// DRAM-byte ledger (and the joules attributed from it) drops accordingly.
// Grouped variants share one per-group count across all inputs and accept
// the key range from the cached storage::ColumnStats, eliminating the
// per-call key min/max pass of group_aggregate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/hash_table.hpp"
#include "exec/parallel.hpp"
#include "storage/bitpack.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// A typed view of one aggregate input column. int32 (and dictionary-code)
/// inputs are consumed directly — no widened int64 copy. kPacked inputs
/// are bit-packed column images (storage::PackedView): full selection
/// words unpack one 64-value block into registers/stack, so the DRAM
/// traffic of the pass is the packed bytes, not the plain width.
struct AggInput {
  enum class Kind : std::uint8_t { kInt32, kInt64, kDouble, kPacked };
  Kind kind = Kind::kInt64;
  std::span<const std::int32_t> i32;
  std::span<const std::int64_t> i64;
  std::span<const double> f64;
  storage::PackedView packed;

  static AggInput from(std::span<const std::int32_t> v) {
    AggInput in;
    in.kind = Kind::kInt32;
    in.i32 = v;
    return in;
  }
  static AggInput from(std::span<const std::int64_t> v) {
    AggInput in;
    in.kind = Kind::kInt64;
    in.i64 = v;
    return in;
  }
  static AggInput from(std::span<const double> v) {
    AggInput in;
    in.kind = Kind::kDouble;
    in.f64 = v;
    return in;
  }
  static AggInput from(storage::PackedView v) {
    AggInput in;
    in.kind = Kind::kPacked;
    in.packed = v;
    return in;
  }

  [[nodiscard]] bool is_double() const { return kind == Kind::kDouble; }
  [[nodiscard]] std::size_t size() const {
    switch (kind) {
      case Kind::kInt32:
        return i32.size();
      case Kind::kInt64:
        return i64.size();
      case Kind::kDouble:
        return f64.size();
      case Kind::kPacked:
        return packed.count;
    }
    return 0;
  }
};

/// Result of one input of a multi-aggregate pass: `i` for integer inputs,
/// `d` for double inputs (count/sum/min/max cover every AggOp incl. AVG).
struct AggOut {
  bool is_double = false;
  AggResult i;
  AggResultD d;
};

/// Aggregates ALL `inputs` in a single pass over the selection bitmap.
/// Empty selections return zeroed results (min/max = 0), matching
/// aggregate_selected.
[[nodiscard]] std::vector<AggOut> multi_aggregate(
    std::span<const AggInput> inputs, const BitVector& selection);

/// Morsel-parallel multi_aggregate: per-worker partials over 64-aligned
/// morsels, serial merge (the E4-partitioned scheme).
[[nodiscard]] std::vector<AggOut> parallel_multi_aggregate(
    sched::ThreadPool& pool, std::span<const AggInput> inputs,
    const BitVector& selection, std::size_t morsel_rows = kDefaultMorselRows);

/// Known key range (from storage::ColumnStats); `known == false` makes the
/// kernel derive it from the selected rows (one extra pass over the keys).
/// `distinct_hint` (0 = unknown) pre-sizes the hash table on the hash path.
struct KeyRange {
  bool known = false;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::uint64_t distinct_hint = 0;
};

/// Grouped multi-aggregate output. Groups are sorted by key; `counts` is
/// shared by every input (all aggregate the same selected rows). Per input
/// j exactly one of iout[j] / dout[j] is non-empty, aligned with `keys`.
struct GroupedAggs {
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> counts;
  std::vector<std::vector<AggResult>> iout;
  std::vector<std::vector<AggResultD>> dout;

  [[nodiscard]] std::size_t group_count() const { return keys.size(); }
};

/// Grouped aggregation of ALL `inputs` in one pass: per selected row the
/// group slot is computed once and every input's accumulator is updated.
/// Dense-array strategy when the key domain is small, hash otherwise
/// (same policy as group_aggregate).
[[nodiscard]] GroupedAggs grouped_multi_aggregate(
    std::span<const std::int64_t> keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto);

/// int32 / dictionary-code keys, consumed directly (no widened key copy).
[[nodiscard]] GroupedAggs grouped_multi_aggregate32(
    std::span<const std::int32_t> keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto);

/// Morsel-parallel grouped multi-aggregate: per-worker dense accumulators
/// (small domains) or hash tables, merged serially by key.
[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows);

[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows);

/// Bit-packed key column, decoded per selected row (reference + packed
/// value): the key column's DRAM traffic is its packed image. Output keys
/// are the decoded values, exactly as the plain-key overloads produce.
[[nodiscard]] GroupedAggs grouped_multi_aggregate_packed(
    const storage::PackedView& keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto);

[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate_packed(
    sched::ThreadPool& pool, const storage::PackedView& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows);

/// Gather-based aggregation sink for the late-materialized join pipeline
/// (query::Executor's vectorized join path): matches arrive as blocks of
/// row-id tuples — one row id per joined *side* — and every value —
/// group-key parts and aggregate inputs alike — is gathered from its
/// column by row id, so no pair vector and no widened key copy is ever
/// materialized. Side 0 is the probe (FROM) table; sides 1..k are the
/// build tables of a (possibly multi-way) join chain in execution order.
/// Accumulation state and output shapes are shared with the bitmap
/// kernels: a grouped join produces exactly the GroupedAggs a base-table
/// GROUP BY would.
class JoinAggregator {
 public:
  /// One aggregate input, gathered by the row id of its side.
  struct Input {
    AggInput column;
    std::size_t side = 0;  ///< 0 = probe table, i = i-th build table.
  };
  /// One part of the (possibly composite) group key:
  /// key = Σ (column[row] - offset) * stride over the parts — the
  /// executor's stride-composite layout. Single keys use offset 0,
  /// stride 1 so the emitted key is the column value itself.
  struct KeyPart {
    AggInput column;  ///< int32 / int64 / packed (doubles cannot key).
    std::size_t side = 0;
    std::int64_t offset = 0;
    std::int64_t stride = 1;
  };

  /// Global aggregates: every match lands in one implicit group (key 0);
  /// finish() emits exactly one group even with zero matches.
  explicit JoinAggregator(std::vector<Input> inputs);
  /// Grouped aggregates: dense slot resolution when `range` is known and
  /// spans less than kDenseDomainLimit (the bitmap kernels' policy), hash
  /// resolution otherwise. finish() emits only non-empty groups.
  JoinAggregator(std::vector<Input> inputs, std::vector<KeyPart> key,
                 KeyRange range);

  /// Accumulates one block of single-join matches (any count; consumed in
  /// bounded sub-blocks internally). Side 0 = probe, side 1 = build.
  void add_block(const std::uint32_t* build_rows,
                 const std::uint32_t* probe_rows, std::size_t count);

  /// Multi-way variant: `rows[s][i]` is match i's row id on side s (the
  /// join chain's tuple layout; `rows` must cover every side an Input or
  /// KeyPart references).
  void add_block(const std::uint32_t* const* rows, std::size_t count);

  /// Folds a compatible (same-spec) aggregator's partial state into this
  /// one — the morsel-parallel probe merge.
  void merge_from(const JoinAggregator& other);

  [[nodiscard]] std::uint64_t pair_count() const { return pairs_; }

  /// Grouped output, sorted by key; shapes match the bitmap kernels'.
  [[nodiscard]] GroupedAggs finish() const;

 private:
  struct IntAcc {
    std::vector<std::int64_t> sum, mn, mx;
  };
  struct DblAcc {
    std::vector<double> sum, mn, mx;
  };
  void ensure(std::size_t slots);
  std::uint32_t resolve(std::int64_t key);

  std::vector<Input> inputs_;
  std::vector<KeyPart> key_;
  bool grouped_ = false;
  bool dense_ = false;
  std::int64_t dense_min_ = 0;
  HashTable<std::uint32_t> slots_;         // hash strategy only
  std::vector<std::int64_t> slot_keys_;    // hash strategy: key per slot
  std::uint32_t next_ = 0;
  std::vector<std::uint64_t> counts_;
  std::vector<IntAcc> iacc_;
  std::vector<DblAcc> dacc_;
  std::uint64_t pairs_ = 0;
};

}  // namespace eidb::exec
