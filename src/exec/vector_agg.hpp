// Single-pass vectorized aggregation kernels.
//
// These kernels consume the selection bitmap 64 rows at a word and
// compute *all* of a query's aggregates in ONE pass over the data:
//
//  * block words (at least agg_block_min_live(tier) live rows, the 64-row
//    block wholly inside the columns): every packed column the pass reads
//    (group key and kPacked inputs) decodes its block once at
//    exec::packed_tier() and keeps only the live lanes, in row order;
//  * sparse words list their set bits (count-trailing-zeros) and read
//    each column at those rows, packed ones through value_at;
//  * full words of plain inputs to the global kernel run branch-free,
//    autovectorized loops;
//  * each input then accumulates column-at-a-time over the word, and only
//    the state (sum / min / max) its AggOpSet names.
//
// Every input column is therefore touched exactly once per query — the
// DRAM-byte ledger (and the joules attributed from it) drops accordingly.
// Grouped variants share one per-group count across all inputs and accept
// the key range from the cached storage::ColumnStats, eliminating the
// per-call key min/max pass of group_aggregate. Parallel variants cut
// their chunks from the row count and morsel size alone and merge the
// per-chunk partials in chunk order, so double sums depend neither on
// thread scheduling nor on the pool width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/hash_table.hpp"
#include "exec/parallel.hpp"
#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "util/assert.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// The accumulator state an aggregate input keeps, as a bit set. COUNT
/// needs none (every input shares the per-group count) and AVG reads the
/// sum and the count, so any mix of AggOps maps onto these three bits.
using AggOpSet = std::uint8_t;
inline constexpr AggOpSet kAggSum = 1;
inline constexpr AggOpSet kAggMin = 2;
inline constexpr AggOpSet kAggMax = 4;
inline constexpr AggOpSet kAggAllOps = kAggSum | kAggMin | kAggMax;

/// Live rows a selection word needs to take the block path at `tier`.
/// Below it, a word's packed columns are read per row; at or above it,
/// each decodes its whole 64-value block once. Chosen from bench_k0's
/// BM_GroupedAggPacked density sweep (docs/executor_pipeline.md): the
/// AVX-512 VBMI decode wins from 8 live rows, the scalar one from 16.
[[nodiscard]] constexpr unsigned agg_block_min_live(PackedTier tier) {
  return tier == PackedTier::kAvx512Vbmi ? 8 : 16;
}

/// A typed view of one aggregate input column. int32 (and dictionary-code)
/// inputs are consumed directly — no widened int64 copy. kPacked inputs
/// are bit-packed column images (storage::PackedView): dense selection
/// words decode one 64-value block into registers/stack, so the DRAM
/// traffic of the pass is the packed bytes, not the plain width.
struct AggInput {
  enum class Kind : std::uint8_t { kInt32, kInt64, kDouble, kPacked };
  Kind kind = Kind::kInt64;
  /// State the kernels accumulate; outputs outside the set read 0.
  AggOpSet ops = kAggAllOps;
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
  /// Value of row i of an integer view (int32, int64 or packed).
  [[nodiscard]] std::int64_t int_at(std::size_t i) const {
    switch (kind) {
      case Kind::kInt32:
        return i32[i];
      case Kind::kInt64:
        return i64[i];
      case Kind::kPacked:
        return packed.value_at(i);
      case Kind::kDouble:
        break;
    }
    EIDB_ASSERT(false);
    return 0;
  }
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
/// `d` for double inputs (count/sum/min/max cover every AggOp incl. AVG;
/// sum/min/max read 0 unless the input's op set names them).
struct AggOut {
  bool is_double = false;
  AggResult i;
  AggResultD d;
};

/// Aggregates ALL `inputs` in a single pass over the selection bitmap.
/// Empty selections return zeroed results (min/max = 0), matching
/// aggregate_selected. `tier` decodes packed inputs: the host's by
/// default, or kScalar, the reference on any host.
[[nodiscard]] std::vector<AggOut> multi_aggregate(
    std::span<const AggInput> inputs, const BitVector& selection,
    PackedTier tier = packed_tier());

/// Morsel-parallel multi_aggregate: per-chunk partials over 64-aligned
/// morsels, merged in chunk order (the E4-partitioned scheme).
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

/// Morsel-parallel grouped multi-aggregate: per-chunk dense accumulators
/// (small domains) or hash tables, merged by key in chunk order. The
/// chunks (at least `morsel_rows`, at most 16 per call) do not depend on
/// the pool width, so neither do double sums.
[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows);

[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows);

/// Bit-packed key column (reference + packed value): dense words decode
/// the key block once, sparse ones read the selected rows, so the key
/// column's DRAM traffic is its packed image. Output keys are the decoded
/// values, exactly as the plain-key overloads produce. `tier` decodes the
/// key and packed inputs: the host's by default, or kScalar, the
/// reference on any host.
[[nodiscard]] GroupedAggs grouped_multi_aggregate_packed(
    const storage::PackedView& keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier());

[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate_packed(
    sched::ThreadPool& pool, const storage::PackedView& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows,
    PackedTier tier = packed_tier());

/// A group key read through a dense lookup on a foreign key (a
/// groupjoin): row i's key is lut[fk(i) - lut_min], the group value of
/// the one dimension row its foreign key joins. `fk` is an int32, int64
/// or packed view; block words decode its 64-value block once, as packed
/// keys do. Precondition: every selected row's fk(i) - lut_min indexes
/// `lut`.
struct LookupKey {
  AggInput fk;
  std::span<const std::int64_t> lut;
  std::int64_t lut_min = 0;
};

/// Grouped multi-aggregate over a lookup key; output keys are the lookup
/// values, exactly as a plain key column holding them would produce.
[[nodiscard]] GroupedAggs grouped_multi_aggregate_lookup(
    const LookupKey& keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier());

[[nodiscard]] GroupedAggs parallel_grouped_multi_aggregate_lookup(
    sched::ThreadPool& pool, const LookupKey& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range = {}, std::size_t morsel_rows = kDefaultMorselRows,
    PackedTier tier = packed_tier());

/// Slot-indexed accumulation state shared by the grouped kernels and
/// JoinAggregator: one count per group and, per input, only the
/// sum/min/max arrays its op set names (int64 for integer inputs, double
/// for doubles).
class GroupAccum {
 public:
  template <typename S>
  struct Arrays {
    std::vector<S> sum, mn, mx;
  };

  explicit GroupAccum(std::span<const AggInput> inputs);

  /// Grows every array to `slots`, new groups at the fold identities.
  /// Capacity grows geometrically, so one-slot-at-a-time growth (the hash
  /// strategy) stays amortized O(1).
  void ensure(std::size_t slots);
  /// Folds group `g` of a partial result into slot `s` (the parallel
  /// merge).
  void merge(std::uint32_t s, const GroupedAggs& part, std::size_t g);
  /// Folds slot `theirs` of an accumulator over the same inputs into
  /// slot `mine`.
  void merge(std::uint32_t mine, const GroupAccum& other, std::size_t theirs);
  /// Groups `order[i] = (key, slot)` as GroupedAggs, in `order`'s order;
  /// a group with count 0 (JoinAggregator's empty global group) reads
  /// min/max 0.
  [[nodiscard]] GroupedAggs emit(
      std::span<const std::pair<std::int64_t, std::uint32_t>> order) const;

  std::vector<std::uint64_t> counts;
  std::vector<Arrays<std::int64_t>> iarr;  // by input; unused for doubles
  std::vector<Arrays<double>> darr;        // by input; unused for ints

 private:
  struct Shape {
    bool is_double = false;
    AggOpSet ops = kAggAllOps;
  };
  std::vector<Shape> shapes_;
};

/// Gather-based aggregation sink for the late-materialized join pipeline
/// (query::Executor's vectorized join path): matches arrive as blocks of
/// row-id tuples — one row id per joined *side* — and every value —
/// group-key parts and aggregate inputs alike — is gathered from its
/// column by row id, so no pair vector and no widened key copy is ever
/// materialized. Side 0 is the probe (FROM) table; sides 1..k are the
/// build tables of a (possibly multi-way) join chain in execution order.
/// Accumulation state (GroupAccum, each input's op set included) and
/// output shapes are shared with the bitmap kernels: a grouped join
/// produces exactly the GroupedAggs a base-table GROUP BY would.
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
  std::uint32_t resolve(std::int64_t key);

  std::vector<Input> inputs_;
  std::vector<KeyPart> key_;
  bool grouped_ = false;
  bool dense_ = false;
  std::int64_t dense_min_ = 0;
  HashTable<std::uint32_t> slots_;         // hash strategy only
  std::vector<std::int64_t> slot_keys_;    // hash strategy: key per slot
  std::uint32_t next_ = 0;
  GroupAccum acc_;
  std::uint64_t pairs_ = 0;
};

}  // namespace eidb::exec
