// Single-pass vectorized aggregation kernels.
//
// These kernels consume the selection bitmap 64 rows at a word and
// compute *all* of a query's aggregates in ONE pass over the data:
//
//  * block words (at least agg_block_min_live(tier) live rows, the 64-row
//    block wholly inside the columns): every packed column the pass reads
//    (group key, lookup foreign key and kPacked inputs) decodes its block
//    once and keeps only the live lanes, in row order;
//  * sparse words list their set bits (count-trailing-zeros) and read
//    each column at those rows, packed ones through value_at;
//  * full words of plain inputs to the global kernel run branch-free,
//    autovectorized loops;
//  * each input then accumulates column-at-a-time over the word, and only
//    the state (sum / min / max) its AggOpSet names; in a grouped block
//    word, a packed first input folds in the loop that resolves the slots.
//
// Each kernel has one word loop, instantiated per packed tier: a chunk
// runs wholly at its tier (the AVX-512 VBMI instance inside one
// target-attributed function), and each packed column's block decoder is
// built once at chunk entry, not per word.
//
// Every input column is therefore touched exactly once per query — the
// DRAM-byte ledger (and the joules attributed from it) drops accordingly.
// Grouped variants share one per-group count across all inputs and accept
// the key range from the cached storage::ColumnStats, so they skip a key
// min/max pass when the caller knows the range.
//
// Each kernel has one code path and takes an optional sched::ThreadPool:
// exec::pass_chunks decides the pass's chunks, one on the caller (the
// whole pass, no merge) or chunk_grain chunks cut from the row count and
// morsel size alone. Chunk partials — GroupTables for the grouped kernels
// — fold into chunk 0's slot by slot in chunk order, so double sums
// depend neither on thread scheduling nor on the pool width. GroupTable
// is also JoinAggregator's slot state: grouped aggregation has one key →
// slot table, one dense/hash choice, one merge and one emit. These are
// the engine's only aggregation kernels: queries, the cost model's
// calibration and the benches all run them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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
/// BM_GroupedAggPacked, BM_GroupJoinLookup and BM_MultiAggregatePacked
/// density sweeps (docs/executor_pipeline.md): with its decoders built
/// once per chunk, the AVX-512 VBMI block path ties the per-row path at
/// 1 live row and wins from 2; the scalar one wins from 16.
[[nodiscard]] constexpr unsigned agg_block_min_live(PackedTier tier) {
  return tier == PackedTier::kAvx512Vbmi ? 2 : 16;
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
/// Empty selections return zeroed results (count, sum, min and max all
/// 0). `tier` decodes packed inputs: the host's by default, or kScalar,
/// the reference on any host. With `pool`, the pass runs as
/// exec::pass_chunks(pool, rows, selected rows, morsel_rows) decides;
/// chunk partials merge in chunk order (the E4-partitioned scheme).
[[nodiscard]] std::vector<AggOut> multi_aggregate(
    std::span<const AggInput> inputs, const BitVector& selection,
    PackedTier tier = packed_tier(), sched::ThreadPool* pool = nullptr,
    std::size_t morsel_rows = kDefaultMorselRows);

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
/// Groups with no selected row are not emitted. `strategy` applies to
/// each chunk's GroupTable: kAuto takes dense slots when the key range
/// spans at most kDenseDomainLimit slots in a one-chunk pass, or at most
/// kChunkDenseLimit slots and a chunk's rows (chunk_grain) in a
/// multi-chunk pass, and hashes otherwise; kDenseArray throws on a range
/// wider than kDenseDomainLimit.
/// `tier` decodes packed keys and inputs: the host's by default, or
/// kScalar, the reference on any host. `pool` and `morsel_rows` set the
/// chunks, as for multi_aggregate.
[[nodiscard]] GroupedAggs grouped_multi_aggregate(
    std::span<const std::int64_t> keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier(), sched::ThreadPool* pool = nullptr,
    std::size_t morsel_rows = kDefaultMorselRows);

/// int32 / dictionary-code keys, consumed directly (no widened key copy).
[[nodiscard]] GroupedAggs grouped_multi_aggregate32(
    std::span<const std::int32_t> keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier(), sched::ThreadPool* pool = nullptr,
    std::size_t morsel_rows = kDefaultMorselRows);

/// Bit-packed key column (reference + packed value): dense words decode
/// the key block once, sparse ones read the selected rows, so the key
/// column's DRAM traffic is its packed image. Output keys are the decoded
/// values, exactly as the plain-key overloads produce.
[[nodiscard]] GroupedAggs grouped_multi_aggregate_packed(
    const storage::PackedView& keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier(), sched::ThreadPool* pool = nullptr,
    std::size_t morsel_rows = kDefaultMorselRows);

/// A group key read through a dense lookup on a foreign key (a
/// groupjoin): row i's key is lut[fk(i) - lut_min], the group value of
/// the one dimension row its foreign key joins. `fk` is an int32, int64
/// or packed view; block words decode its 64-value block once, as packed
/// keys do.
struct LookupKey {
  AggInput fk;
  std::span<const std::int64_t> lut;
  std::int64_t lut_min = 0;
  /// Bound-check every selected row's fk(i) - lut_min against `lut`, and
  /// throw eidb::Error for one outside. Set it unless the fk column's
  /// cached range lies inside the lookup's domain: then no row can fall
  /// outside, and the kernels read with no per-row check.
  bool check_fk = false;

  /// Row i's key (per-row readers such as composite-key synthesis).
  [[nodiscard]] std::int64_t at(std::size_t i) const;
};

/// Grouped multi-aggregate over a lookup key; output keys are the lookup
/// values, exactly as a plain key column holding them would produce.
[[nodiscard]] GroupedAggs grouped_multi_aggregate_lookup(
    const LookupKey& keys, std::span<const AggInput> inputs,
    const BitVector& selection, KeyRange range = {},
    GroupStrategy strategy = GroupStrategy::kAuto,
    PackedTier tier = packed_tier(), sched::ThreadPool* pool = nullptr,
    std::size_t morsel_rows = kDefaultMorselRows);

/// Widest key range a GroupTable of a multi-chunk pass gives dense slots
/// under kAuto (64Ki slots, and never more slots than the chunk has rows):
/// every chunk's dense table spans the whole range, so wider ranges hash
/// per chunk instead of paying O(range) initialization, merge and emit in
/// each of up to kMaxChunks tables.
inline constexpr std::int64_t kChunkDenseLimit = 1 << 16;

/// The slot state of grouped aggregation, shared by the bitmap kernels
/// and JoinAggregator: the key → slot map — dense slots (slot = key -
/// range.min) or a hash table holding each slot's key — and one count
/// per slot plus, per input, only the sum/min/max arrays its op set names
/// (int64 for integer inputs, double for doubles). The layout is chosen
/// once per table. The chunks of one pass build tables of one layout and
/// fold into chunk 0's slot by slot, in chunk order.
class GroupTable {
 public:
  template <typename S>
  struct Arrays {
    std::vector<S> sum, mn, mx;
  };

  /// The layout `strategy` gives a table of a pass cut into `chunks`
  /// chunks of `chunk_rows` rows (see grouped_multi_aggregate): true for
  /// dense slots. Throws for kDenseArray over an unknown range or one
  /// wider than kDenseDomainLimit.
  [[nodiscard]] static bool dense_layout(const KeyRange& range,
                                         GroupStrategy strategy,
                                         std::size_t chunks,
                                         std::size_t chunk_rows);

  /// Dense slots over `range` (known) when `dense`; otherwise a hash
  /// table pre-sized for `hash_groups` groups.
  GroupTable(std::span<const AggInput> inputs, const KeyRange& range,
             bool dense, std::size_t hash_groups = 16);

  /// Calls fn(resolve), resolve(key) giving the key's slot — the dense
  /// offset or the hash lookup, inserting new keys — so each per-row
  /// loop compiles once per layout.
  template <typename Fn>
  void with_resolver(Fn&& fn) {
    if (dense_) {
      const std::int64_t min = dense_min_;
      fn([min](std::int64_t key) {
        return static_cast<std::uint32_t>(key - min);
      });
    } else {
      fn([this](std::int64_t key) { return hash_slot(key); });
    }
  }
  /// Folds every group of `other`, a table over the same inputs and
  /// layout, into this one.
  void merge_from(const GroupTable& other);
  /// The groups sorted by key: those with a row, or with `empty_slots`
  /// every dense slot (JoinAggregator's one global group, emitted even
  /// with no match; an empty group reads min/max 0).
  [[nodiscard]] GroupedAggs emit(bool empty_slots = false) const;

  std::vector<std::uint64_t> counts;
  std::vector<Arrays<std::int64_t>> iarr;  // by input; unused for doubles
  std::vector<Arrays<double>> darr;        // by input; unused for ints

 private:
  struct Shape {
    bool is_double = false;
    AggOpSet ops = kAggAllOps;
  };

  /// Grows every array to `slots`, new groups at the fold identities.
  /// Capacity grows geometrically, so one-slot-at-a-time growth (the hash
  /// layout) stays amortized O(1).
  void ensure(std::size_t slots);
  std::uint32_t hash_slot(std::int64_t key) {
    return slots_.get_or_insert(key, [&](std::uint32_t& fresh) {
      fresh = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
      ensure(keys_.size());
    });
  }

  std::vector<Shape> shapes_;
  bool dense_ = false;
  std::int64_t dense_min_ = 0;
  HashTable<std::uint32_t> slots_;  // hash layout: key → slot
  std::vector<std::int64_t> keys_;  // hash layout: key of each slot
};

/// Gather-based aggregation sink for the late-materialized join pipeline
/// (query::Executor's vectorized join path): matches arrive as blocks of
/// row-id tuples — one row id per joined *side* — and every value —
/// group-key parts and aggregate inputs alike — is gathered from its
/// column by row id, so no pair vector and no widened key copy is ever
/// materialized. Side 0 is the probe (FROM) table; sides 1..k are the
/// build tables of a (possibly multi-way) join chain in execution order.
/// Slot state (GroupTable, each input's op set included) and output
/// shapes are shared with the bitmap kernels: a grouped join produces
/// exactly the GroupedAggs a base-table GROUP BY would.
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
  /// Grouped aggregates over a GroupTable laid out as the bitmap kernels
  /// lay theirs under kAuto, for one of `chunks` aggregators of a pass cut
  /// into `chunk_rows`-row chunks: dense slots when `range` is known and
  /// spans at most kDenseDomainLimit slots (when chunks > 1, at most
  /// kChunkDenseLimit and chunk_rows), hash slots otherwise. finish()
  /// emits only non-empty groups.
  JoinAggregator(std::vector<Input> inputs, std::vector<KeyPart> key,
                 KeyRange range, std::size_t chunks = 1,
                 std::size_t chunk_rows = 0);

  /// Accumulates one block of single-join matches (any count; consumed in
  /// bounded sub-blocks internally). Side 0 = probe, side 1 = build.
  void add_block(const std::uint32_t* build_rows,
                 const std::uint32_t* probe_rows, std::size_t count);

  /// Multi-way variant: `rows[s][i]` is match i's row id on side s (the
  /// join chain's tuple layout; `rows` must cover every side an Input or
  /// KeyPart references).
  void add_block(const std::uint32_t* const* rows, std::size_t count);

  /// Folds a same-spec aggregator's state into this one — the chunk
  /// merge of a multi-chunk probe.
  void merge_from(const JoinAggregator& other);

  [[nodiscard]] std::uint64_t pair_count() const { return pairs_; }

  /// Grouped output, sorted by key; shapes match the bitmap kernels'.
  [[nodiscard]] GroupedAggs finish() const;

 private:
  std::vector<Input> inputs_;
  std::vector<KeyPart> key_;  ///< Empty for global aggregates.
  GroupTable table_;
  std::uint64_t pairs_ = 0;
};

}  // namespace eidb::exec
