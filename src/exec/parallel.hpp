// Morsel-driven parallel operators (paper §III/§IV.B: "orchestrate a huge
// number of parallel tasks ... Parallelism has to be considered in an
// end-to-end manner").
//
// Real-thread implementations of the scan/aggregate/group pipeline using
// the worker pool, built on the *partitioned* synchronization scheme that
// experiment E4 shows to scale: each worker owns a private accumulator (or
// hash table); a single merge runs at the end. Morsel boundaries are
// aligned to 64 tuples so selection-bitmap words are never shared between
// workers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/aggregate.hpp"
#include "sched/thread_pool.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// Default morsel size: big enough to amortize dispatch, small enough to
/// load-balance (64-aligned).
inline constexpr std::size_t kDefaultMorselRows = 64 * 1024;

/// Most chunks a chunk-merged parallel pass cuts: enough to spread over a
/// pool (4 per worker on a 4-worker host), few enough that per-chunk
/// setup (dense group arrays, join aggregators) amortizes.
inline constexpr std::size_t kMaxChunks = 16;

/// Chunk grain of a parallel pass over `rows` rows whose per-chunk
/// partials merge in chunk order: a multiple of 64 (selection words are
/// never split), at least `morsel_rows`, and large enough that the pass
/// cuts at most kMaxChunks chunks. It depends on the input size alone,
/// never on the pool width, so neither do the merged double sums.
[[nodiscard]] constexpr std::size_t chunk_grain(
    std::size_t rows, std::size_t morsel_rows = kDefaultMorselRows) {
  const std::size_t per_chunk = (rows + kMaxChunks - 1) / kMaxChunks;
  return std::max<std::size_t>(
      64, (std::max(morsel_rows, per_chunk) + 63) / 64 * 64);
}

/// Parallel range scan into a selection bitmap (int64 values).
void parallel_scan_bitmap64(sched::ThreadPool& pool,
                            std::span<const std::int64_t> values,
                            std::int64_t lo, std::int64_t hi, BitVector& out,
                            std::size_t morsel_rows = kDefaultMorselRows);

/// Parallel range scan (int32).
void parallel_scan_bitmap32(sched::ThreadPool& pool,
                            std::span<const std::int32_t> values,
                            std::int32_t lo, std::int32_t hi, BitVector& out,
                            std::size_t morsel_rows = kDefaultMorselRows);

/// Parallel range scan over a bit-packed column image (`lo`/`hi` in the
/// packed, reference-shifted domain): 64-aligned morsels own whole
/// selection words, so workers write `out` directly.
void parallel_scan_packed_bitmap(sched::ThreadPool& pool,
                                 std::span<const std::uint64_t> packed,
                                 unsigned bits, std::size_t count,
                                 std::uint64_t lo, std::uint64_t hi,
                                 BitVector& out,
                                 std::size_t morsel_rows = kDefaultMorselRows);

/// Parallel aggregation over the selected rows: per-worker partial
/// accumulators, serial merge (the E4-partitioned scheme).
[[nodiscard]] AggResult parallel_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> values,
    const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows);

/// Parallel grouped aggregation: thread-local hash tables merged by key.
/// Returns rows sorted by key (same contract as group_aggregate).
[[nodiscard]] std::vector<GroupRow> parallel_group_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const std::int64_t> values, const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows);

/// int32 values (raw int32 / dictionary-code columns): no widened copy,
/// sums widen into the int64 accumulators.
[[nodiscard]] std::vector<GroupRow> parallel_group_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const std::int32_t> values, const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows);

/// int32 keys (dictionary codes), int64 or int32 values.
[[nodiscard]] std::vector<GroupRow> parallel_group_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const std::int64_t> values, const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows);

[[nodiscard]] std::vector<GroupRow> parallel_group_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const std::int32_t> values, const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows);

}  // namespace eidb::exec
