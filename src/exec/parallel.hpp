// Morsel-driven parallel operators (paper §III/§IV.B: "orchestrate a huge
// number of parallel tasks ... Parallelism has to be considered in an
// end-to-end manner").
//
// Every parallel operator fans out through ThreadPool::parallel_for. The
// calling thread drains its own chunks alongside the pool's workers, and
// a call waits for, and rethrows from, its own chunks only, never another
// query's tasks on the shared engine pool. The predicate scans here and
// the chunk-merged passes (aggregation, join probe and filter passes) cut
// chunk_grain chunks, each a multiple of 64 rows so selection-bitmap
// words are never shared between workers; per-chunk partials (the
// *partitioned* synchronization scheme that experiment E4 shows to
// scale) merge in chunk order. This header holds the chunk geometry and
// the parallel predicate scans; the aggregation kernels live in
// exec/vector_agg.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

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

/// Parallel range scan into a selection bitmap (int64 values). Inputs of
/// at most one chunk_grain(rows, morsel_rows) run inline on the caller.
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
/// packed, reference-shifted domain): 64-aligned chunks own whole
/// selection words, so workers write `out` directly.
void parallel_scan_packed_bitmap(sched::ThreadPool& pool,
                                 std::span<const std::uint64_t> packed,
                                 unsigned bits, std::size_t count,
                                 std::uint64_t lo, std::uint64_t hi,
                                 BitVector& out,
                                 std::size_t morsel_rows = kDefaultMorselRows);

}  // namespace eidb::exec
