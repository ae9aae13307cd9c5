// Morsel-driven parallel operators (paper §III/§IV.B: "orchestrate a huge
// number of parallel tasks ... Parallelism has to be considered in an
// end-to-end manner").
//
// Every pass — the conjunct pass, aggregation, join filter, probe and
// projection passes, sort-key gathers and materialization — has one code
// path and takes its fan-out from one rule, pass_chunks: a pass over
// `rows` rows with `live` selected rows runs as ONE chunk on the calling
// thread (exactly the serial loop, no scratch copy and no merge) when
// there is no pool or fewer than a morsel of rows is live; otherwise it
// cuts chunk_grain chunks, each a multiple of 64 rows so selection-bitmap
// words are never shared between workers, and runs them through
// ThreadPool::parallel_for. The calling thread drains its own chunks
// alongside the pool's workers, and a call waits for, and rethrows from,
// its own chunks only, never another query's tasks on the shared engine
// pool. Per-chunk partials (the *partitioned* synchronization scheme that
// experiment E4 shows to scale) fold into chunk 0's in chunk order. The
// rule has no knob, and a pass without a pool stays one chunk: cut
// inline, its chunks would only add merges (docs/executor_pipeline.md,
// "Morsel scheduling across the plan"). This header holds the rule and
// the chunk loop; the predicate scans run as the conjunct pass
// (exec/shared_scan) and the aggregation kernels live in exec/vector_agg.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sched/thread_pool.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// Default morsel size: big enough to amortize dispatch, small enough to
/// load-balance (64-aligned). A pass with fewer live rows runs as one
/// chunk.
inline constexpr std::size_t kDefaultMorselRows = 64 * 1024;

/// Most chunks a pass cuts: enough to spread over a pool (4 per worker on
/// a 4-worker host), few enough that per-chunk setup (group tables, join
/// aggregators) amortizes.
inline constexpr std::size_t kMaxChunks = 16;

/// Chunk grain of a pass over `rows` rows whose per-chunk partials merge
/// in chunk order: a multiple of 64 (selection words are never split), at
/// least `morsel_rows`, and large enough that the pass cuts at most
/// kMaxChunks chunks. It depends on the input size alone, never on the
/// pool width, so neither do the merged double sums.
[[nodiscard]] constexpr std::size_t chunk_grain(
    std::size_t rows, std::size_t morsel_rows = kDefaultMorselRows) {
  const std::size_t per_chunk = (rows + kMaxChunks - 1) / kMaxChunks;
  return std::max<std::size_t>(
      64, (std::max(morsel_rows, per_chunk) + 63) / 64 * 64);
}

/// The chunks one pass runs as: [0, rows) in `grain`-row pieces, the last
/// one possibly shorter. A pass over rows takes them from pass_chunks; a
/// fan-out over independent tasks (radix partitions, shards) is
/// {pool, tasks, 1}.
struct Chunks {
  /// Pool the chunks fan out on; nullptr when the pass is one chunk.
  sched::ThreadPool* pool = nullptr;
  std::size_t rows = 0;
  /// Rows per chunk: a multiple of 64 from pass_chunks, or `rows` for one
  /// chunk.
  std::size_t grain = 0;

  [[nodiscard]] std::size_t count() const {
    return pool == nullptr ? 1 : (rows + grain - 1) / grain;
  }

  /// Calls fn(chunk, begin, end) for every chunk — on the caller for one
  /// chunk, through ThreadPool::parallel_for otherwise — and returns once
  /// all are done, rethrowing the first error. Chunk ids index per-chunk
  /// partials, which callers fold in chunk order, never completion order.
  template <typename Fn>
  void run(Fn&& fn) const {
    if (pool == nullptr) {
      fn(std::size_t{0}, std::size_t{0}, rows);
      return;
    }
    pool->parallel_for(rows, grain, [&](std::size_t begin, std::size_t end) {
      fn(begin / grain, begin, end);
    });
  }
};

/// The fan-out rule of every pass over `rows` rows with `live` selected
/// rows (a scan or a gather passes live = rows): one chunk on the caller
/// without a pool or below `morsel_rows` live rows, chunk_grain(rows,
/// morsel_rows) chunks on `pool` otherwise. Production passes keep the
/// default morsel; kernel tests and benches shrink it to cut several
/// chunks from small inputs.
[[nodiscard]] inline Chunks pass_chunks(
    sched::ThreadPool* pool, std::size_t rows, std::size_t live,
    std::size_t morsel_rows = kDefaultMorselRows) {
  const std::size_t grain = chunk_grain(rows, morsel_rows);
  if (pool == nullptr || live < morsel_rows || grain >= rows)
    return {nullptr, rows, rows};
  return {pool, rows, grain};
}

/// pass_chunks with `live` the rows set in `selection`, counted only when
/// there is a pool to fan out on.
[[nodiscard]] inline Chunks pass_chunks(
    sched::ThreadPool* pool, std::size_t rows, const BitVector& selection,
    std::size_t morsel_rows = kDefaultMorselRows) {
  return pass_chunks(pool, rows, pool == nullptr ? 0 : selection.count(),
                     morsel_rows);
}

}  // namespace eidb::exec
