// The conjunct pass: one chunked pass over a table's predicate columns
// that evaluates one or many queries' conjunctions into their selection
// bitmaps. A solo scan is a one-member pass; a fused multi-query scan is
// a pass with one member per query.
//
// Under heavy concurrent traffic the scan — not the query — is the unit
// to amortize (Perach et al.'s bulk-bitwise PIM work and Mutlu's
// "Memory-Centric Computing", PAPERS.md): N compatible queries over the
// same fact table should pay the table's DRAM bytes once. The driver
// walks the table in 64-aligned morsels; within a morsel every member
// query's conjuncts are evaluated while the column chunk is cache-
// resident, so the first member's touch is the DRAM read and members
// 2..N re-read from cache. The pass fans out over the engine-shared
// sched::ThreadPool in chunk_grain chunks, as every other operator does;
// chunk and morsel boundaries are 64-aligned, so no selection word is
// ever shared between workers.
//
// Each conjunct kind has one kernel pair. A member's first conjunct runs
// the SIMD range kernels over the whole morsel (scan_packed_bitmap_range,
// scan_bitmap_best, scan_bitmap_best64, scan_bitmap_double). A later
// conjunct skips the 64-row words the running selection already killed:
// packed columns scan runs of live words through the packed range kernel,
// plain columns compare only the live rows of each live word (a live
// row's value is about one cache line; a whole-word compare would read
// eight for int64).
//
// The driver is purely mechanical: callers (query/ops/scan_filter) bind
// predicates to column representations, decide what is scanned, and own
// all ledger accounting — the solo charge and the fused group's
// charge-once rule live in the query layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/parallel.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// One conjunct of one member query, bound to the representation the
/// pass streams. Exactly one span is active, per `kind`; bounds are
/// inclusive in that representation's domain (packed bounds are already
/// reference-shifted into the image's unsigned domain, kInt32 bounds
/// already clamped into the int32 range).
struct SharedConjunct {
  enum class Kind : std::uint8_t { kInt32, kInt64, kDouble, kPacked };
  Kind kind = Kind::kInt32;
  std::span<const std::int32_t> i32;
  std::span<const std::int64_t> i64;
  std::span<const double> f64;
  std::span<const std::uint64_t> packed;  ///< Bit-packed image words.
  unsigned packed_bits = 0;
  std::int64_t lo = 0;   ///< Integer bounds (kInt32 and kInt64).
  std::int64_t hi = 0;
  std::uint64_t ulo = 0; ///< Packed-domain bounds (kPacked only).
  std::uint64_t uhi = 0;
  double dlo = 0;        ///< Double bounds (kDouble only).
  double dhi = 0;
};

/// One member query of a pass: its unpruned conjuncts and the selection
/// bitmap it owns. `selection` must be sized to the table's row count;
/// its content is overwritten (a member with no conjuncts is the
/// caller's business — do not pass it here).
struct SharedQuery {
  std::vector<SharedConjunct> conjuncts;
  BitVector* selection = nullptr;
};

struct SharedScanStats {
  std::uint64_t morsels = 0;  ///< Morsels walked, summed over chunks.
  /// Rows each conjunct evaluated, per member (aligned with the query
  /// vector) and conjunct: the first conjunct visits every row; a later
  /// one visits the rows of the 64-row words still live when it runs.
  /// Feeds the solo scan's per-conjunct charge and the fused group's
  /// per-member cycles in the query layer.
  std::vector<std::vector<std::uint64_t>> evaluated;

  /// Rows member `q` evaluated, summed over its conjuncts.
  [[nodiscard]] std::uint64_t member_rows(std::size_t q) const;
};

/// Runs the pass over `rows` rows for every member of `queries`, in the
/// chunks exec::pass_chunks(pool, rows, rows, morsel_rows) cuts: one on
/// the caller without a pool or below one morsel of rows, chunk_grain
/// chunks on the pool otherwise. Each chunk walks its rows in
/// `morsel_rows` morsels. Bit-for-bit: each member's selection equals the
/// AND of its conjuncts' exact range matches.
void shared_scan(std::size_t rows, std::span<SharedQuery> queries,
                 sched::ThreadPool* pool, SharedScanStats& stats,
                 std::size_t morsel_rows = kDefaultMorselRows);

}  // namespace eidb::exec
