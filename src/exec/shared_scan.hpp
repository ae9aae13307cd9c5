// Fused multi-query scan: one chunked pass over a table's predicate
// columns feeds many concurrent queries' selection bitmaps.
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
// The driver is purely mechanical: callers (query/shared_scan) bind
// predicates to column representations, decide what is scanned, and own
// all ledger accounting — the charge-once rule and the fair attribution
// of the single DRAM pass live in the query layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvector.hpp"

namespace eidb::sched {
class ThreadPool;
}  // namespace eidb::sched

namespace eidb::exec {

/// One conjunct of one member query, bound to the representation the
/// fused pass streams. Exactly one span is active, per `kind`; bounds are
/// inclusive in that representation's domain (packed bounds are already
/// reference-shifted into the image's unsigned domain).
struct SharedConjunct {
  enum class Kind : std::uint8_t { kInt32, kInt64, kDouble, kPacked };
  Kind kind = Kind::kInt32;
  std::span<const std::int32_t> i32;
  std::span<const std::int64_t> i64;
  std::span<const double> f64;
  std::span<const std::uint64_t> packed;  ///< Bit-packed image words.
  unsigned packed_bits = 0;
  std::int64_t lo = 0;   ///< Integer bounds (kInt32 values are clamped).
  std::int64_t hi = 0;
  std::uint64_t ulo = 0; ///< Packed-domain bounds (kPacked only).
  std::uint64_t uhi = 0;
  double dlo = 0;        ///< Double bounds (kDouble only).
  double dhi = 0;
};

/// One member query of a fused pass: its unpruned conjuncts and the
/// selection bitmap it owns. `selection` must be sized to the table's row
/// count; its content is overwritten (a member with no conjuncts is the
/// caller's business — do not pass it here).
struct SharedQuery {
  std::vector<SharedConjunct> conjuncts;
  BitVector* selection = nullptr;
};

struct SharedScanStats {
  std::uint64_t morsels = 0;  ///< Morsels walked, summed over chunks.
  /// Rows each member actually evaluated, aligned with the query vector:
  /// the first conjunct visits every row; later conjuncts skip 64-row
  /// words the running selection already killed. Feeds per-member cycle
  /// accounting in the query layer.
  std::vector<std::uint64_t> evaluated;
};

/// Runs the fused pass over `rows` rows for every member of `queries`,
/// in the chunks exec::pass_chunks(pool, rows, rows, morsel_rows) cuts:
/// one on the caller without a pool or below one morsel of rows,
/// chunk_grain(rows, morsel_rows) chunks on the pool otherwise. Each
/// chunk walks its rows in `morsel_rows` morsels. Bit-for-bit: each
/// member's selection equals the AND of its conjuncts' exact range
/// matches — identical to what the scan-filter operator's kernels produce
/// for the same bounds.
void shared_scan(std::size_t rows, std::span<SharedQuery> queries,
                 sched::ThreadPool* pool, SharedScanStats& stats,
                 std::size_t morsel_rows = 32 * 1024);

}  // namespace eidb::exec
