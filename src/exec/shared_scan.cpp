#include "exec/shared_scan.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <numeric>

#include "exec/scan_kernels.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

using Kind = SharedConjunct::Kind;

/// First conjunct over the morsel [begin, end): overwrites the member's
/// selection words. The plain kernels write a bitmap from its word 0, so
/// they scan into `scratch` and the morsel's words are copied over.
void scan_first(const SharedConjunct& c, std::size_t begin, std::size_t end,
                BitVector& selection, BitVector& scratch) {
  if (c.kind == Kind::kPacked) {
    scan_packed_bitmap_range(c.packed, c.packed_bits, begin, end, c.ulo,
                             c.uhi, selection);
    return;
  }
  const std::size_t n = end - begin;
  if (scratch.size() < n) scratch.resize(n);
  switch (c.kind) {
    case Kind::kInt32:
      scan_bitmap_best(c.i32.subspan(begin, n),
                       static_cast<std::int32_t>(c.lo),
                       static_cast<std::int32_t>(c.hi), scratch);
      break;
    case Kind::kInt64:
      scan_bitmap_best64(c.i64.subspan(begin, n), c.lo, c.hi, scratch);
      break;
    case Kind::kDouble:
      scan_bitmap_double(c.f64.subspan(begin, n), c.dlo, c.dhi, scratch);
      break;
    case Kind::kPacked:
      break;
  }
  std::copy_n(scratch.words(), (n + 63) / 64, selection.words() + begin / 64);
}

/// Later conjunct over a plain column: ANDs `match` of each live row of
/// the live words [wb, we) into `sel`; dead words are skipped unread.
/// Returns the rows of the live words.
template <typename T, typename Match>
std::uint64_t and_live_rows(const T* values, std::uint64_t* sel,
                            std::size_t wb, std::size_t we, std::size_t rows,
                            const Match& match) {
  std::uint64_t evaluated = 0;
  for (std::size_t w = wb; w < we; ++w) {
    const std::uint64_t live = sel[w];
    if (live == 0) continue;
    evaluated += std::min<std::size_t>(64, rows - w * 64);
    std::uint64_t keep = 0;
    for (std::uint64_t m = live; m != 0; m &= m - 1) {
      const auto j = static_cast<unsigned>(std::countr_zero(m));
      keep |= static_cast<std::uint64_t>(match(values[w * 64 + j])) << j;
    }
    sel[w] = live & keep;
  }
  return evaluated;
}

/// Later conjunct over the morsel [begin, end): ANDs into the member's
/// selection, skipping words it already killed. Returns the rows of the
/// words it evaluated. `scratch` (grown to the longest run of live words,
/// at most a morsel) hosts packed evaluations, since the packed kernel
/// writes rather than ANDs.
std::uint64_t and_later(const SharedConjunct& c, std::size_t begin,
                        std::size_t end, std::size_t rows,
                        BitVector& selection, BitVector& scratch) {
  std::uint64_t* sel = selection.words();
  const std::size_t wb = begin / 64;
  const std::size_t we = (end + 63) / 64;
  switch (c.kind) {
    case Kind::kInt32: {
      const auto lo = static_cast<std::uint32_t>(c.lo);
      const auto width = static_cast<std::uint32_t>(c.hi) - lo;
      return and_live_rows(c.i32.data(), sel, wb, we, rows,
                           [&](std::int32_t v) {
                             return static_cast<std::uint32_t>(v) - lo <=
                                    width;
                           });
    }
    case Kind::kInt64: {
      const auto lo = static_cast<std::uint64_t>(c.lo);
      const auto width = static_cast<std::uint64_t>(c.hi) - lo;
      return and_live_rows(c.i64.data(), sel, wb, we, rows,
                           [&](std::int64_t v) {
                             return static_cast<std::uint64_t>(v) - lo <=
                                    width;
                           });
    }
    case Kind::kDouble:
      return and_live_rows(c.f64.data(), sel, wb, we, rows, [&](double v) {
        return v >= c.dlo && v <= c.dhi;
      });
    case Kind::kPacked:
      break;
  }
  // Coalesce runs of live words so the range kernel's per-call setup
  // amortizes. A run starts on a 64-row boundary, so its rows' image
  // starts on a packed word and scans into scratch from bit 0.
  std::uint64_t evaluated = 0;
  std::size_t w = wb;
  while (w < we) {
    if (sel[w] == 0) {
      ++w;
      continue;
    }
    const std::size_t run_b = w;
    while (w < we && sel[w] != 0) ++w;
    const std::size_t run_rows = std::min(w * 64, rows) - run_b * 64;
    if (scratch.size() < run_rows) scratch.resize(run_rows);
    scan_packed_bitmap_range(c.packed.subspan(run_b * c.packed_bits),
                             c.packed_bits, 0, run_rows, c.ulo, c.uhi,
                             scratch);
    const std::uint64_t* s = scratch.words();
    for (std::size_t k = run_b; k < w; ++k) sel[k] &= s[k - run_b];
    evaluated += run_rows;
  }
  return evaluated;
}

}  // namespace

std::uint64_t SharedScanStats::member_rows(std::size_t q) const {
  return std::accumulate(evaluated[q].begin(), evaluated[q].end(),
                         std::uint64_t{0});
}

void shared_scan(std::size_t rows, std::span<SharedQuery> queries,
                 sched::ThreadPool* pool, SharedScanStats& stats,
                 std::size_t morsel_rows) {
  stats.evaluated.assign(queries.size(), {});
  stats.morsels = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const SharedQuery& q = queries[qi];
    EIDB_EXPECTS(q.selection != nullptr && q.selection->size() == rows);
    EIDB_EXPECTS(!q.conjuncts.empty());
    stats.evaluated[qi].assign(q.conjuncts.size(), 0);
  }
  if (rows == 0 || queries.empty()) return;
  morsel_rows = std::max<std::size_t>(64, morsel_rows / 64 * 64);

  // One chunk walks its rows morsel by morsel, every member per morsel,
  // and folds its counts into `stats` (still all zero here) at the end.
  const std::vector<std::vector<std::uint64_t>> zero = stats.evaluated;
  std::mutex fold_mu;
  pass_chunks(pool, rows, rows, morsel_rows)
      .run([&](std::size_t, std::size_t chunk_begin, std::size_t chunk_end) {
        BitVector scratch;  // lazily sized per morsel or live-word run
        std::vector<std::vector<std::uint64_t>> evaluated = zero;
        std::uint64_t morsels = 0;
        for (std::size_t begin = chunk_begin; begin < chunk_end;
             begin += morsel_rows, ++morsels) {
          const std::size_t end = std::min(chunk_end, begin + morsel_rows);
          for (std::size_t qi = 0; qi < queries.size(); ++qi) {
            const SharedQuery& q = queries[qi];
            scan_first(q.conjuncts[0], begin, end, *q.selection, scratch);
            evaluated[qi][0] += end - begin;
            for (std::size_t k = 1; k < q.conjuncts.size(); ++k)
              evaluated[qi][k] += and_later(q.conjuncts[k], begin, end, rows,
                                            *q.selection, scratch);
          }
        }
        const std::lock_guard<std::mutex> lock(fold_mu);
        stats.morsels += morsels;
        for (std::size_t qi = 0; qi < queries.size(); ++qi)
          for (std::size_t k = 0; k < evaluated[qi].size(); ++k)
            stats.evaluated[qi][k] += evaluated[qi][k];
      });
}

}  // namespace eidb::exec
