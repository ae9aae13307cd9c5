#include "exec/shared_scan.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "exec/parallel.hpp"
#include "exec/scan_kernels.hpp"
#include "sched/thread_pool.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

/// Match mask of one 64-row word of a plain column: bit i set iff
/// lo <= v[base + i] <= hi. `n` < 64 on the table's tail word; bits past
/// `n` stay zero, preserving the BitVector tail invariant.
template <typename T, typename B>
std::uint64_t eval_word(const T* values, std::size_t base, std::size_t n,
                        B lo, B hi) {
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < n; ++i)
    m |= static_cast<std::uint64_t>(values[base + i] >= lo &&
                                    values[base + i] <= hi)
         << i;
  return m;
}

std::uint64_t conjunct_word(const SharedConjunct& c, std::size_t base,
                            std::size_t n) {
  switch (c.kind) {
    case SharedConjunct::Kind::kInt32: {
      const auto lo = static_cast<std::int32_t>(std::clamp<std::int64_t>(
          c.lo, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()));
      const auto hi = static_cast<std::int32_t>(std::clamp<std::int64_t>(
          c.hi, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()));
      return eval_word(c.i32.data(), base, n, lo, hi);
    }
    case SharedConjunct::Kind::kInt64:
      return eval_word(c.i64.data(), base, n, c.lo, c.hi);
    case SharedConjunct::Kind::kDouble:
      return eval_word(c.f64.data(), base, n, c.dlo, c.dhi);
    case SharedConjunct::Kind::kPacked:
      break;  // handled by the packed range kernel below
  }
  EIDB_EXPECTS(false);
  return 0;
}

/// Evaluates one member's conjuncts over the morsel [begin, end) of a
/// fused pass. The first conjunct overwrites the member's selection
/// words; later conjuncts AND in, skipping words the running selection
/// already killed (the fused form of the masked-conjunct optimization).
/// `scratch` (grown to the longest run of live words, at most a morsel)
/// hosts packed later-conjunct evaluations, since the packed kernel
/// writes rather than ANDs.
std::uint64_t eval_member_morsel(const SharedQuery& q, std::size_t begin,
                                 std::size_t end, std::size_t rows,
                                 BitVector& scratch) {
  std::uint64_t* sel = q.selection->words();
  const std::size_t wb = begin / 64;
  const std::size_t we = (end + 63) / 64;
  std::uint64_t evaluated = 0;
  bool first = true;
  for (const SharedConjunct& c : q.conjuncts) {
    if (c.kind == SharedConjunct::Kind::kPacked) {
      if (first) {
        scan_packed_bitmap_range(c.packed, c.packed_bits, begin, end, c.ulo,
                                 c.uhi, *q.selection);
        evaluated += end - begin;
      } else {
        // Coalesce runs of live words so the range kernel's per-call
        // setup amortizes; dead words are skipped unevaluated. A run
        // starts on a 64-row boundary, so its rows' image starts on a
        // packed word and scans into scratch from bit 0.
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
      }
    } else {
      for (std::size_t w = wb; w < we; ++w) {
        if (!first && sel[w] == 0) continue;
        const std::size_t base = w * 64;
        const std::size_t n = std::min<std::size_t>(64, rows - base);
        const std::uint64_t m = conjunct_word(c, base, n);
        sel[w] = first ? m : (sel[w] & m);
        evaluated += n;
      }
    }
    first = false;
  }
  return evaluated;
}

}  // namespace

void shared_scan(std::size_t rows, std::span<SharedQuery> queries,
                 sched::ThreadPool* pool, SharedScanStats& stats,
                 std::size_t morsel_rows) {
  stats.evaluated.assign(queries.size(), 0);
  stats.morsels = 0;
  if (rows == 0 || queries.empty()) return;
  for (const SharedQuery& q : queries) {
    EIDB_EXPECTS(q.selection != nullptr && q.selection->size() == rows);
    EIDB_EXPECTS(!q.conjuncts.empty());
  }
  morsel_rows = std::max<std::size_t>(64, morsel_rows / 64 * 64);

  // One chunk walks its rows morsel by morsel, every member per morsel.
  std::mutex fold_mu;
  const auto run_chunk = [&](std::size_t chunk_begin, std::size_t chunk_end) {
    BitVector scratch;  // lazily sized; packed later conjuncts only
    std::vector<std::uint64_t> evaluated(queries.size(), 0);
    std::uint64_t morsels = 0;
    for (std::size_t begin = chunk_begin; begin < chunk_end;
         begin += morsel_rows, ++morsels) {
      const std::size_t end = std::min(chunk_end, begin + morsel_rows);
      for (std::size_t qi = 0; qi < queries.size(); ++qi)
        evaluated[qi] +=
            eval_member_morsel(queries[qi], begin, end, rows, scratch);
    }
    const std::lock_guard<std::mutex> lock(fold_mu);
    stats.morsels += morsels;
    for (std::size_t qi = 0; qi < queries.size(); ++qi)
      stats.evaluated[qi] += evaluated[qi];
  };

  pass_chunks(pool, rows, rows, morsel_rows)
      .run([&](std::size_t, std::size_t begin, std::size_t end) {
        run_chunk(begin, end);
      });
}

}  // namespace eidb::exec
