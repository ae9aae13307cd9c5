#include "query/ops/scan_filter.hpp"

#include <algorithm>
#include <limits>

#include "exec/scan_kernels.hpp"
#include "storage/zonemap.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;
using Kind = exec::SharedConjunct::Kind;

namespace {

/// A predicate's bounds bound to a column's type (string bounds become
/// dictionary-code ranges).
struct BoundRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool empty = false;
  bool is_double = false;
  double dlo = 0;
  double dhi = 0;
};

BoundRange bind_predicate(const Column& column, const Predicate& p) {
  BoundRange r;
  switch (column.type()) {
    case TypeId::kInt32:
    case TypeId::kInt64:
      r.lo = p.lo.as_int();
      r.hi = p.hi.as_int();
      r.empty = r.lo > r.hi;
      return r;
    case TypeId::kDouble:
      r.is_double = true;
      r.dlo = p.lo.as_double();
      r.dhi = p.hi.as_double();
      r.empty = r.dlo > r.dhi;
      return r;
    case TypeId::kString: {
      if (!p.lo.is_string() || !p.hi.is_string())
        throw Error("string column " + column.name() +
                    " requires string bounds");
      const storage::Dictionary& dict = column.dictionary();
      // Inclusive string range [lo, hi] -> inclusive code range.
      r.lo = dict.lower_bound(p.lo.as_string());
      r.hi = dict.upper_bound(p.hi.as_string()) - 1;
      r.empty = r.lo > r.hi;
      return r;
    }
  }
  throw Error("invalid column type");
}

/// Stats-based pre-scan pruning of one bound predicate from the column's
/// cached [min, max]: kAll (every row matches; nothing scanned or
/// charged), kNone (no row matches) or kScan (evaluate it).
enum class Prune : std::uint8_t { kScan, kAll, kNone };

Prune prune_with_stats(const Column& column, const BoundRange& r) {
  const storage::ColumnStats& s = column.stats();
  if (s.rows == 0) return Prune::kScan;
  const bool all = r.is_double ? (r.dlo <= s.dmin && r.dhi >= s.dmax)
                               : (r.lo <= s.min && r.hi >= s.max);
  if (all) return Prune::kAll;
  const bool none = r.is_double ? (r.dhi < s.dmin || r.dlo > s.dmax)
                                : (r.hi < s.min || r.lo > s.max);
  return none ? Prune::kNone : Prune::kScan;
}

/// Saturates a bound into the int32 kernels' domain.
std::int32_t clamp32(std::int64_t v) {
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(v, std::numeric_limits<std::int32_t>::min(),
                               std::numeric_limits<std::int32_t>::max()));
}

/// One predicate bound to the representation the scan streams: a
/// conjunct when `prune` is kScan, decided without a scan otherwise (an
/// empty column is kAll: there is nothing to evaluate).
struct BoundConjunct {
  Prune prune = Prune::kScan;
  BoundRange range;
  exec::SharedConjunct conjunct;
  bool packed = false;
};

BoundConjunct bind_conjunct(const Column& col, const Predicate& p,
                            const ExecOptions& options) {
  BoundConjunct b;
  b.range = bind_predicate(col, p);
  const BoundRange& r = b.range;
  b.prune = r.empty ? Prune::kNone : prune_with_stats(col, r);
  if (b.prune == Prune::kScan && col.size() == 0) b.prune = Prune::kAll;
  if (b.prune != Prune::kScan) return b;

  exec::SharedConjunct& c = b.conjunct;
  b.packed = !r.is_double && use_packed(col, options);
  if (b.packed) {
    // The bounds overlap the column's [min, max] (kScan), so hi >=
    // reference and the unsigned shift into the packed domain is exact.
    const storage::EncodedSegment& seg = *col.encoded();
    const auto ref = static_cast<std::uint64_t>(seg.reference);
    c.kind = Kind::kPacked;
    c.packed = seg.words;
    c.packed_bits = seg.bits;
    c.ulo = r.lo <= seg.reference ? 0 : static_cast<std::uint64_t>(r.lo) - ref;
    c.uhi = static_cast<std::uint64_t>(r.hi) - ref;
  } else if (r.is_double) {
    c.kind = Kind::kDouble;
    c.f64 = col.double_data();
    c.dlo = r.dlo;
    c.dhi = r.dhi;
  } else if (col.type() == TypeId::kInt64) {
    c.kind = Kind::kInt64;
    c.i64 = col.int64_data();
    c.lo = r.lo;
    c.hi = r.hi;
  } else {
    // kInt32 and kString both stream the int32 array (codes for strings;
    // bind_predicate already produced the code range).
    c.kind = Kind::kInt32;
    c.i32 = col.int32_data();
    c.lo = clamp32(r.lo);
    c.hi = clamp32(r.hi);
  }
  return b;
}

/// `predicates` in evaluation order: most-selective-first by
/// estimate_predicate_selectivity (stable), so the first conjunct kills
/// the most rows and later ones skip the most words.
std::vector<const Predicate*> ordered_predicates(
    const Table& table, const std::vector<Predicate>& preds) {
  std::vector<const Predicate*> ordered;
  ordered.reserve(preds.size());
  for (const Predicate& p : preds) ordered.push_back(&p);
  if (ordered.size() > 1) {
    std::vector<double> sel(ordered.size());
    for (std::size_t i = 0; i < ordered.size(); ++i)
      sel[i] = estimate_predicate_selectivity(
          table.column(ordered[i]->column), *ordered[i]);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const Predicate* a, const Predicate* b) {
                       return sel[static_cast<std::size_t>(a - preds.data())] <
                              sel[static_cast<std::size_t>(b - preds.data())];
                     });
  }
  return ordered;
}

/// The zone-map arm (E1): one predicate scans only the candidate blocks of
/// its column's zone map and ANDs its match into `selection`. It is
/// charged a full read, then credited back the untouched blocks' bytes
/// and cycles. Candidate ranges over a packed image widen to 64-value
/// blocks for the block kernel — sound, because a row outside every
/// candidate range cannot match (its block's [min, max] excludes it), and
/// overlapping widened ranges rewrite identical words. A double
/// predicate, which zone maps do not cover, runs as a one-member pass.
void apply_zoned(OpContext& ctx, const Table& table, const Predicate& p,
                 BitVector& selection) {
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  const Column& column = table.column(p.column);
  const BoundConjunct b = bind_conjunct(column, p, options);
  if (b.prune == Prune::kNone) selection.clear_all();
  if (b.prune != Prune::kScan) return;

  const std::size_t n = column.size();
  stats.tuples_scanned += n;
  stats.work.cpu_cycles += kScanCyclesPerTuple * static_cast<double>(n);
  ctx.charge_scan(table, column, b.packed);

  const exec::SharedConjunct& c = b.conjunct;
  BitVector match(n);
  if (c.kind == Kind::kDouble) {
    exec::SharedQuery q{{c}, &match};
    exec::SharedScanStats pass;
    exec::shared_scan(n, {&q, 1}, options.pool, pass);
    selection &= match;
    return;
  }
  const storage::ZoneMap& zm = table.zone_map(
      table.schema().index_of(p.column), options.zone_block_rows);
  const auto ranges = zm.candidate_ranges(b.range.lo, b.range.hi, n);
  std::size_t touched = 0;
  for (const auto& range : ranges) {
    touched += range.end - range.begin;
    if (c.kind == Kind::kPacked) {
      const std::size_t rb = range.begin & ~std::size_t{63};
      const std::size_t re = std::min(n, (range.end + 63) & ~std::size_t{63});
      exec::scan_packed_bitmap_range(c.packed, c.packed_bits, rb, re, c.ulo,
                                     c.uhi, match);
      continue;
    }
    const auto scan_range = [&](auto values) {
      for (std::size_t i = range.begin; i < range.end; ++i)
        if (values[i] >= b.range.lo && values[i] <= b.range.hi) match.set(i);
    };
    if (c.kind == Kind::kInt64)
      scan_range(c.i64);
    else
      scan_range(c.i32);
  }
  // Credit back the untouched bytes and cycles of the full-scan charge;
  // a packed read credits its packed bytes per tuple.
  const double skipped = static_cast<double>(n - touched);
  const double plain_bpt =
      static_cast<double>(storage::physical_size(column.type()));
  const double bpt = b.packed ? static_cast<double>(column.scan_byte_size()) /
                                    static_cast<double>(n)
                              : plain_bpt;
  stats.work.cpu_cycles -= kScanCyclesPerTuple * skipped;
  stats.work.dram_bytes -= skipped * bpt;
  if (b.packed) stats.dram_bytes_saved -= skipped * (plain_bpt - bpt);
  selection &= match;
}

}  // namespace

double estimate_predicate_selectivity(const Column& column,
                                      const Predicate& p) {
  const BoundRange r = bind_predicate(column, p);
  if (r.empty) return 0.0;
  const storage::ColumnStats& s = column.stats();
  return r.is_double ? s.range_selectivity(r.dlo, r.dhi)
                     : s.range_selectivity(r.lo, r.hi);
}

bool use_packed(const Column& column, const ExecOptions& options) {
  // The byte-size guard keeps the dram(packed) <= dram(plain) ledger
  // invariant unconditional: a forced encoding whose word-rounded image
  // exceeds the plain array (tiny column, near-full width) is simply not
  // consumed — the executor reads plain instead of charging more.
  return options.use_encodings && column.encoded() != nullptr &&
         column.type() != TypeId::kDouble &&
         column.scan_byte_size() <= column.byte_size();
}

Conjunction bind_conjunction(const Table& table,
                             const std::vector<Predicate>& preds,
                             const ExecOptions& options) {
  Conjunction conj;
  for (const Predicate* p : ordered_predicates(table, preds)) {
    const Column& col = table.column(p->column);
    BoundConjunct b = bind_conjunct(col, *p, options);
    if (b.prune == Prune::kNone) return Conjunction{true, {}, {}};
    if (b.prune == Prune::kAll) continue;
    conj.conjuncts.push_back(b.conjunct);
    conj.scanned.emplace_back(&col, b.packed);
  }
  return conj;
}

BitVector evaluate_predicates(OpContext& ctx, const Table& table,
                              const std::vector<Predicate>& preds) {
  BitVector selection(table.row_count());
  selection.set_all();
  if (ctx.options.use_zone_maps) {
    for (const Predicate* p : ordered_predicates(table, preds))
      apply_zoned(ctx, table, *p, selection);
    return selection;
  }

  Conjunction conj = bind_conjunction(table, preds, ctx.options);
  if (conj.none) selection.clear_all();
  if (conj.conjuncts.empty()) return selection;
  exec::SharedQuery solo{std::move(conj.conjuncts), &selection};
  exec::SharedScanStats pass;
  exec::shared_scan(selection.size(), {&solo, 1}, ctx.options.pool, pass);

  // The first conjunct is one full read of its column. A later conjunct
  // is charged the rows it evaluated at its bytes per tuple: dead 64-row
  // words cost neither cycles nor DRAM traffic, which is where ordering
  // predicates most-selective-first saves joules.
  ExecStats& stats = ctx.stats;
  for (std::size_t k = 0; k < conj.scanned.size(); ++k) {
    const auto [column, packed] = conj.scanned[k];
    const std::uint64_t rows = pass.evaluated[0][k];
    stats.tuples_scanned += rows;
    stats.work.cpu_cycles += kScanCyclesPerTuple * static_cast<double>(rows);
    if (k == 0) {
      ctx.charge_scan(table, *column, packed);
      continue;
    }
    const double plain_bpt =
        static_cast<double>(storage::physical_size(column->type()));
    double bytes_per_tuple = plain_bpt;
    if (packed) {
      bytes_per_tuple = static_cast<double>(column->scan_byte_size()) /
                        static_cast<double>(column->size());
      ++stats.packed_column_reads;
      stats.dram_bytes_saved +=
          static_cast<double>(rows) * (plain_bpt - bytes_per_tuple);
    }
    stats.work.dram_bytes += static_cast<double>(rows) * bytes_per_tuple;
    ctx.charge_tier(table, *column);
  }
  return selection;
}

}  // namespace eidb::query::ops
