#include "query/ops/sort_op.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/sort.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;
using storage::Value;

namespace {

/// Comparison cycles of sorting n keys down to k survivors (full sort
/// when k == 0): n log n for the full sort, the heap bound n + k log k
/// for top-k — mirroring what the kernels actually execute.
double sort_cycles(std::size_t n, std::size_t k) {
  if (n < 2) return 0;
  const double dn = static_cast<double>(n);
  const double comparisons =
      (k == 0 || k >= n)
          ? dn * std::log2(dn)
          : dn + static_cast<double>(k) * std::log2(static_cast<double>(k) + 1);
  return kSortCyclesPerComparison * comparisons;
}

bool value_less(const Value& a, const Value& b) {
  if (a.is_string()) return a.as_string() < b.as_string();
  if (a.is_double() || b.is_double()) return a.as_double() < b.as_double();
  return a.as_int() < b.as_int();
}

}  // namespace

std::vector<std::uint32_t> order_row_ids(OpContext& ctx, const Table& table,
                                         const OrderBySpec& order,
                                         const BitVector& selection,
                                         std::size_t limit) {
  const Column& key = table_column(table, order.column);
  const std::uint64_t selected = selection.count();
  ctx.stats.work.cpu_cycles += sort_cycles(selected, limit);
  // The parallel kernels order by (key, row id) — a total order — so the
  // result is bit-identical to the serial sort at any thread count.
  sched::ThreadPool* pool =
      selected >= ctx.options.parallel_sort_min_rows ? ctx.options.pool
                                                     : nullptr;

  if (key.type() == TypeId::kDouble) {
    ctx.charge_column(table, key, false);
    return limit != 0
               ? exec::top_n_double(key.double_data(), selection, limit,
                                    order.ascending, pool)
               : exec::sort_indices_double(key.double_data(), selection,
                                           order.ascending, pool);
  }
  // Integer-family keys (int32 / int64 / dictionary codes / bit-packed):
  // compared through the typed view in place — the widened int64 copy of
  // the pre-physical-plan sort path is gone, and a packed key column's
  // DRAM charge is its packed image.
  const bool packed = use_packed(key, ctx.options);
  ctx.charge_column(table, key, packed);
  exec::JoinKeys view =
      packed ? exec::JoinKeys::from(key.packed_view())
             : (key.type() == TypeId::kInt64
                    ? exec::JoinKeys::from(key.int64_data())
                    : exec::JoinKeys::from(key.int32_data()));
  return limit != 0
             ? exec::top_n(view, selection, limit, order.ascending, pool)
             : exec::sort_indices(view, selection, order.ascending, pool);
}

void sort_result_rows(OpContext& ctx, QueryResult& result,
                      const OrderBySpec& order, std::size_t limit) {
  // column_index throws for a column outside the select list — ORDER BY
  // over aggregate output addresses result columns only.
  const std::size_t col = result.column_index(order.column);
  const std::size_t n = result.row_count();
  ctx.stats.work.cpu_cycles += sort_cycles(n, limit);

  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    const Value& va = result.at(a, col);
    const Value& vb = result.at(b, col);
    if (value_less(va, vb)) return order.ascending;
    if (value_less(vb, va)) return !order.ascending;
    return a < b;  // deterministic tie-break: original emit order
  };
  const std::size_t keep = limit == 0 ? n : std::min(limit, n);
  if (keep < n)
    std::partial_sort(perm.begin(),
                      perm.begin() + static_cast<std::ptrdiff_t>(keep),
                      perm.end(), cmp);
  else
    std::sort(perm.begin(), perm.end(), cmp);

  QueryResult sorted(result.column_names());
  for (std::size_t i = 0; i < keep; ++i)
    sorted.add_row(result.row(perm[i]));
  result = std::move(sorted);
}

}  // namespace eidb::query::ops
