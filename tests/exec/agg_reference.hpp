// Test helper: the scalar reference the aggregation kernels are checked
// against. One selected row at a time, in row order, with no kernel code:
// integer values fold into AggResult (sums widen to int64), doubles into
// AggResultD, and an empty selection reads all zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>

#include "exec/aggregate.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// Folds one value into a running aggregate; the first value sets min
/// and max.
template <typename R, typename V>
void fold_ref(R& r, V value) {
  const auto v = static_cast<decltype(r.sum)>(value);
  r.min = r.count == 0 ? v : std::min(r.min, v);
  r.max = r.count == 0 ? v : std::max(r.max, v);
  r.sum += v;
  ++r.count;
}

/// The aggregate type a value type folds into.
template <typename V>
using RefResult =
    std::conditional_t<std::is_floating_point_v<V>, AggResultD, AggResult>;

/// Element type of a span or vector of values.
template <typename Values>
using ValueOf = std::remove_cvref_t<decltype(std::declval<Values>()[0])>;

/// Aggregate of the selected rows of `values` (a span or a vector).
template <typename Values>
RefResult<ValueOf<Values>> reference_aggregate(const Values& values,
                                               const BitVector& selection) {
  RefResult<ValueOf<Values>> r;
  selection.for_each_set([&](std::size_t i) { fold_ref(r, values[i]); });
  return r;
}

/// Per-key aggregates of the selected rows, ordered by key.
template <typename Keys, typename Values>
std::map<std::int64_t, RefResult<ValueOf<Values>>> reference_group(
    const Keys& keys, const Values& values, const BitVector& selection) {
  std::map<std::int64_t, RefResult<ValueOf<Values>>> groups;
  selection.for_each_set([&](std::size_t i) {
    fold_ref(groups[static_cast<std::int64_t>(keys[i])], values[i]);
  });
  return groups;
}

}  // namespace eidb::exec
