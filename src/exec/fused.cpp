#include "exec/fused.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace eidb::exec {

AggResult fused_filter_aggregate(std::span<const std::int64_t> keys,
                                 std::int64_t lo, std::int64_t hi,
                                 std::span<const std::int64_t> values) {
  EIDB_EXPECTS(keys.size() == values.size());
  AggResult r;
  r.min = std::numeric_limits<std::int64_t>::max();
  r.max = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t shifted = static_cast<std::uint64_t>(keys[i]) -
                                  static_cast<std::uint64_t>(lo);
    if (shifted <= width) {
      const std::int64_t v = values[i];
      ++r.count;
      r.sum += v;
      r.min = std::min(r.min, v);
      r.max = std::max(r.max, v);
    }
  }
  if (r.count == 0) r.min = r.max = 0;
  return r;
}

AggResult fused_filter_aggregate_self(std::span<const std::int64_t> values,
                                      std::int64_t lo, std::int64_t hi) {
  return fused_filter_aggregate(values, lo, hi, values);
}

}  // namespace eidb::exec
