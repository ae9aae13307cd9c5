// Aggregate result shapes and the group-by strategy shared by the
// aggregation kernels (exec/vector_agg), the fused filter+aggregate
// kernels and the cost model.
//
// The strategy split mirrors production column stores: when the group-key
// domain is small (dictionary codes, small int ranges) a dense accumulator
// array beats hashing by a wide margin; otherwise a linear-probe hash table
// is used. The adaptive choice is another instance of §IV.B's
// "reconfigurable operator".
#pragma once

#include <cstdint>

namespace eidb::exec {

/// Aggregate results for one group (or the whole selection).
struct AggResult {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  [[nodiscard]] double avg() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

struct AggResultD {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  [[nodiscard]] double avg() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Grouped-aggregation strategy: kAuto picks the dense accumulator array
/// when the key domain fits kDenseDomainLimit and hashes otherwise;
/// kDenseArray throws on a larger domain; kHash always hashes.
enum class GroupStrategy : std::uint8_t { kAuto, kDenseArray, kHash };

/// Largest key domain the kAuto strategy resolves to a dense accumulator
/// array (1M slots); shared by every grouping kernel and mirrored by the
/// cost model's strategy prediction.
inline constexpr std::int64_t kDenseDomainLimit = 1 << 20;

}  // namespace eidb::exec
