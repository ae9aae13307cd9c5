// Radix-partitioned hash join.
//
// For builds larger than the cache, a single hash table thrashes; the
// classic fix partitions both inputs by key radix so each partition's
// table fits in cache, then joins partition pairs independently (which is
// also the natural parallel decomposition — each pair is a morsel). This
// implements a single-pass radix partition + per-partition join.
//
// `radix_partition` + `join_partition_blocks` are the composable
// primitives the executor's vectorized join path drives: partitions are
// built once per side, then each partition pair streams its matches
// block-at-a-time into a sink (late materialization, no pair vector),
// serially or as independent worker-pool tasks.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/join.hpp"

namespace eidb::exec {

/// One side of a radix-partitioned join: per partition, the (key, row)
/// pairs of the selected rows, in ascending row order. Partition index is
/// `hash_key(key) & (2^bits - 1)` — hashing balances skewed domains.
struct RadixPartitions {
  std::vector<std::vector<std::pair<std::int64_t, std::uint32_t>>> parts;
};

/// Partitions the selected rows of `keys` into 2^radix_bits partitions.
/// Preconditions: selection.size() == keys.size(), radix_bits in [1, 16].
[[nodiscard]] RadixPartitions radix_partition(const JoinKeys& keys,
                                              const BitVector& selection,
                                              unsigned radix_bits);

/// Joins one build/probe partition pair (same partition index from
/// radix_partition of both sides), streaming matches block-at-a-time into
/// `sink`. Within the partition, probe order is preserved and build rows
/// ascend per probe row. Returns the number of pairs emitted.
std::uint64_t join_partition_blocks(
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& build,
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& probe,
    const JoinBlockSink& sink);

}  // namespace eidb::exec
