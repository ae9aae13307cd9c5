#include "exec/radix_join.hpp"

#include "exec/hash_table.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

RadixPartitions radix_partition(const JoinKeys& keys,
                                const BitVector& selection,
                                unsigned radix_bits) {
  EIDB_EXPECTS(radix_bits >= 1 && radix_bits <= 16);
  EIDB_EXPECTS(selection.size() == keys.size());
  RadixPartitions p;
  p.parts.resize(std::size_t{1} << radix_bits);
  const std::uint64_t mask = (std::uint64_t{1} << radix_bits) - 1;
  selection.for_each_set([&](std::size_t i) {
    const std::int64_t key = keys.at(i);
    const std::size_t part = hash_key(key) & mask;
    p.parts[part].push_back({key, static_cast<std::uint32_t>(i)});
  });
  return p;
}

std::uint64_t join_partition_blocks(
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& build,
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& probe,
    const JoinBlockSink& sink) {
  if (build.empty() || probe.empty()) return 0;
  JoinHashTable table(build.size());
  // Reverse insertion order: LIFO chains then probe ascending build rows.
  for (auto it = build.rbegin(); it != build.rend(); ++it)
    table.insert(it->first, it->second);

  std::uint32_t bld[kJoinBlockRows];
  std::uint32_t prb[kJoinBlockRows];
  std::size_t k = 0;
  std::uint64_t pairs = 0;
  const auto flush = [&] {
    if (k != 0) {
      sink(bld, prb, k);
      k = 0;
    }
  };
  for (const auto& [key, row] : probe) {
    table.probe(key, [&](std::uint32_t build_row) {
      bld[k] = build_row;
      prb[k] = row;
      ++pairs;
      if (++k == kJoinBlockRows) flush();
    });
  }
  flush();
  return pairs;
}

}  // namespace eidb::exec
