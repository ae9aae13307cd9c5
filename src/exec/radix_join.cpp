#include "exec/radix_join.hpp"

#include <algorithm>

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

std::vector<JoinPair> radix_hash_join(std::span<const std::int64_t> build_keys,
                                      const BitVector& build_selection,
                                      std::span<const std::int64_t> probe_keys,
                                      const BitVector& probe_selection,
                                      unsigned radix_bits) {
  const RadixPartitions build =
      radix_partition(JoinKeys::from(build_keys), build_selection, radix_bits);
  const RadixPartitions probe =
      radix_partition(JoinKeys::from(probe_keys), probe_selection, radix_bits);
  std::vector<JoinPair> out;
  for (std::size_t part = 0; part < build.parts.size(); ++part)
    (void)join_partition_blocks(
        build.parts[part], probe.parts[part],
        [&out](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) out.push_back({b[e], p[e]});
        });
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.probe_row != b.probe_row) return a.probe_row < b.probe_row;
    return a.build_row < b.build_row;
  });
  return out;
}

}  // namespace eidb::exec
