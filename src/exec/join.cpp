#include "exec/join.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace eidb::exec {

namespace {

/// Inserts the selected rows into `table` in descending row order so the
/// LIFO chains replay ascending during probes: block output matches the
/// nested-loop oracle's (probe asc, build asc) order without a sort.
template <typename JoinTable>
void insert_descending(JoinTable& table, const JoinKeys& keys,
                       const BitVector& selection) {
  const std::uint64_t* words = selection.words();
  for (std::size_t w = selection.word_count(); w-- > 0;) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(63 - __builtin_clzll(bits));
      bits &= ~(std::uint64_t{1} << j);
      const std::size_t i = w * 64 + j;
      table.insert(keys.at(i), static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace

std::vector<JoinPair> hash_join(std::span<const std::int64_t> build_keys,
                                const BitVector& build_selection,
                                std::span<const std::int64_t> probe_keys,
                                const BitVector& probe_selection) {
  // Selections are per-row bitmaps over the key columns: a larger
  // selection would let for_each_set index past the key span.
  EIDB_EXPECTS(build_selection.size() == build_keys.size());
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());

  JoinHashTable table(build_selection.count());
  build_selection.for_each_set([&](std::size_t i) {
    table.insert(build_keys[i], static_cast<std::uint32_t>(i));
  });

  std::vector<JoinPair> out;
  probe_selection.for_each_set([&](std::size_t i) {
    table.probe(probe_keys[i], [&](std::uint32_t build_row) {
      out.push_back({build_row, static_cast<std::uint32_t>(i)});
    });
  });
  // Chain order is LIFO; normalize to ascending build row per probe row so
  // output order is deterministic and comparable with the oracle.
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.probe_row != b.probe_row) return a.probe_row < b.probe_row;
    return a.build_row < b.build_row;
  });
  return out;
}

std::vector<JoinPair> nested_loop_join(
    std::span<const std::int64_t> build_keys, const BitVector& build_selection,
    std::span<const std::int64_t> probe_keys,
    const BitVector& probe_selection) {
  EIDB_EXPECTS(build_selection.size() == build_keys.size());
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());
  std::vector<JoinPair> out;
  probe_selection.for_each_set([&](std::size_t p) {
    build_selection.for_each_set([&](std::size_t b) {
      if (build_keys[b] == probe_keys[p])
        out.push_back(
            {static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(p)});
    });
  });
  return out;
}

JoinHashTable build_join_table(const JoinKeys& keys,
                               const BitVector& selection) {
  EIDB_EXPECTS(selection.size() == keys.size());
  JoinHashTable table(selection.count());
  insert_descending(table, keys, selection);
  return table;
}

DenseJoinTable build_dense_join_table(const JoinKeys& keys,
                                      const BitVector& selection,
                                      std::int64_t min_key,
                                      std::int64_t domain) {
  EIDB_EXPECTS(selection.size() == keys.size());
  EIDB_EXPECTS(domain >= 1);
  DenseJoinTable table(min_key, domain);
  insert_descending(table, keys, selection);
  return table;
}

JoinFilter::JoinFilter(const JoinKeys& keys, const BitVector& selection,
                       std::int64_t min_key, std::int64_t domain)
    : min_(min_key),
      bits_(static_cast<std::size_t>(std::max<std::int64_t>(0, domain))) {
  EIDB_EXPECTS(selection.size() == keys.size());
  EIDB_EXPECTS(domain >= 1);
  selection.for_each_set([&](std::size_t i) {
    const std::uint64_t off = static_cast<std::uint64_t>(keys.at(i)) -
                              static_cast<std::uint64_t>(min_);
    EIDB_EXPECTS(off < bits_.size());
    bits_.set(static_cast<std::size_t>(off));
  });
}

std::uint64_t JoinFilter::apply(const JoinKeys& probe_keys,
                                BitVector& selection, std::size_t word_begin,
                                std::size_t word_end) const {
  EIDB_EXPECTS(selection.size() == probe_keys.size());
  std::uint64_t* words = selection.words();
  const std::size_t end = std::min(word_end, selection.word_count());
  const std::size_t rows = probe_keys.size();
  std::uint64_t kept = 0;
  alignas(64) std::int64_t keys[64];
  for (std::size_t w = word_begin; w < end; ++w) {
    const std::uint64_t live = words[w];
    if (live == 0) continue;
    const std::size_t base = w * 64;
    std::uint64_t keep = 0;
    if (base + 64 <= rows) {
      probe_keys.block64(base, keys);
      for (std::size_t j = 0; j < 64; ++j)
        keep |= static_cast<std::uint64_t>(contains(keys[j])) << j;
    } else {
      for (std::size_t j = 0; base + j < rows; ++j)
        keep |= static_cast<std::uint64_t>(contains(probe_keys.at(base + j)))
                << j;
    }
    words[w] = live & keep;
    kept += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
  }
  return kept;
}

}  // namespace eidb::exec
