// Test helper: the reference the join primitives are checked against. A
// nested loop over the selected rows of both sides, with no kernel code:
// every pair of rows whose keys are equal, probe rows ascending and, per
// probe row, build rows ascending.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// One matched pair: row index on the build side, row index on the probe
/// side.
struct JoinPair {
  std::uint32_t build_row;
  std::uint32_t probe_row;
};

/// Every matching (build, probe) pair of the selected rows, O(n*m).
/// Precondition: each selection's size equals its key span's size.
inline std::vector<JoinPair> nested_loop_join(
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

/// `pairs` in the reference's order: probe rows ascending, then build rows.
inline std::vector<JoinPair> in_reference_order(std::vector<JoinPair> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const JoinPair& a, const JoinPair& b) {
              if (a.probe_row != b.probe_row) return a.probe_row < b.probe_row;
              return a.build_row < b.build_row;
            });
  return pairs;
}

}  // namespace eidb::exec
