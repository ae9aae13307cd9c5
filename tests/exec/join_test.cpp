#include "exec/join.hpp"

#include <gtest/gtest.h>

#include "join_reference.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace eidb::exec {
namespace {

BitVector all_set(std::size_t n) {
  BitVector b(n);
  b.set_all();
  return b;
}

/// Every pair probe_join_blocks streams from `table` over the whole probe,
/// in emission order.
std::vector<JoinPair> collect_blocks(const JoinHashTable& table,
                                     const JoinKeys& probe,
                                     const BitVector& psel,
                                     std::uint64_t limit = 0) {
  std::vector<JoinPair> out;
  (void)probe_join_blocks(
      table, probe, psel, 0, psel.word_count(),
      [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
        for (std::size_t e = 0; e < k; ++e) out.push_back({b[e], p[e]});
      },
      limit);
  return out;
}

/// The hash arm's primitives end to end: build_join_table over the
/// selected build rows, probe_join_blocks over every probe word.
std::vector<JoinPair> hash_arm(std::span<const std::int64_t> build,
                               const BitVector& bsel,
                               std::span<const std::int64_t> probe,
                               const BitVector& psel) {
  return collect_blocks(build_join_table(JoinKeys::from(build), bsel),
                        JoinKeys::from(probe), psel);
}

void expect_same(const std::vector<JoinPair>& got,
                 const std::vector<JoinPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].build_row, want[i].build_row) << i;
    EXPECT_EQ(got[i].probe_row, want[i].probe_row) << i;
  }
}

TEST(HashJoin, SimpleMatch) {
  const std::vector<std::int64_t> build = {1, 2, 3};
  const std::vector<std::int64_t> probe = {2, 4, 1};
  const auto pairs = hash_arm(build, all_set(3), probe, all_set(3));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].probe_row, 0u);  // probe[0]=2 matches build[1]
  EXPECT_EQ(pairs[0].build_row, 1u);
  EXPECT_EQ(pairs[1].probe_row, 2u);  // probe[2]=1 matches build[0]
  EXPECT_EQ(pairs[1].build_row, 0u);
  expect_same(pairs, nested_loop_join(build, all_set(3), probe, all_set(3)));
}

TEST(HashJoin, DuplicatesProduceCrossProduct) {
  const std::vector<std::int64_t> build = {5, 5};
  const std::vector<std::int64_t> probe = {5, 5, 5};
  const auto pairs = hash_arm(build, all_set(2), probe, all_set(3));
  EXPECT_EQ(pairs.size(), 6u);
  expect_same(pairs, nested_loop_join(build, all_set(2), probe, all_set(3)));
}

TEST(HashJoin, SelectionsRestrictBothSides) {
  const std::vector<std::int64_t> build = {1, 1, 2};
  const std::vector<std::int64_t> probe = {1, 2};
  BitVector bsel(3);
  bsel.set(0);  // only build row 0
  BitVector psel(2);
  psel.set(0);  // only probe row 0
  const auto pairs = hash_arm(build, bsel, probe, psel);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].build_row, 0u);
  EXPECT_EQ(pairs[0].probe_row, 0u);
}

TEST(HashJoin, NoMatches) {
  const std::vector<std::int64_t> build = {1, 2};
  const std::vector<std::int64_t> probe = {3, 4};
  EXPECT_TRUE(hash_arm(build, all_set(2), probe, all_set(2)).empty());
}

TEST(HashJoin, EmptySides) {
  const std::vector<std::int64_t> none;
  const std::vector<std::int64_t> some = {1};
  EXPECT_TRUE(hash_arm(none, BitVector(0), some, all_set(1)).empty());
  EXPECT_TRUE(hash_arm(some, all_set(1), none, BitVector(0)).empty());
}

TEST(HashJoin, MatchesNestedLoopOracleRandomized) {
  Pcg32 rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t nb = 50 + rng.next_bounded(200);
    const std::size_t np = 50 + rng.next_bounded(200);
    std::vector<std::int64_t> build(nb), probe(np);
    for (auto& k : build) k = rng.next_bounded(40);  // dense keys: many dups
    for (auto& k : probe) k = rng.next_bounded(40);
    BitVector bsel(nb), psel(np);
    for (std::size_t i = 0; i < nb; ++i)
      if (rng.next_double() < 0.7) bsel.set(i);
    for (std::size_t i = 0; i < np; ++i)
      if (rng.next_double() < 0.7) psel.set(i);

    SCOPED_TRACE(trial);
    expect_same(in_reference_order(hash_arm(build, bsel, probe, psel)),
                nested_loop_join(build, bsel, probe, psel));
  }
}

TEST(HashJoin, NegativeKeys) {
  const std::vector<std::int64_t> build = {-7, 0, 7};
  const std::vector<std::int64_t> probe = {-7, 7};
  const auto pairs = hash_arm(build, all_set(3), probe, all_set(2));
  EXPECT_EQ(pairs.size(), 2u);
  expect_same(pairs, nested_loop_join(build, all_set(3), probe, all_set(2)));
}

// Regression: the preconditions used to accept a selection *larger* than
// the key span (`selection.size() >= keys.size()`), which let the build
// and probe passes read keys out of bounds. They must demand equal sizes.
TEST(HashJoinDeathTest, OversizedSelectionViolatesPrecondition) {
  const std::vector<std::int64_t> keys = {1, 2, 3};
  const JoinKeys view = JoinKeys::from(std::span<const std::int64_t>(keys));
  BitVector oversized(8);
  oversized.set_all();  // bits 3..7 would index past keys
  EXPECT_DEATH((void)build_join_table(view, oversized), "precondition");
  const JoinHashTable table = build_join_table(view, all_set(3));
  EXPECT_DEATH((void)collect_blocks(table, view, oversized), "precondition");
}

// ---------------------------------------------------------------------------
// Block-at-a-time pipeline.
// ---------------------------------------------------------------------------

TEST(JoinBlocks, MatchesPairJoinInOracleOrder) {
  Pcg32 rng(33);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nb = 100 + rng.next_bounded(300);
    const std::size_t np = 100 + rng.next_bounded(500);
    std::vector<std::int64_t> build(nb), probe(np);
    for (auto& k : build) k = rng.next_bounded(60);
    for (auto& k : probe) k = rng.next_bounded(60);
    BitVector bsel(nb), psel(np);
    for (std::size_t i = 0; i < nb; ++i)
      if (rng.next_double() < 0.6) bsel.set(i);
    for (std::size_t i = 0; i < np; ++i)
      if (rng.next_double() < 0.6) psel.set(i);

    // The reference's order is (probe asc, build asc); the block
    // pipeline's reverse-insertion trick must produce the same order
    // WITHOUT a sort.
    SCOPED_TRACE(trial);
    expect_same(hash_arm(build, bsel, probe, psel),
                nested_loop_join(build, bsel, probe, psel));
  }
}

TEST(JoinBlocks, PackedKeysDecodeInPlace) {
  // Pack the probe keys at 6 bits (FOR reference -3) and check the packed
  // view joins identically to the plain spans.
  Pcg32 rng(44);
  std::vector<std::int64_t> build(200), probe(700);
  for (auto& k : build) k = static_cast<std::int64_t>(rng.next_bounded(50)) - 3;
  for (auto& k : probe) k = static_cast<std::int64_t>(rng.next_bounded(50)) - 3;
  std::vector<std::uint64_t> shifted;
  for (const std::int64_t k : probe)
    shifted.push_back(static_cast<std::uint64_t>(k + 3));
  const auto packed = storage::bitpack(shifted, 6);
  const storage::PackedView view{packed, 6, -3, probe.size()};

  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const auto plain = collect_blocks(
      table, JoinKeys::from(std::span<const std::int64_t>(probe)),
      all_set(probe.size()));
  const auto via_packed =
      collect_blocks(table, JoinKeys::from(view), all_set(probe.size()));
  ASSERT_EQ(plain.size(), via_packed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].build_row, via_packed[i].build_row) << i;
    EXPECT_EQ(plain[i].probe_row, via_packed[i].probe_row) << i;
  }
}

TEST(JoinBlocks, DenseTableMatchesHashTable) {
  Pcg32 rng(66);
  std::vector<std::int64_t> build(400), probe(2000);
  for (auto& k : build) k = static_cast<std::int64_t>(rng.next_bounded(90)) - 40;
  for (auto& k : probe)
    k = static_cast<std::int64_t>(rng.next_bounded(140)) - 60;  // some misses
  BitVector bsel(build.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.7) bsel.set(i);
  const BitVector psel = all_set(probe.size());
  const JoinKeys bk = JoinKeys::from(std::span<const std::int64_t>(build));
  const JoinKeys pk = JoinKeys::from(std::span<const std::int64_t>(probe));

  const auto hashed = build_join_table(bk, bsel);
  const DenseJoinTable dense =
      build_dense_join_table(bk, bsel, /*min_key=*/-40, /*domain=*/90);
  const auto collect_dense = [&] {
    std::vector<JoinPair> out;
    (void)probe_join_blocks(
        dense, pk, psel, 0, psel.word_count(),
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) out.push_back({b[e], p[e]});
        });
    return out;
  };
  const auto want = collect_blocks(hashed, pk, psel);
  const auto got = collect_dense();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].build_row, want[i].build_row) << i;
    EXPECT_EQ(got[i].probe_row, want[i].probe_row) << i;
  }
}

TEST(JoinBlocks, LimitStopsEarly) {
  const std::vector<std::int64_t> build = {5, 5, 5};
  const std::vector<std::int64_t> probe = {5, 5, 5, 5};
  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const auto limited = collect_blocks(
      table, JoinKeys::from(std::span<const std::int64_t>(probe)),
      all_set(probe.size()), 7);
  EXPECT_EQ(limited.size(), 7u);  // of 12 possible pairs
}

TEST(JoinBlocks, WordRangesPartitionTheProbe) {
  // Driving disjoint word ranges (the morsel-parallel decomposition) must
  // cover exactly the full probe once.
  Pcg32 rng(55);
  std::vector<std::int64_t> build(64), probe(1000);
  for (auto& k : build) k = rng.next_bounded(30);
  for (auto& k : probe) k = rng.next_bounded(30);
  const BitVector psel = all_set(probe.size());
  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const JoinKeys pk = JoinKeys::from(std::span<const std::int64_t>(probe));

  std::vector<JoinPair> whole = collect_blocks(table, pk, psel);
  std::vector<JoinPair> split;
  for (const auto& [wb, we] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 4}, {4, 9},
                                                        {9, 16}}) {
    (void)probe_join_blocks(
        table, pk, psel, wb, we,
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) split.push_back({b[e], p[e]});
        });
  }
  ASSERT_EQ(split.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i].build_row, whole[i].build_row) << i;
    EXPECT_EQ(split[i].probe_row, whole[i].probe_row) << i;
  }
}

TEST(JoinFilter, KeepsExactlyTheRowsWithASelectedBuildMatch) {
  // Every key view kind over a probe side that is not a multiple of 64
  // rows long, with dead, partial and full selection words: apply() must
  // clear exactly the rows whose key no selected build row carries
  // (out-of-domain keys included) and leave every other bit alone.
  Pcg32 rng(77);
  constexpr std::size_t kProbe = 64 * 9 + 23;
  std::vector<std::int64_t> build(120);
  for (auto& k : build)
    k = static_cast<std::int64_t>(rng.next_bounded(80)) - 20;  // [-20, 60)
  BitVector bsel(build.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.5) bsel.set(i);
  std::vector<std::int64_t> probe64(kProbe);
  for (auto& k : probe64)
    k = static_cast<std::int64_t>(rng.next_bounded(120)) - 40;  // [-40, 80)
  const std::vector<std::int32_t> probe32(probe64.begin(), probe64.end());
  std::vector<std::uint64_t> shifted;
  std::vector<std::int32_t> codes, remap(120);
  for (const std::int64_t k : probe64) {
    shifted.push_back(static_cast<std::uint64_t>(k + 40));
    codes.push_back(static_cast<std::int32_t>(k + 40));
  }
  for (std::int32_t c = 0; c < 120; ++c)
    remap[static_cast<std::size_t>(c)] = c - 40;
  const auto packed = storage::bitpack(shifted, 7);

  BitVector psel(kProbe);
  for (std::size_t i = 0; i < kProbe; ++i)
    if (i / 64 != 2 && rng.next_double() < 0.7) psel.set(i);  // word 2 dead
  BitVector want = psel;
  psel.for_each_set([&](std::size_t i) {
    bool hit = false;
    bsel.for_each_set([&](std::size_t b) { hit |= build[b] == probe64[i]; });
    if (!hit) want.reset(i);
  });

  const JoinFilter filter(JoinKeys::from(std::span<const std::int64_t>(build)),
                          bsel, /*min_key=*/-20, /*domain=*/80);
  const JoinKeys views[] = {
      JoinKeys::from(std::span<const std::int32_t>(probe32)),
      JoinKeys::from(std::span<const std::int64_t>(probe64)),
      JoinKeys::from(storage::PackedView{packed, 7, -40, kProbe}),
      JoinKeys::remapped(codes, remap)};
  for (std::size_t v = 0; v < std::size(views); ++v) {
    BitVector got = psel;
    EXPECT_EQ(filter.apply(views[v], got, 0, got.word_count()), want.count())
        << "view " << v;
    for (std::size_t w = 0; w < got.word_count(); ++w)
      EXPECT_EQ(got.words()[w], want.words()[w]) << "view " << v << " w" << w;
    // Disjoint word ranges (the morsel-parallel split) compose to one pass.
    BitVector split = psel;
    const std::uint64_t kept =
        filter.apply(views[v], split, 0, 4) +
        filter.apply(views[v], split, 4, split.word_count());
    EXPECT_EQ(kept, want.count()) << "view " << v;
    for (std::size_t w = 0; w < split.word_count(); ++w)
      EXPECT_EQ(split.words()[w], want.words()[w]) << "view " << v;
  }
  EXPECT_FALSE(filter.contains(-21));
  EXPECT_FALSE(filter.contains(60));
}

TEST(JoinFilter, ReportsWhetherTheSelectedBuildKeysAreUnique) {
  // Keys 3 and 7 repeat; a selection without the second 3 and the second
  // 7 is unique. Keys below `live_min` (the -1 of remapped codes) neither
  // set a bit nor count as repeats.
  const std::vector<std::int64_t> build = {-1, 3, 5, 7, -1, 3, 9, 7};
  const JoinKeys keys = JoinKeys::from(std::span<const std::int64_t>(build));
  BitVector all(build.size());
  for (std::size_t i = 0; i < build.size(); ++i) all.set(i);
  EXPECT_FALSE(JoinFilter(keys, all, -1, 11).keys_unique());
  EXPECT_FALSE(JoinFilter(keys, all, -1, 11, 0).keys_unique());
  BitVector firsts = all;
  firsts.reset(5);
  firsts.reset(7);
  EXPECT_FALSE(JoinFilter(keys, firsts, -1, 11).keys_unique());  // -1 twice
  const JoinFilter live(keys, firsts, -1, 11, 0);
  EXPECT_TRUE(live.keys_unique());
  EXPECT_FALSE(live.contains(-1));
  EXPECT_TRUE(live.contains(3));
  EXPECT_TRUE(live.contains(9));
  EXPECT_TRUE(JoinFilter(keys, BitVector(build.size()), -1, 11).keys_unique());
}

/// Holds `filter` (built from `build_keys` over [min_key, min_key +
/// domain), whose values are `build`) to the nested-loop join: contains()
/// for every key in and around the domain, and apply() / apply_scalar()
/// over plain and packed probe keys, full and partial words.
void expect_filter_matches_nested_loop(const JoinFilter& filter,
                                       const std::vector<std::int64_t>& build,
                                       const BitVector& bsel,
                                       std::int64_t min_key,
                                       std::int64_t domain,
                                       std::int64_t live_min) {
  const auto kept = [&](std::int64_t key) {
    bool hit = false;
    bsel.for_each_set([&](std::size_t b) { hit |= build[b] == key; });
    return hit && key >= live_min;
  };
  const std::int64_t lo = min_key - 5;
  const std::int64_t hi = min_key + domain + 5;
  for (std::int64_t key = lo; key < hi; ++key)
    EXPECT_EQ(filter.contains(key), kept(key)) << "key " << key;

  // Probe keys over [lo, hi), the last word partial, one word dead.
  constexpr std::size_t kProbe = 64 * 6 + 29;
  Pcg32 rng(static_cast<std::uint64_t>(domain * 131 + min_key + 7));
  std::vector<std::int64_t> probe(kProbe);
  std::vector<std::uint64_t> shifted(kProbe);
  for (std::size_t i = 0; i < kProbe; ++i) {
    shifted[i] = rng.next_bounded(static_cast<std::uint32_t>(hi - lo));
    probe[i] = lo + static_cast<std::int64_t>(shifted[i]);
  }
  const unsigned bits = static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(hi - lo - 1)));
  const auto packed = storage::bitpack(shifted, bits);
  BitVector psel(kProbe);
  for (std::size_t i = 0; i < kProbe; ++i)
    if (i / 64 != 3 && rng.next_double() < 0.8) psel.set(i);
  // Remapped codes never carry a key below live_min (-1) on the probe
  // side, so the oracle joins the live build keys only.
  std::vector<std::int64_t> live_build = build;
  for (std::int64_t& k : live_build)
    if (k < live_min) k = hi;  // matches no probe key
  BitVector want(kProbe);
  for (const JoinPair& p :
       nested_loop_join(live_build, bsel, probe, psel))
    want.set(p.probe_row);

  const JoinKeys views[] = {
      JoinKeys::from(std::span<const std::int64_t>(probe)),
      JoinKeys::from(storage::PackedView{packed, bits, lo, kProbe})};
  for (std::size_t v = 0; v < std::size(views); ++v) {
    BitVector got = psel;
    EXPECT_EQ(filter.apply(views[v], got, 0, got.word_count()), want.count())
        << "view " << v;
    EXPECT_EQ(got, want) << "view " << v;
    BitVector scalar = psel;
    EXPECT_EQ(filter.apply_scalar(views[v], scalar, 0, scalar.word_count()),
              want.count())
        << "view " << v;
    EXPECT_EQ(scalar, want) << "view " << v;
  }
}

TEST(JoinFilter, OneRunAndHolesBothMatchTheNestedLoopJoin) {
  // Integer keys over [-20, 60): runs at the domain's start, middle and
  // end, a single key, every key, and a run broken by one hole. Some
  // keys repeat, and some rows are not selected.
  struct Case {
    const char* name;
    std::vector<std::int64_t> keys;
    bool one_run;
    bool unique;
  };
  const auto range = [](std::int64_t from, std::int64_t to) {
    std::vector<std::int64_t> v;
    for (std::int64_t k = from; k < to; ++k) v.push_back(k);
    return v;
  };
  std::vector<Case> cases = {
      {"start", range(-20, -4), true, true},
      {"middle", range(10, 31), true, true},
      {"end", range(47, 60), true, true},
      {"single", {7}, true, true},
      {"every", range(-20, 60), true, true},
      {"hole", range(10, 31), false, true},
  };
  std::erase(cases[5].keys, 17);
  cases[1].keys.push_back(12);  // a repeat inside the run
  cases[1].unique = false;
  cases[4].keys.push_back(-20);  // and one at the domain's start
  cases[4].unique = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Rows 0..2 are not selected: counted, their keys would widen or break
    // most runs.
    std::vector<std::int64_t> build = {-20, 0, 59};
    build.insert(build.end(), c.keys.begin(), c.keys.end());
    BitVector bsel(build.size());
    for (std::size_t i = 3; i < build.size(); ++i) bsel.set(i);
    const JoinFilter filter(
        JoinKeys::from(std::span<const std::int64_t>(build)), bsel, -20, 80);
    EXPECT_EQ(filter.one_run(), c.one_run);
    EXPECT_EQ(filter.keys_unique(), c.unique);
    expect_filter_matches_nested_loop(filter, build, bsel, -20, 80,
                                      std::numeric_limits<std::int64_t>::min());
  }

  // Remapped codes over the probe's code domain [-1, 8): build codes 0 and
  // 4 remap to -1, which is left out (with it the set bits would have a
  // hole at code 0), so codes 1..5 form one run and their keys are unique.
  const std::vector<std::int32_t> codes = {0, 1, 2, 3, 4, 5, 6, 0, 4};
  const std::vector<std::int32_t> remap = {-1, 1, 2, 3, -1, 4, 5};
  std::vector<std::int64_t> build;
  for (const std::int32_t c : codes) build.push_back(remap[c]);
  const BitVector bsel = all_set(codes.size());
  const JoinFilter live(JoinKeys::remapped(codes, remap), bsel, -1, 9, 0);
  EXPECT_TRUE(live.one_run());
  EXPECT_TRUE(live.keys_unique());
  EXPECT_FALSE(live.contains(-1));
  expect_filter_matches_nested_loop(live, build, bsel, -1, 9, 0);
  // Without live_min the -1 is set and repeats, and code 0 is a hole.
  const JoinFilter all(JoinKeys::remapped(codes, remap), bsel, -1, 9);
  EXPECT_FALSE(all.one_run());
  EXPECT_FALSE(all.keys_unique());
  expect_filter_matches_nested_loop(all, build, bsel, -1, 9,
                                    std::numeric_limits<std::int64_t>::min());
  // No selected build row: nothing is contained, every row is cleared.
  const JoinFilter none(JoinKeys::remapped(codes, remap),
                        BitVector(codes.size()), -1, 9, 0);
  EXPECT_FALSE(none.one_run());
  EXPECT_TRUE(none.keys_unique());
  expect_filter_matches_nested_loop(none, build, BitVector(codes.size()), -1,
                                    9, 0);
}

}  // namespace
}  // namespace eidb::exec
