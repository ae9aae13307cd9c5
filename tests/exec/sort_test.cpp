#include "exec/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

BitVector all_set(std::size_t n) {
  BitVector b(n);
  b.set_all();
  return b;
}

TEST(Sort, AscendingAndDescending) {
  const std::vector<std::int64_t> keys = {30, 10, 20};
  const auto asc = sort_indices(keys, all_set(3), true);
  EXPECT_EQ(asc, (std::vector<std::uint32_t>{1, 2, 0}));
  const auto desc = sort_indices(keys, all_set(3), false);
  EXPECT_EQ(desc, (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(Sort, RespectsSelection) {
  const std::vector<std::int64_t> keys = {5, 1, 9, 3};
  BitVector sel(4);
  sel.set(0);
  sel.set(2);
  const auto idx = sort_indices(keys, sel, true);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 2}));
}

TEST(Sort, StableOnTies) {
  const std::vector<std::int64_t> keys = {7, 7, 7};
  const auto idx = sort_indices(keys, all_set(3), true);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1, 2}));
  const auto desc = sort_indices(keys, all_set(3), false);
  EXPECT_EQ(desc, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Sort, DoubleKeys) {
  const std::vector<double> keys = {1.5, -2.0, 0.0};
  const auto idx = sort_indices_double(keys, all_set(3), true);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(TopN, ReturnsSmallestN) {
  const std::vector<std::int64_t> keys = {50, 10, 40, 20, 30};
  const auto idx = top_n(keys, all_set(5), 3, true);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(TopN, DescendingReturnsLargest) {
  const std::vector<std::int64_t> keys = {50, 10, 40, 20, 30};
  const auto idx = top_n(keys, all_set(5), 2, false);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 2}));
}

TEST(TopN, NLargerThanSelectionSortsAll) {
  const std::vector<std::int64_t> keys = {3, 1, 2};
  const auto idx = top_n(keys, all_set(3), 10, true);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(TopN, AgreesWithFullSortPrefix) {
  Pcg32 rng(31);
  std::vector<std::int64_t> keys(5000);
  for (auto& k : keys) k = rng.next_bounded(1000);
  BitVector sel(keys.size());
  for (std::size_t i = 0; i < sel.size(); ++i)
    if (rng.next_double() < 0.6) sel.set(i);
  const auto full = sort_indices(keys, sel, true);
  const auto top = top_n(keys, sel, 100, true);
  ASSERT_EQ(top.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(keys[top[i]], keys[full[i]]) << i;
}

TEST(Sort, EmptySelection) {
  const std::vector<std::int64_t> keys = {1, 2};
  EXPECT_TRUE(sort_indices(keys, BitVector(2), true).empty());
  EXPECT_TRUE(top_n(keys, BitVector(2), 5, true).empty());
}

// ---------------------------------------------------------------------------
// Typed-view sorts: int32 / packed keys compared in place, no widened
// int64 copy.
// ---------------------------------------------------------------------------

TEST(Sort, JoinKeysViewInt32MatchesWidened) {
  Pcg32 rng(77);
  std::vector<std::int32_t> k32(2000);
  std::vector<std::int64_t> k64(2000);
  for (std::size_t i = 0; i < k32.size(); ++i) {
    k32[i] = static_cast<std::int32_t>(rng.next_in_range(-500, 500));
    k64[i] = k32[i];
  }
  BitVector sel(k32.size());
  for (std::size_t i = 0; i < sel.size(); ++i)
    if (rng.next_double() < 0.7) sel.set(i);
  const JoinKeys view = JoinKeys::from(std::span<const std::int32_t>(k32));
  for (const bool asc : {true, false}) {
    EXPECT_EQ(sort_indices(view, sel, asc), sort_indices(k64, sel, asc));
    EXPECT_EQ(top_n(view, sel, 50, asc), top_n(k64, sel, 50, asc));
  }
}

TEST(Sort, JoinKeysViewPackedMatchesPlain) {
  Pcg32 rng(88);
  std::vector<std::int32_t> plain(1500);
  for (auto& v : plain) v = static_cast<std::int32_t>(rng.next_bounded(300));
  storage::Column col = storage::Column::from_int32("k", plain);
  col.set_encoding(storage::Encoding::kBitPacked);
  ASSERT_NE(col.encoded(), nullptr);
  std::vector<std::int64_t> widened(plain.begin(), plain.end());
  const JoinKeys packed = JoinKeys::from(col.packed_view());
  const BitVector sel = all_set(plain.size());
  EXPECT_EQ(sort_indices(packed, sel, true), sort_indices(widened, sel, true));
  EXPECT_EQ(top_n(packed, sel, 40, false), top_n(widened, sel, 40, false));
}

TEST(TopN, DoubleAgreesWithFullSortPrefix) {
  Pcg32 rng(99);
  std::vector<double> keys(3000);
  for (auto& k : keys) k = rng.next_double() * 100.0 - 50.0;
  const BitVector sel = all_set(keys.size());
  const auto full = sort_indices_double(keys, sel, false);
  const auto top = top_n_double(keys, sel, 64, false);
  ASSERT_EQ(top.size(), 64u);
  for (std::size_t i = 0; i < top.size(); ++i)
    EXPECT_EQ(keys[top[i]], keys[full[i]]) << i;
}

// ---------------------------------------------------------------------------
// Permutation sorts over gathered key vectors (join ORDER BY output).
// ---------------------------------------------------------------------------

TEST(Permutation, SortAndTopNAgree) {
  Pcg32 rng(123);
  std::vector<std::int64_t> keys(4000);
  for (auto& k : keys) k = rng.next_in_range(-1000, 1000);
  const auto full = sort_permutation(keys, true);
  ASSERT_EQ(full.size(), keys.size());
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    ASSERT_LE(keys[full[i]], keys[full[i + 1]]);
    if (keys[full[i]] == keys[full[i + 1]]) {
      EXPECT_LT(full[i], full[i + 1]);  // deterministic tie-break
    }
  }
  const auto top = top_n_permutation(keys, 128, true);
  ASSERT_EQ(top.size(), 128u);
  for (std::size_t i = 0; i < top.size(); ++i)
    EXPECT_EQ(top[i], full[i]) << i;
}

TEST(Permutation, DoubleVariantAndBounds) {
  const std::vector<double> keys = {3.5, -1.0, 2.0};
  EXPECT_EQ(sort_permutation_double(keys, true),
            (std::vector<std::uint32_t>{1, 2, 0}));
  EXPECT_EQ(top_n_permutation_double(keys, 2, false),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(top_n_permutation(std::vector<std::int64_t>{}, 5, true).size(),
            0u);
}

// ---------------------------------------------------------------------------
// Pooled kernels: per-chunk sorts joined by a merge tree, or per-chunk heaps
// joined by one candidate sort, return exactly the pool-less order.
// ---------------------------------------------------------------------------

/// 5,000 rows, 60 % selected, int and double keys from 81 values each, so
/// most keys tie and only the row-id tie-break orders them.
struct TiedKeys {
  static constexpr std::size_t kRows = 5000;
  TiedKeys() : i64(kRows), f64(kRows), sel(kRows) {
    Pcg32 rng(2718);
    for (std::size_t i = 0; i < kRows; ++i) {
      i64[i] = rng.next_in_range(-40, 40);
      f64[i] = static_cast<double>(rng.next_in_range(-40, 40)) / 8;
      if (rng.next_double() < 0.6) sel.set(i);
    }
  }
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  BitVector sel;
};

TEST(PooledSort, EveryKernelMatchesThePoolLessOrder) {
  const TiedKeys c;
  const JoinKeys view = JoinKeys::from(std::span<const std::int64_t>(c.i64));
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    sched::ThreadPool pool(width);
    for (const bool asc : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "pool of " << width << (asc ? ", asc" : ", desc"));
      EXPECT_EQ(sort_indices(c.i64, c.sel, asc, &pool),
                sort_indices(c.i64, c.sel, asc));
      EXPECT_EQ(sort_indices(view, c.sel, asc, &pool),
                sort_indices(view, c.sel, asc));
      EXPECT_EQ(sort_indices_double(c.f64, c.sel, asc, &pool),
                sort_indices_double(c.f64, c.sel, asc));
      EXPECT_EQ(sort_permutation(c.i64, asc, &pool),
                sort_permutation(c.i64, asc));
      EXPECT_EQ(sort_permutation_double(c.f64, asc, &pool),
                sort_permutation_double(c.f64, asc));
      // Bounds inside one chunk, across chunks, and past the input.
      for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                  std::size_t{900}, std::size_t{10'000}}) {
        SCOPED_TRACE(::testing::Message() << "top " << n);
        EXPECT_EQ(top_n(c.i64, c.sel, n, asc, &pool),
                  top_n(c.i64, c.sel, n, asc));
        EXPECT_EQ(top_n(view, c.sel, n, asc, &pool),
                  top_n(view, c.sel, n, asc));
        EXPECT_EQ(top_n_double(c.f64, c.sel, n, asc, &pool),
                  top_n_double(c.f64, c.sel, n, asc));
        EXPECT_EQ(top_n_permutation(c.i64, n, asc, &pool),
                  top_n_permutation(c.i64, n, asc));
        EXPECT_EQ(top_n_permutation_double(c.f64, n, asc, &pool),
                  top_n_permutation_double(c.f64, n, asc));
      }
    }
  }
}

}  // namespace
}  // namespace eidb::exec
