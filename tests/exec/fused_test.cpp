#include "exec/fused.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "agg_reference.hpp"
#include "exec/scan_kernels.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

TEST(Fused, FilterAggregateMatchesPipeline) {
  Pcg32 rng(3);
  std::vector<std::int64_t> keys(50000), values(50000);
  for (auto& k : keys) k = rng.next_bounded(1000);
  for (auto& v : values) v = rng.next_in_range(-500, 500);

  const AggResult fused = fused_filter_aggregate(keys, 100, 399, values);

  BitVector sel(keys.size());
  scan_bitmap_best64(keys, 100, 399, sel);
  const AggResult pipeline = reference_aggregate(values, sel);

  EXPECT_EQ(fused.count, pipeline.count);
  EXPECT_EQ(fused.sum, pipeline.sum);
  EXPECT_EQ(fused.min, pipeline.min);
  EXPECT_EQ(fused.max, pipeline.max);
}

TEST(Fused, SelfAggregate) {
  const std::vector<std::int64_t> v = {1, 5, 10, 15, 20};
  const AggResult r = fused_filter_aggregate_self(v, 5, 15);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.sum, 30);
  EXPECT_EQ(r.min, 5);
  EXPECT_EQ(r.max, 15);
}

TEST(Fused, EmptyMatchSet) {
  const std::vector<std::int64_t> v = {1, 2, 3};
  const AggResult r = fused_filter_aggregate_self(v, 100, 200);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.min, 0);
  EXPECT_EQ(r.max, 0);
}

TEST(Fused, NegativeBounds) {
  const std::vector<std::int64_t> v = {-10, -5, 0, 5};
  const AggResult r = fused_filter_aggregate_self(v, -7, 1);
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.sum, -5);
}

TEST(MaskedScan, EquivalentToUnmaskedConjunction) {
  Pcg32 rng(4);
  std::vector<std::int64_t> a(30000), b(30000);
  for (auto& x : a) x = rng.next_bounded(1000);
  for (auto& x : b) x = rng.next_bounded(1000);

  // Reference: two full bitmaps ANDed.
  BitVector ref(a.size());
  scan_bitmap_best64(a, 0, 99, ref);
  BitVector rb(b.size());
  scan_bitmap_best64(b, 500, 599, rb);
  ref &= rb;

  // Masked: first predicate full, second short-circuit.
  BitVector sel(a.size());
  scan_bitmap_best64(a, 0, 99, sel);
  scan_bitmap_masked64(b, 500, 599, sel);

  EXPECT_EQ(sel, ref);
}

TEST(MaskedScan, SkipsDeadWords) {
  // First predicate kills everything except one narrow region.
  std::vector<std::int64_t> a(64 * 100, 0);
  for (std::size_t i = 64 * 50; i < 64 * 51; ++i) a[i] = 7;
  std::vector<std::int64_t> b(a.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int64_t>(i % 3);

  BitVector sel(a.size());
  scan_bitmap_best64(a, 7, 7, sel);  // only word 50 live
  MaskedScanStats stats;
  scan_bitmap_masked64_counted(b, 0, 1, sel, stats);
  EXPECT_EQ(stats.words_total, 100u);
  EXPECT_EQ(stats.words_skipped, 99u);
  // Correctness in the surviving word.
  for (std::size_t i = 64 * 50; i < 64 * 51; ++i)
    EXPECT_EQ(sel.test(i), b[i] <= 1);
}

TEST(MaskedScan, AllLiveSkipsNothing) {
  Pcg32 rng(5);
  std::vector<std::int64_t> v(6400);
  for (auto& x : v) x = rng.next_bounded(10);
  BitVector sel(v.size());
  sel.set_all();
  MaskedScanStats stats;
  scan_bitmap_masked64_counted(v, 0, 9, sel, stats);
  EXPECT_EQ(stats.words_skipped, 0u);
  EXPECT_EQ(sel.count(), v.size());
}

}  // namespace
}  // namespace eidb::exec
