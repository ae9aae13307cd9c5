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

}  // namespace
}  // namespace eidb::exec
