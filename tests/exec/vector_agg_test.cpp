// Scalar-reference parity for the single-pass vectorized aggregation
// kernels: every multi_aggregate / grouped_multi_aggregate result must
// match the row-at-a-time reference (agg_reference.hpp) bit-for-bit on
// integer data and within FP tolerance on doubles (block summation
// re-associates).
#include "exec/vector_agg.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "agg_reference.hpp"
#include "exec/scan_kernels.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

struct TestColumns {
  std::vector<std::int32_t> i32;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::int32_t> keys32;
  std::vector<std::int64_t> keys64;
  BitVector selection;
};

TestColumns make_columns(std::size_t n, double keep, std::uint64_t seed,
                         std::int64_t key_domain = 50) {
  TestColumns t;
  Pcg32 rng(seed);
  t.selection = BitVector(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.i32.push_back(static_cast<std::int32_t>(rng.next_in_range(-500, 500)));
    t.i64.push_back(rng.next_in_range(-100000, 100000));
    t.f64.push_back(rng.next_double() * 20 - 10);
    const auto key = rng.next_in_range(0, key_domain - 1);
    t.keys32.push_back(static_cast<std::int32_t>(key));
    t.keys64.push_back(key);
    if (rng.next_double() < keep) t.selection.set(i);
  }
  return t;
}

void expect_agg_eq(const AggResult& want, const AggResult& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.sum, got.sum);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
}

void expect_agg_near(const AggResultD& want, const AggResultD& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_NEAR(want.sum, got.sum, 1e-6 * (1.0 + std::abs(want.sum)));
  EXPECT_DOUBLE_EQ(want.min, got.min);
  EXPECT_DOUBLE_EQ(want.max, got.max);
}

TEST(MultiAggregate, MatchesSingleColumnReference) {
  const TestColumns t = make_columns(10'000, 0.4, 42);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i32)),
                                        AggInput::from(std::span(t.i64)),
                                        AggInput::from(std::span(t.f64))};
  const auto outs = multi_aggregate(inputs, t.selection);
  ASSERT_EQ(outs.size(), 3u);
  expect_agg_eq(reference_aggregate(t.i32, t.selection), outs[0].i);
  expect_agg_eq(reference_aggregate(t.i64, t.selection), outs[1].i);
  expect_agg_near(reference_aggregate(t.f64, t.selection), outs[2].d);
}

TEST(MultiAggregate, FullAndEmptySelections) {
  TestColumns t = make_columns(4'096, 1.0, 7);
  t.selection.set_all();  // exercises the branch-free full-word path only
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i64))};
  auto outs = multi_aggregate(inputs, t.selection);
  expect_agg_eq(reference_aggregate(t.i64, t.selection), outs[0].i);

  t.selection.clear_all();
  outs = multi_aggregate(inputs, t.selection);
  EXPECT_EQ(outs[0].i.count, 0u);
  EXPECT_EQ(outs[0].i.sum, 0);
  EXPECT_EQ(outs[0].i.min, 0);  // an empty selection reads all zero
  EXPECT_EQ(outs[0].i.max, 0);
  sched::ThreadPool pool(2);
  expect_agg_eq(outs[0].i,
                multi_aggregate(inputs, t.selection, packed_tier(), &pool,
                                /*morsel_rows=*/1024)[0].i);
}

TEST(MultiAggregate, UnalignedTail) {
  // Size deliberately not a multiple of 64.
  const TestColumns t = make_columns(1'000 + 17, 0.7, 9);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i32))};
  const auto outs = multi_aggregate(inputs, t.selection);
  expect_agg_eq(reference_aggregate(t.i32, t.selection), outs[0].i);
}

TEST(MultiAggregate, ParallelMatchesSerial) {
  // 50k live rows at 4096-row morsels: the pooled call cuts 16 chunks,
  // the pool-less call of the same kernel runs one.
  const TestColumns t = make_columns(100'000, 0.5, 11);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i64)),
                                        AggInput::from(std::span(t.f64))};
  const auto serial = multi_aggregate(inputs, t.selection);
  sched::ThreadPool pool(4);
  const auto par = multi_aggregate(inputs, t.selection, packed_tier(), &pool,
                                   /*morsel_rows=*/4096);
  expect_agg_eq(serial[0].i, par[0].i);
  expect_agg_near(serial[1].d, par[1].d);
}

TEST(MultiAggregate, SmallExamples) {
  const std::vector<std::int64_t> ints = {3, -1, 7, 7, 0};
  const std::vector<double> doubles = {1.5, -0.5, 4.0, 2.0, -3.0};
  const std::vector<AggInput> inputs = {AggInput::from(std::span(ints)),
                                        AggInput::from(std::span(doubles))};
  BitVector sel(ints.size());
  sel.set_all();
  auto outs = multi_aggregate(inputs, sel);
  EXPECT_EQ(outs[0].i.count, 5u);
  EXPECT_EQ(outs[0].i.sum, 16);
  EXPECT_EQ(outs[0].i.min, -1);
  EXPECT_EQ(outs[0].i.max, 7);
  EXPECT_DOUBLE_EQ(outs[0].i.avg(), 3.2);
  EXPECT_DOUBLE_EQ(outs[1].d.sum, 4.0);
  EXPECT_DOUBLE_EQ(outs[1].d.min, -3.0);
  EXPECT_DOUBLE_EQ(outs[1].d.max, 4.0);

  sel.clear_all();  // rows 1 and 3
  sel.set(1);
  sel.set(3);
  outs = multi_aggregate(inputs, sel);
  EXPECT_EQ(outs[0].i.count, 2u);
  EXPECT_EQ(outs[0].i.sum, 6);
  EXPECT_EQ(outs[0].i.min, -1);
  EXPECT_EQ(outs[0].i.max, 7);
  EXPECT_DOUBLE_EQ(outs[1].d.sum, 1.5);
  EXPECT_DOUBLE_EQ(outs[1].d.avg(), 0.75);
}

void expect_grouped_matches_reference(const TestColumns& t,
                                      const GroupedAggs& g) {
  const auto ref_i64 = reference_group(t.keys64, t.i64, t.selection);
  const auto ref_i32 = reference_group(t.keys64, t.i32, t.selection);
  const auto ref_d = reference_group(t.keys64, t.f64, t.selection);
  ASSERT_EQ(g.group_count(), ref_i64.size());
  std::size_t i = 0;
  for (const auto& [key, want] : ref_i64) {
    EXPECT_EQ(g.keys[i], key);
    EXPECT_EQ(g.counts[i], want.count);
    expect_agg_eq(want, g.iout[0][i]);
    expect_agg_eq(ref_i32.at(key), g.iout[1][i]);
    expect_agg_near(ref_d.at(key), g.dout[2][i]);
    ++i;
  }
}

std::vector<AggInput> three_inputs(const TestColumns& t) {
  return {AggInput::from(std::span(t.i64)), AggInput::from(std::span(t.i32)),
          AggInput::from(std::span(t.f64))};
}

TEST(GroupedMultiAggregate, DenseMatchesReference) {
  const TestColumns t = make_columns(20'000, 0.6, 21, /*key_domain=*/40);
  const auto g = grouped_multi_aggregate(std::span(t.keys64),
                                         three_inputs(t), t.selection);
  expect_grouped_matches_reference(t, g);
}

TEST(GroupedMultiAggregate, HashStrategyMatchesDense) {
  const TestColumns t = make_columns(20'000, 0.6, 22, /*key_domain=*/40);
  const auto dense =
      grouped_multi_aggregate(std::span(t.keys64), three_inputs(t),
                              t.selection, {}, GroupStrategy::kDenseArray);
  const auto hash =
      grouped_multi_aggregate(std::span(t.keys64), three_inputs(t),
                              t.selection, {}, GroupStrategy::kHash);
  ASSERT_EQ(dense.group_count(), hash.group_count());
  for (std::size_t i = 0; i < dense.group_count(); ++i) {
    EXPECT_EQ(dense.keys[i], hash.keys[i]);
    EXPECT_EQ(dense.counts[i], hash.counts[i]);
    expect_agg_eq(dense.iout[0][i], hash.iout[0][i]);
  }
}

TEST(GroupedMultiAggregate, Int32KeysMatchInt64Keys) {
  const TestColumns t = make_columns(20'000, 0.5, 23, /*key_domain=*/64);
  const auto g64 = grouped_multi_aggregate(std::span(t.keys64),
                                           three_inputs(t), t.selection);
  const auto g32 = grouped_multi_aggregate32(std::span(t.keys32),
                                             three_inputs(t), t.selection);
  ASSERT_EQ(g64.group_count(), g32.group_count());
  for (std::size_t i = 0; i < g64.group_count(); ++i) {
    EXPECT_EQ(g64.keys[i], g32.keys[i]);
    EXPECT_EQ(g64.counts[i], g32.counts[i]);
    expect_agg_eq(g64.iout[0][i], g32.iout[0][i]);
    expect_agg_eq(g64.iout[1][i], g32.iout[1][i]);
  }
}

TEST(GroupedMultiAggregate, KnownKeyRangeHintMatchesDerived) {
  const TestColumns t = make_columns(10'000, 0.3, 24, /*key_domain=*/30);
  const KeyRange hint{true, 0, 29};  // from cached stats in the executor
  const auto with_hint = grouped_multi_aggregate(
      std::span(t.keys64), three_inputs(t), t.selection, hint);
  const auto derived = grouped_multi_aggregate(std::span(t.keys64),
                                               three_inputs(t), t.selection);
  ASSERT_EQ(with_hint.group_count(), derived.group_count());
  for (std::size_t i = 0; i < derived.group_count(); ++i) {
    EXPECT_EQ(with_hint.keys[i], derived.keys[i]);
    expect_agg_eq(with_hint.iout[0][i], derived.iout[0][i]);
  }
}

TEST(GroupedMultiAggregate, HashFallbackForOverflowingKeySpread) {
  // Hash-like int64 keys whose spread overflows max - min + 1: the dense
  // test must fail safely (unsigned width) and the hash path must group
  // correctly, including with an explicit stats-derived range.
  constexpr std::int64_t kLo = -5'000'000'000'000'000'000LL;
  constexpr std::int64_t kHi = 5'000'000'000'000'000'000LL;
  std::vector<std::int64_t> keys, values;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(i % 2 == 0 ? kLo : kHi);
    values.push_back(i);
  }
  BitVector sel(keys.size());
  sel.set_all();
  const std::vector<AggInput> inputs = {AggInput::from(std::span(values))};
  for (const KeyRange range : {KeyRange{}, KeyRange{true, kLo, kHi, 2}}) {
    const auto g =
        grouped_multi_aggregate(std::span(keys), inputs, sel, range);
    ASSERT_EQ(g.group_count(), 2u);
    EXPECT_EQ(g.keys[0], kLo);
    EXPECT_EQ(g.keys[1], kHi);
    EXPECT_EQ(g.counts[0], 50u);
    EXPECT_EQ(g.counts[1], 50u);
    EXPECT_EQ(g.iout[0][0].sum, 50 * 49);  // 0+2+...+98
    EXPECT_EQ(g.iout[0][1].sum, 50 * 50);  // 1+3+...+99
  }
  // Two chunks take the same unsigned-width decision.
  sched::ThreadPool pool(2);
  const auto par = grouped_multi_aggregate(
      std::span(keys), inputs, sel, KeyRange{true, kLo, kHi, 2},
      GroupStrategy::kAuto, packed_tier(), &pool, /*morsel_rows=*/64);
  ASSERT_EQ(par.group_count(), 2u);
  EXPECT_EQ(par.counts[0], 50u);
  EXPECT_EQ(par.iout[0][1].sum, 50 * 50);
}

TEST(GroupedMultiAggregate, EmptySelectionYieldsNoGroups) {
  TestColumns t = make_columns(1'000, 0.0, 25);
  t.selection.clear_all();
  const auto g = grouped_multi_aggregate(std::span(t.keys64),
                                         three_inputs(t), t.selection);
  EXPECT_EQ(g.group_count(), 0u);
}

TEST(GroupedMultiAggregate, SmallExampleWithInt32Keys) {
  const std::vector<std::int32_t> keys = {1, 2, 1, 3, 2, 1};
  const std::vector<std::int64_t> vals = {10, 20, 30, 40, 50, 60};
  const std::vector<AggInput> inputs = {AggInput::from(std::span(vals))};
  BitVector sel(keys.size());
  sel.set_all();
  const auto g = grouped_multi_aggregate32(std::span(keys), inputs, sel);
  ASSERT_EQ(g.group_count(), 3u);
  EXPECT_EQ(g.keys, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(g.counts, (std::vector<std::uint64_t>{3, 2, 1}));
  EXPECT_EQ(g.iout[0][0].sum, 100);
  EXPECT_EQ(g.iout[0][1].sum, 70);
  EXPECT_EQ(g.iout[0][2].min, 40);
  // Far below one morsel: with a pool the kernel runs one chunk inline.
  sched::ThreadPool pool(4);
  const auto par = grouped_multi_aggregate32(
      std::span(keys), inputs, sel, {}, GroupStrategy::kAuto, packed_tier(),
      &pool);
  EXPECT_EQ(par.keys, g.keys);
  EXPECT_EQ(par.counts, g.counts);
  for (std::size_t i = 0; i < g.group_count(); ++i)
    expect_agg_eq(g.iout[0][i], par.iout[0][i]);
}

TEST(GroupedMultiAggregate, NegativeKeysUnderEveryStrategy) {
  const std::vector<std::int64_t> keys = {-5, -5, 3};
  const std::vector<std::int64_t> vals = {1, 2, 3};
  const std::vector<AggInput> inputs = {AggInput::from(std::span(vals))};
  BitVector sel(keys.size());
  sel.set_all();
  for (const GroupStrategy strategy :
       {GroupStrategy::kAuto, GroupStrategy::kDenseArray,
        GroupStrategy::kHash}) {
    const auto g =
        grouped_multi_aggregate(std::span(keys), inputs, sel, {}, strategy);
    ASSERT_EQ(g.group_count(), 2u);
    EXPECT_EQ(g.keys[0], -5);
    EXPECT_EQ(g.iout[0][0].sum, 3);
    EXPECT_EQ(g.keys[1], 3);
    EXPECT_EQ(g.iout[0][1].sum, 3);
  }
}

TEST(GroupedMultiAggregate, DenseThrowsOnHugeDomain) {
  const std::vector<std::int64_t> keys = {0, std::int64_t{1} << 40};
  const std::vector<std::int64_t> vals = {1, 2};
  const std::vector<AggInput> inputs = {AggInput::from(std::span(vals))};
  BitVector sel(keys.size());
  sel.set_all();
  EXPECT_THROW((void)grouped_multi_aggregate(std::span(keys), inputs, sel, {},
                                             GroupStrategy::kDenseArray),
               Error);
}

TEST(GroupedMultiAggregate, AutoFallsBackToHashForWideDomains) {
  // Keys spread over far more than kDenseDomainLimit slots: dense would
  // throw, auto must hash.
  Pcg32 rng(9);
  std::vector<std::int64_t> keys(1000), vals(1000);
  for (auto& k : keys) k = static_cast<std::int64_t>(rng.next64() >> 8);
  for (auto& v : vals) v = rng.next_in_range(-50, 50);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(vals))};
  BitVector sel(keys.size());
  sel.set_all();
  const auto g = grouped_multi_aggregate(std::span(keys), inputs, sel);
  const auto ref = reference_group(keys, vals, sel);
  ASSERT_EQ(g.group_count(), ref.size());
  std::size_t i = 0;
  for (const auto& [key, want] : ref) {
    EXPECT_EQ(g.keys[i], key);
    expect_agg_eq(want, g.iout[0][i]);
    ++i;
  }
}

TEST(GroupedMultiAggregate, ParallelMatchesSerial) {
  // 100k live rows at 8192-row morsels: the pooled calls cut 16 chunks,
  // the pool-less call of the same kernel runs one.
  const TestColumns t = make_columns(200'000, 0.5, 26, /*key_domain=*/100);
  const auto serial = grouped_multi_aggregate(std::span(t.keys64),
                                              three_inputs(t), t.selection);
  sched::ThreadPool pool(4);
  const auto par = grouped_multi_aggregate(
      std::span(t.keys64), three_inputs(t), t.selection, {},
      GroupStrategy::kAuto, packed_tier(), &pool, /*morsel_rows=*/8192);
  const auto par32 = grouped_multi_aggregate32(
      std::span(t.keys32), three_inputs(t), t.selection, {},
      GroupStrategy::kAuto, packed_tier(), &pool, /*morsel_rows=*/8192);
  ASSERT_EQ(serial.group_count(), par.group_count());
  ASSERT_EQ(serial.group_count(), par32.group_count());
  for (std::size_t i = 0; i < serial.group_count(); ++i) {
    EXPECT_EQ(serial.keys[i], par.keys[i]);
    EXPECT_EQ(serial.counts[i], par.counts[i]);
    expect_agg_eq(serial.iout[0][i], par.iout[0][i]);
    expect_agg_eq(serial.iout[1][i], par32.iout[1][i]);
    expect_agg_near(serial.dout[2][i], par.dout[2][i]);
  }
}

// ---------------------------------------------------------------------------
// JoinAggregator: gather-based sink of the late-materialized join pipeline.
// ---------------------------------------------------------------------------

TEST(JoinAggregator, GlobalAggregatesGatherBothSides) {
  const std::vector<std::int64_t> probe_vals = {10, 20, 30, 40};
  const std::vector<std::int32_t> build_vals = {1, 2, 3};
  JoinAggregator agg({{AggInput::from(std::span(probe_vals)), false},
                      {AggInput::from(std::span(build_vals)), true}});
  // Matches: (build 0, probe 3), (build 2, probe 1), (build 2, probe 1).
  const std::uint32_t b[] = {0, 2, 2};
  const std::uint32_t p[] = {3, 1, 1};
  agg.add_block(b, p, 3);
  EXPECT_EQ(agg.pair_count(), 3u);
  const GroupedAggs out = agg.finish();
  ASSERT_EQ(out.group_count(), 1u);
  EXPECT_EQ(out.counts[0], 3u);
  EXPECT_EQ(out.iout[0][0].sum, 40 + 20 + 20);  // probe gather
  EXPECT_EQ(out.iout[1][0].sum, 1 + 3 + 3);     // build gather
  EXPECT_EQ(out.iout[1][0].min, 1);
  EXPECT_EQ(out.iout[1][0].max, 3);
}

TEST(JoinAggregator, GlobalEmptyEmitsOneZeroGroup) {
  const std::vector<std::int64_t> vals = {1, 2};
  JoinAggregator agg({{AggInput::from(std::span(vals)), false}});
  const GroupedAggs out = agg.finish();
  ASSERT_EQ(out.group_count(), 1u);
  EXPECT_EQ(out.counts[0], 0u);
  EXPECT_EQ(out.iout[0][0].sum, 0);
  EXPECT_EQ(out.iout[0][0].min, 0);
}

TEST(JoinAggregator, GroupedMatchesManualAccumulation) {
  // Probe-side int keys, one probe input and one build-side double input,
  // checked against a scalar re-computation (dense and hash strategies).
  Pcg32 rng(77);
  std::vector<std::int32_t> keys(500);
  std::vector<std::int64_t> vals(500);
  std::vector<double> weights(40);
  for (auto& k : keys) k = static_cast<std::int32_t>(rng.next_bounded(7));
  for (auto& v : vals) v = rng.next_in_range(-50, 50);
  for (auto& w : weights) w = rng.next_double();
  std::vector<std::uint32_t> b, p;
  for (int i = 0; i < 2000; ++i) {
    b.push_back(rng.next_bounded(40));
    p.push_back(rng.next_bounded(500));
  }
  for (const bool force_hash : {false, true}) {
    const KeyRange range{!force_hash, 0, 6, 7};
    JoinAggregator agg({{AggInput::from(std::span(vals)), false},
                        {AggInput::from(std::span(weights)), true}},
                       {{AggInput::from(std::span(keys)), false, 0, 1}},
                       range);
    agg.add_block(b.data(), p.data(), b.size());
    const GroupedAggs out = agg.finish();

    std::map<std::int64_t, std::pair<std::int64_t, double>> want;  // sums
    std::map<std::int64_t, std::uint64_t> want_count;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const std::int64_t k = keys[p[i]];
      want[k].first += vals[p[i]];
      want[k].second += weights[b[i]];
      ++want_count[k];
    }
    ASSERT_EQ(out.group_count(), want.size());
    for (std::size_t g = 0; g < out.group_count(); ++g) {
      const std::int64_t k = out.keys[g];
      EXPECT_EQ(out.counts[g], want_count[k]) << k;
      EXPECT_EQ(out.iout[0][g].sum, want[k].first) << k;
      EXPECT_DOUBLE_EQ(out.dout[1][g].sum, want[k].second) << k;
    }
  }
}

TEST(JoinAggregator, MergePartialsEqualsSinglePass) {
  // An int input merges exactly; a double input merges bit for bit as
  // (sum of part 1) + (sum of part 2), each in match order. Dense slots
  // (a known range) and hash slots (the range unknown, or wider than the
  // dense limit) merge alike.
  Pcg32 rng(88);
  std::vector<std::int64_t> keys(300), vals(300);
  std::vector<double> weights(300);
  for (auto& k : keys) k = rng.next_in_range(-3, 3);
  for (auto& v : vals) v = rng.next_in_range(0, 99);
  for (auto& w : weights)
    w = std::ldexp(1 + rng.next_double(),
                   static_cast<int>(rng.next_bounded(40)) - 20);
  std::vector<std::uint32_t> b(1000), p(1000);
  for (auto& x : b) x = rng.next_bounded(300);
  for (auto& x : p) x = rng.next_bounded(300);

  // Per key: the two parts' double sums, each in match order.
  std::map<std::int64_t, std::pair<double, double>> part_sums;
  for (std::size_t i = 0; i < b.size(); ++i) {
    auto& [first, second] = part_sums[keys[p[i]]];
    (i < 400 ? first : second) += weights[b[i]];
  }

  const KeyRange ranges[] = {
      {true, -3, 3, 7},                                  // dense
      {},                                                // hash: unknown
      {true, -3, kDenseDomainLimit + std::int64_t{8}, 7}};  // hash: wide
  for (const KeyRange& range : ranges) {
    SCOPED_TRACE(::testing::Message()
                 << "range " << range.known << " [" << range.min << ", "
                 << range.max << "]");
    const auto make = [&] {
      return JoinAggregator({{AggInput::from(std::span(vals)), false},
                             {AggInput::from(std::span(weights)), true}},
                            {{AggInput::from(std::span(keys)), false, 0, 1}},
                            range);
    };
    JoinAggregator whole = make();
    whole.add_block(b.data(), p.data(), b.size());

    JoinAggregator merged = make();
    JoinAggregator part2 = make();
    merged.add_block(b.data(), p.data(), 400);
    part2.add_block(b.data() + 400, p.data() + 400, 600);
    merged.merge_from(part2);

    const GroupedAggs a = whole.finish();
    const GroupedAggs c = merged.finish();
    ASSERT_EQ(a.group_count(), c.group_count());
    ASSERT_EQ(c.group_count(), part_sums.size());
    EXPECT_EQ(whole.pair_count(), merged.pair_count());
    for (std::size_t g = 0; g < a.group_count(); ++g) {
      EXPECT_EQ(a.keys[g], c.keys[g]);
      EXPECT_EQ(a.counts[g], c.counts[g]);
      EXPECT_EQ(a.iout[0][g].sum, c.iout[0][g].sum);
      EXPECT_EQ(a.iout[0][g].min, c.iout[0][g].min);
      EXPECT_EQ(a.iout[0][g].max, c.iout[0][g].max);
      const auto [first, second] = part_sums.at(c.keys[g]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.dout[1][g].sum),
                std::bit_cast<std::uint64_t>(first + second))
          << "key " << c.keys[g];
      EXPECT_EQ(a.dout[1][g].min, c.dout[1][g].min);
      EXPECT_EQ(a.dout[1][g].max, c.dout[1][g].max);
    }
  }
}

// ---------------------------------------------------------------------------
// Lookup keys: a foreign key outside the lookup fails cleanly when checked.
// ---------------------------------------------------------------------------

TEST(LookupKey, CheckedForeignKeyOutsideTheLookupThrows) {
  const std::vector<std::int64_t> lut = {10, 20, 30};  // foreign keys 5..7
  const std::vector<std::int64_t> vals = {1, 2, 3, 4, 5, 6};
  const std::vector<AggInput> inputs = {AggInput::from(std::span(vals))};
  for (const std::int32_t outside : {4, 8, -1'000'000}) {
    SCOPED_TRACE(::testing::Message() << "fk " << outside);
    const std::vector<std::int32_t> fk = {5, 6, 7, outside, 6, 5};
    const LookupKey keys{AggInput::from(std::span(fk)), lut, 5, true};
    BitVector sel(fk.size());
    sel.set_all();
    const KeyRange range{true, 10, 30, 3};
    EXPECT_THROW((void)grouped_multi_aggregate_lookup(keys, inputs, sel, range),
                 Error);
    EXPECT_THROW((void)grouped_multi_aggregate_lookup(keys, inputs, sel),
                 Error);  // the key-range pass reads it too
    EXPECT_THROW((void)keys.at(3), Error);
    // Unselected, the row outside is never read.
    sel.reset(3);
    const GroupedAggs g =
        grouped_multi_aggregate_lookup(keys, inputs, sel, range);
    EXPECT_EQ(g.keys, (std::vector<std::int64_t>{10, 20, 30}));
    EXPECT_EQ(g.counts, (std::vector<std::uint64_t>{2, 2, 1}));
    EXPECT_EQ(keys.at(4), 20);
  }
}

TEST(LookupKey, CheckedPackedForeignKeyThrowsInBlockAndSparseWords) {
  // Foreign keys 5..7 over a 5-bit image with reference -8 (values -8..23),
  // 4.5 selection words: words 0 and 2 are block words at every tier,
  // word 1 keeps 2 live rows (a sparse word), the partial last word reads
  // per row.
  const std::vector<std::int64_t> lut = {10, 20, 30};
  constexpr std::size_t n = 4 * 64 + 32;
  constexpr unsigned kBits = 5;
  constexpr std::int64_t kRef = -8;
  std::vector<std::int64_t> vals(n);
  std::vector<std::uint64_t> sums(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<std::int64_t>(i);
    sums[i] = i % 9;
  }
  const std::vector<std::uint64_t> sum_image = storage::bitpack(sums, 4);
  const AggInput packed_sums =
      AggInput::from(storage::PackedView{sum_image, 4, 0, n});
  // The packed input first (a block word folds it in the key loop), then
  // last.
  const std::vector<AggInput> orders[] = {
      {packed_sums, AggInput::from(std::span(vals))},
      {AggInput::from(std::span(vals)), packed_sums}};
  BitVector sel(n);
  for (std::size_t i = 0; i < n; ++i)
    if (i < 64 || (i >= 128 && i < 192) || i >= 256) sel.set(i);
  sel.set(64 + 5);
  sel.set(64 + 40);
  const KeyRange range{true, 10, 30, 3};
  const auto expect_groups = [&](const GroupedAggs& g, const BitVector& live,
                                 std::size_t sum_input) {
    std::map<std::int64_t, std::pair<std::uint64_t, std::int64_t>> want;
    live.for_each_set([&](std::size_t i) {
      auto& [count, sum] = want[lut[i % 3]];
      ++count;
      sum += static_cast<std::int64_t>(sums[i]);
    });
    ASSERT_EQ(g.group_count(), want.size());
    std::size_t at = 0;
    for (const auto& [key, count_sum] : want) {
      EXPECT_EQ(g.keys[at], key);
      EXPECT_EQ(g.counts[at], count_sum.first);
      EXPECT_EQ(g.iout[sum_input][at].sum, count_sum.second);
      ++at;
    }
  };
  for (const std::size_t row : {std::size_t{17}, std::size_t{64 + 40},
                                std::size_t{150}}) {
    for (const std::int64_t outside : {4, 8, -8, 23}) {
      std::vector<std::uint64_t> fk(n);
      for (std::size_t i = 0; i < n; ++i)
        fk[i] = static_cast<std::uint64_t>(5 + static_cast<std::int64_t>(i % 3) -
                                           kRef);
      fk[row] = static_cast<std::uint64_t>(outside - kRef);
      const std::vector<std::uint64_t> image = storage::bitpack(fk, kBits);
      const LookupKey keys{
          AggInput::from(storage::PackedView{image, kBits, kRef, n}), lut, 5,
          true};
      BitVector without = sel;
      without.reset(row);
      for (const PackedTier tier : {PackedTier::kScalar, packed_tier()}) {
        for (std::size_t order = 0; order < 2; ++order) {
          SCOPED_TRACE(::testing::Message()
                       << packed_tier_name(tier) << ", input order " << order
                       << ", row " << row << ", fk " << outside);
          const std::vector<AggInput>& inputs = orders[order];
          for (const GroupStrategy strategy :
               {GroupStrategy::kAuto, GroupStrategy::kHash})
            EXPECT_THROW((void)grouped_multi_aggregate_lookup(
                             keys, inputs, sel, range, strategy, tier),
                         Error);
          // Unselected, the key outside is never read.
          expect_groups(grouped_multi_aggregate_lookup(
                            keys, inputs, without, range,
                            GroupStrategy::kAuto, tier),
                        without, order == 0 ? 0 : 1);
        }
      }
    }
  }
}

}  // namespace
}  // namespace eidb::exec
