// The block path of the aggregation kernels against a per-row scalar
// reference, on both packed tiers: grouped_multi_aggregate_packed in one
// chunk (dense and hash strategies) and in several, the plain-key grouped
// kernel over packed inputs, and the global multi_aggregate. Two packed
// inputs of different widths ride beside the key, so a block word decodes
// three images. Selection words cycle through popcounts 0, 1, 64, random
// ones, and each tier's block threshold and one below it; images end
// where an unreadable page begins. Also: every op-set subset against the all-ops run, and double
// sums from multi-chunk kernel calls that repeat bit for bit from run to
// run and at every pool width.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "exec/scan_kernels.hpp"
#include "exec/vector_agg.hpp"
#include "storage/bitpack.hpp"
#include "util/rng.hpp"
#include "agg_reference.hpp"
#include "guarded_image.hpp"

namespace eidb::exec {
namespace {

#define SKIP_WITHOUT_TIER(tier)                                          \
  do {                                                                   \
    if ((tier) == PackedTier::kAvx512Vbmi &&                             \
        packed_tier() != PackedTier::kAvx512Vbmi)                        \
      GTEST_SKIP() << "host lacks avx512f+avx512bw+avx512vbmi: the "     \
                      "block path runs the scalar tier only";            \
  } while (0)

std::uint64_t width_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

constexpr std::int64_t kRefs[] = {-123456789, 0, std::int64_t{1} << 40};
// 64k values, one past, and one short of the next block.
constexpr std::size_t kSizes[] = {65536, 65537, 65536 + 63};

/// Selection whose words cycle through popcounts 0, 1, 2, T - 1 and T
/// for each tier's threshold T, 64 and a random count, at random bit
/// positions; bits past `n` are dropped, so the partial last word keeps
/// what fits.
BitVector cycling_selection(std::size_t n, std::uint64_t seed) {
  constexpr unsigned simd = agg_block_min_live(PackedTier::kAvx512Vbmi);
  constexpr unsigned scalar = agg_block_min_live(PackedTier::kScalar);
  constexpr unsigned counts[] = {0,        1,          2,      simd - 1,
                                 simd,     scalar - 1, scalar, 64,
                                 65};
  Pcg32 rng(seed);
  BitVector sel(n);
  for (std::size_t w = 0; w * 64 < n; ++w) {
    unsigned want = counts[w % std::size(counts)];
    if (want == 65) want = rng.next_bounded(65);
    std::uint64_t bits = want == 64 ? ~std::uint64_t{0} : 0;
    while (static_cast<unsigned>(std::popcount(bits)) < want)
      bits |= std::uint64_t{1} << rng.next_bounded(64);
    for (std::size_t j = 0; j < 64 && w * 64 + j < n; ++j)
      if ((bits >> j) & 1) sel.set(w * 64 + j);
  }
  return sel;
}

/// One packed group key, two packed FOR inputs of different widths and
/// references (the first input and the fourth), and three plain inputs.
/// Keys come from a pool of 256 random values of the full width, so wide
/// keys exercise every bit of the decode with few groups. Doubles are
/// multiples of 1/4 in a small range, so their sums are exact in any
/// order and every comparison below is exact.
struct Columns {
  Columns(std::size_t rows, unsigned key_width, unsigned in_width,
          std::int64_t ref, std::uint64_t seed)
      : n(rows), key_bits(key_width), in_bits(in_width),
        in2_bits((in_width + 13) % 45), key_ref(ref), in_ref(-ref),
        in2_ref(ref / 2 - 3) {
    Pcg32 rng(seed);
    std::uint64_t pool[256];
    key_min = std::numeric_limits<std::int64_t>::max();
    key_max = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t& k : pool) {
      k = rng.next64() & width_mask(key_bits);
      const std::int64_t key = key_ref + static_cast<std::int64_t>(k);
      key_min = std::min(key_min, key);
      key_max = std::max(key_max, key);
    }
    for (std::size_t i = 0; i < n; ++i) {
      key_raw.push_back(pool[rng.next_bounded(256)]);
      in_raw.push_back(rng.next64() & width_mask(in_bits));
      in2_raw.push_back(rng.next64() & width_mask(in2_bits));
      i32.push_back(static_cast<std::int32_t>(rng.next_in_range(-500, 500)));
      i64.push_back(rng.next_in_range(-100000, 100000));
      f64.push_back(static_cast<double>(rng.next_in_range(-400, 400)) / 4);
      keys64.push_back(key_ref + static_cast<std::int64_t>(key_raw.back()));
    }
    key_image = std::make_unique<GuardedImage>(storage::bitpack(key_raw, key_bits));
    in_image = std::make_unique<GuardedImage>(storage::bitpack(in_raw, in_bits));
    in2_image =
        std::make_unique<GuardedImage>(storage::bitpack(in2_raw, in2_bits));
    selection = cycling_selection(n, seed + 1);
  }

  [[nodiscard]] storage::PackedView keys() const {
    return {key_image->words(), key_bits, key_ref, n};
  }
  [[nodiscard]] std::vector<AggInput> inputs(AggOpSet ops = kAggAllOps) const {
    std::vector<AggInput> in = {
        AggInput::from(storage::PackedView{in_image->words(), in_bits, in_ref,
                                           n}),
        AggInput::from(std::span(i32)), AggInput::from(std::span(i64)),
        AggInput::from(storage::PackedView{in2_image->words(), in2_bits,
                                           in2_ref, n}),
        AggInput::from(std::span(f64))};
    for (AggInput& x : in) x.ops = ops;
    return in;
  }
  [[nodiscard]] KeyRange range() const { return {true, key_min, key_max, 0}; }
  [[nodiscard]] std::int64_t packed_in(std::size_t i) const {
    return in_ref + static_cast<std::int64_t>(in_raw[i]);
  }
  [[nodiscard]] std::int64_t packed_in2(std::size_t i) const {
    return in2_ref + static_cast<std::int64_t>(in2_raw[i]);
  }

  std::size_t n;
  unsigned key_bits, in_bits, in2_bits;
  std::int64_t key_ref, in_ref, in2_ref;
  std::int64_t key_min, key_max;  // over the key pool
  std::vector<std::uint64_t> key_raw, in_raw, in2_raw;
  std::vector<std::int32_t> i32;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::int64_t> keys64;
  std::unique_ptr<GuardedImage> key_image, in_image, in2_image;
  BitVector selection;
};

/// The scalar reference (agg_reference.hpp's fold): one group per key,
/// rows in row order; i[] holds the integer inputs in input order.
constexpr std::size_t kInts = 4;
constexpr std::size_t kDoubleInput = 4;

struct RefGroup {
  AggResult i[kInts];
  AggResultD d;
};

std::map<std::int64_t, RefGroup> reference(const Columns& c) {
  std::map<std::int64_t, RefGroup> ref;
  for (std::size_t i = 0; i < c.n; ++i) {
    if (!c.selection.test(i)) continue;
    RefGroup& g = ref[c.keys64[i]];
    fold_ref(g.i[0], c.packed_in(i));
    fold_ref(g.i[1], static_cast<std::int64_t>(c.i32[i]));
    fold_ref(g.i[2], c.i64[i]);
    fold_ref(g.i[3], c.packed_in2(i));
    fold_ref(g.d, c.f64[i]);
  }
  return ref;
}

void expect_eq(const AggResult& want, const AggResult& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.sum, got.sum);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
}

void expect_eq(const AggResultD& want, const AggResultD& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.sum, got.sum);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
}

void expect_matches(const std::map<std::int64_t, RefGroup>& ref,
                    const GroupedAggs& g) {
  ASSERT_EQ(g.group_count(), ref.size());
  std::size_t at = 0;
  for (const auto& [key, want] : ref) {
    ASSERT_EQ(g.keys[at], key);
    EXPECT_EQ(g.counts[at], want.i[0].count);
    for (std::size_t j = 0; j < kInts; ++j)
      expect_eq(want.i[j], g.iout[j][at]);
    expect_eq(want.d, g.dout[kDoubleInput][at]);
    ++at;
  }
}

class BlockPath
    : public ::testing::TestWithParam<std::tuple<unsigned, PackedTier>> {};

TEST_P(BlockPath, MatchesPerRowReference) {
  const auto [width, tier] = GetParam();
  SKIP_WITHOUT_TIER(tier);
  // Key widths 0..33 against input widths 33..0, then key widths 34..64
  // against input widths 14..44 (wider inputs would overflow the int64
  // sums); the second packed input is 13 bits wider, mod 45. Width 0 and
  // widths above 25 are the SIMD tier's scalar fallback; above 32 the
  // block decode keeps 64-bit values. Each size meets a different
  // reference per width, so the sweep covers every (size, reference)
  // pair.
  const unsigned in_width = width <= 33 ? 33 - width : width - 20;
  sched::ThreadPool pool(2);
  for (std::size_t s = 0; s < 3; ++s) {
    const Columns c(kSizes[s], width, in_width, kRefs[(s + width) % 3],
                    100 * width + s);
    SCOPED_TRACE(::testing::Message()
                 << "key bits " << width << ", input bits " << in_width
                 << " and " << c.in2_bits
                 << ", rows " << c.n << ", reference " << c.key_ref);
    const auto ref = reference(c);
    const auto inputs = c.inputs();

    if (width <= 12)  // dense arrays over at most 4096 slots
      expect_matches(ref, grouped_multi_aggregate_packed(
                              c.keys(), inputs, c.selection, c.range(),
                              GroupStrategy::kDenseArray, tier));
    expect_matches(ref, grouped_multi_aggregate_packed(
                            c.keys(), inputs, c.selection, c.range(),
                            GroupStrategy::kHash, tier));
    // Eight or nine chunks (about 15k live rows at 8192-row morsels);
    // dense per-chunk tables while the key range spans at most a chunk's
    // 8192 rows (up to 13 key bits), hash above.
    expect_matches(ref, grouped_multi_aggregate_packed(
                            c.keys(), inputs, c.selection, c.range(),
                            GroupStrategy::kAuto, tier, &pool, 8192));
    expect_matches(ref, grouped_multi_aggregate(
                            std::span(c.keys64), inputs, c.selection,
                            c.range(),
                            width <= 12 ? GroupStrategy::kDenseArray
                                        : GroupStrategy::kHash,
                            tier));

    // Global: every group folded into one.
    AggResult want_i[kInts];
    AggResultD want_d;
    for (const auto& [key, g] : ref) {
      for (std::size_t j = 0; j < kInts; ++j) {
        if (g.i[j].count == 0) continue;
        want_i[j].min = want_i[j].count ? std::min(want_i[j].min, g.i[j].min)
                                        : g.i[j].min;
        want_i[j].max = want_i[j].count ? std::max(want_i[j].max, g.i[j].max)
                                        : g.i[j].max;
        want_i[j].sum += g.i[j].sum;
        want_i[j].count += g.i[j].count;
      }
      want_d.min = want_d.count ? std::min(want_d.min, g.d.min) : g.d.min;
      want_d.max = want_d.count ? std::max(want_d.max, g.d.max) : g.d.max;
      want_d.sum += g.d.sum;
      want_d.count += g.d.count;
    }
    const auto outs = multi_aggregate(inputs, c.selection, tier);
    for (std::size_t j = 0; j < kInts; ++j) expect_eq(want_i[j], outs[j].i);
    expect_eq(want_d, outs[kDoubleInput].d);
  }
}

std::string block_path_name(
    const ::testing::TestParamInfo<std::tuple<unsigned, PackedTier>>& info) {
  return "bits" + std::to_string(std::get<0>(info.param)) + "_" +
         packed_tier_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BlockPath,
    ::testing::Combine(::testing::Range(0u, 65u),
                       ::testing::Values(PackedTier::kScalar,
                                         PackedTier::kAvx512Vbmi)),
    block_path_name);

// ---------------------------------------------------------------------------
// Lookup keys: a group key read as lut[fk - lut_min] through an int32,
// int64 or packed foreign key equals a plain key column holding the
// looked-up values, on every tier, serial and parallel.
// ---------------------------------------------------------------------------

void expect_same(const GroupedAggs& want, const GroupedAggs& got) {
  ASSERT_EQ(want.keys, got.keys);
  ASSERT_EQ(want.counts, got.counts);
  ASSERT_EQ(want.iout.size(), got.iout.size());
  for (std::size_t j = 0; j < want.iout.size(); ++j) {
    ASSERT_EQ(want.iout[j].size(), got.iout[j].size());
    for (std::size_t g = 0; g < want.iout[j].size(); ++g)
      expect_eq(want.iout[j][g], got.iout[j][g]);
    ASSERT_EQ(want.dout[j].size(), got.dout[j].size());
    for (std::size_t g = 0; g < want.dout[j].size(); ++g)
      expect_eq(want.dout[j][g], got.dout[j][g]);
  }
}

class LookupPath
    : public ::testing::TestWithParam<std::tuple<unsigned, PackedTier>> {};

TEST_P(LookupPath, MatchesPlainKeysHoldingTheLookedUpValues) {
  const auto [bits, tier] = GetParam();
  SKIP_WITHOUT_TIER(tier);
  sched::ThreadPool pool(3);
  for (const std::size_t n : kSizes) {
    const Columns c(n, bits, 17, -5000, 7 * bits + n);
    // Thirteen groups from -6 to 6 over the foreign-key domain.
    const std::int64_t lut_min = c.key_min;
    std::vector<std::int64_t> lut(
        static_cast<std::size_t>(c.key_max - c.key_min + 1));
    for (std::size_t k = 0; k < lut.size(); ++k)
      lut[k] = static_cast<std::int64_t>(k % 13) - 6;
    std::vector<std::int64_t> looked_up(n);
    std::vector<std::int32_t> fk32(n);
    for (std::size_t i = 0; i < n; ++i) {
      looked_up[i] = lut[static_cast<std::size_t>(c.keys64[i] - lut_min)];
      fk32[i] = static_cast<std::int32_t>(c.keys64[i]);
    }
    const std::vector<AggInput> inputs = c.inputs();
    const KeyRange range{true, -6, 6, 0};
    const GroupedAggs want = grouped_multi_aggregate(
        std::span(looked_up), inputs, c.selection, range);
    const GroupedAggs want_parallel = grouped_multi_aggregate(
        std::span(looked_up), inputs, c.selection, range,
        GroupStrategy::kAuto, packed_tier(), &pool, 4096);
    for (const AggInput& fk :
         {AggInput::from(c.keys()), AggInput::from(std::span(c.keys64)),
          AggInput::from(std::span(fk32))}) {
      const LookupKey keys{fk, lut, lut_min};
      expect_same(want, grouped_multi_aggregate_lookup(
                            keys, inputs, c.selection, range,
                            GroupStrategy::kAuto, tier));
      expect_same(want, grouped_multi_aggregate_lookup(
                            keys, inputs, c.selection, range,
                            GroupStrategy::kHash, tier));
      expect_same(want_parallel,
                  grouped_multi_aggregate_lookup(keys, inputs, c.selection,
                                                 range, GroupStrategy::kAuto,
                                                 tier, &pool, 4096));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LookupPath,
    ::testing::Combine(::testing::Values(1u, 12u, 15u, 16u),
                       ::testing::Values(PackedTier::kScalar,
                                         PackedTier::kAvx512Vbmi)),
    block_path_name);

// ---------------------------------------------------------------------------
// Op sets: requested outputs equal the all-ops run, the rest read 0.
// ---------------------------------------------------------------------------

template <typename R>
void expect_subset(const R& all, const R& got, AggOpSet ops) {
  using V = decltype(all.sum);
  EXPECT_EQ(got.count, all.count);
  EXPECT_EQ(got.sum, (ops & kAggSum) ? all.sum : V{0});
  EXPECT_EQ(got.min, (ops & kAggMin) ? all.min : V{0});
  EXPECT_EQ(got.max, (ops & kAggMax) ? all.max : V{0});
}

void expect_subset(const GroupedAggs& all, const GroupedAggs& got,
                   AggOpSet ops) {
  ASSERT_EQ(got.keys, all.keys);
  ASSERT_EQ(got.counts, all.counts);
  for (std::size_t j = 0; j < all.iout.size(); ++j) {
    ASSERT_EQ(got.iout[j].size(), all.iout[j].size());
    ASSERT_EQ(got.dout[j].size(), all.dout[j].size());
    for (std::size_t g = 0; g < all.iout[j].size(); ++g)
      expect_subset(all.iout[j][g], got.iout[j][g], ops);
    for (std::size_t g = 0; g < all.dout[j].size(); ++g)
      expect_subset(all.dout[j][g], got.dout[j][g], ops);
  }
}

class OpSets : public ::testing::TestWithParam<PackedTier> {};

TEST_P(OpSets, RequestedOutputsEqualTheAllOpsRun) {
  const PackedTier tier = GetParam();
  SKIP_WITHOUT_TIER(tier);
  const Columns c(kSizes[2], 4, 17, kRefs[0], 7);
  sched::ThreadPool pool(4);
  const auto run_all = [&](AggOpSet ops) {
    const auto inputs = c.inputs(ops);
    return std::make_tuple(
        grouped_multi_aggregate_packed(c.keys(), inputs, c.selection,
                                       c.range(), GroupStrategy::kDenseArray,
                                       tier),
        grouped_multi_aggregate_packed(c.keys(), inputs, c.selection,
                                       c.range(), GroupStrategy::kHash, tier),
        grouped_multi_aggregate_packed(c.keys(), inputs, c.selection,
                                       c.range(), GroupStrategy::kAuto, tier,
                                       &pool, 4096),
        multi_aggregate(inputs, c.selection, tier));
  };
  const auto [dense, hash, par, global] = run_all(kAggAllOps);
  for (AggOpSet ops = 0; ops < kAggAllOps; ++ops) {
    SCOPED_TRACE(::testing::Message() << "op set " << int{ops});
    const auto [d, h, p, g] = run_all(ops);
    expect_subset(dense, d, ops);
    expect_subset(hash, h, ops);
    expect_subset(par, p, ops);
    for (std::size_t j = 0; j < kInts; ++j)
      expect_subset(global[j].i, g[j].i, ops);
    expect_subset(global[kDoubleInput].d, g[kDoubleInput].d, ops);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, OpSets,
                         ::testing::Values(PackedTier::kScalar,
                                           PackedTier::kAvx512Vbmi),
                         [](const auto& info) {
                           return packed_tier_name(info.param);
                         });

TEST(OpSets, JoinAggregatorHonoursTheOpSet) {
  const Columns c(4096, 3, 9, kRefs[0], 11);
  std::vector<std::uint32_t> probe, build;
  Pcg32 rng(12);
  for (int i = 0; i < 5000; ++i) {
    probe.push_back(rng.next_bounded(4096));
    build.push_back(rng.next_bounded(4096));
  }
  const auto run = [&](AggOpSet ops, bool grouped) {
    std::vector<JoinAggregator::Input> inputs;
    std::size_t side = 0;
    for (const AggInput& in : c.inputs(ops)) inputs.push_back({in, side++ % 2});
    JoinAggregator agg =
        grouped ? JoinAggregator(inputs,
                                 {{AggInput::from(c.keys()), 0, 0, 1}},
                                 c.range())
                : JoinAggregator(inputs);
    agg.add_block(build.data(), probe.data(), probe.size());
    return agg.finish();
  };
  for (const bool grouped : {false, true}) {
    const GroupedAggs all = run(kAggAllOps, grouped);
    for (AggOpSet ops = 0; ops < kAggAllOps; ++ops) {
      SCOPED_TRACE(::testing::Message()
                   << "op set " << int{ops} << ", grouped " << grouped);
      expect_subset(all, run(ops, grouped), ops);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel merges run in chunk order: double sums repeat bit for bit.
// ---------------------------------------------------------------------------

/// 1M rows in 4 groups, ~70 % selected, doubles spread over 60 binades:
/// any change in summation order shows up in the low bits.
struct SpreadDoubles {
  static constexpr std::size_t n = 1 << 20;
  SpreadDoubles() : keys(n), values(n), sel(n) {
    Pcg32 rng(2024);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = rng.next_bounded(4);
      const double mantissa = 1 + rng.next_double();
      values[i] = std::ldexp(rng.next_bounded(2) ? mantissa : -mantissa,
                             static_cast<int>(rng.next_bounded(60)) - 30);
      if (rng.next_double() < 0.7) sel.set(i);
    }
  }
  /// Bit patterns of the four group sums of the grouped kernel, then the
  /// global kernel's sum, at 4096-row morsels.
  [[nodiscard]] std::vector<std::uint64_t> sums(
      sched::ThreadPool& pool) const {
    const std::vector<AggInput> inputs = {AggInput::from(std::span(values))};
    const GroupedAggs g =
        grouped_multi_aggregate(std::span(keys), inputs, sel, {},
                                GroupStrategy::kAuto, packed_tier(), &pool,
                                4096);
    const std::vector<AggOut> global =
        multi_aggregate(inputs, sel, packed_tier(), &pool, 4096);
    std::vector<std::uint64_t> out;
    EXPECT_EQ(g.group_count(), 4u);
    for (const AggResultD& r : g.dout[0])
      out.push_back(std::bit_cast<std::uint64_t>(r.sum));
    out.push_back(std::bit_cast<std::uint64_t>(global[0].d.sum));
    return out;
  }

  std::vector<std::int64_t> keys;
  std::vector<double> values;
  BitVector sel;
};

TEST(ParallelAggregates, DoubleSumsAreBitwiseRepeatable) {
  const SpreadDoubles data;
  sched::ThreadPool pool(8);
  const std::vector<std::uint64_t> first = data.sums(pool);
  for (int run = 1; run < 50; ++run)
    ASSERT_EQ(data.sums(pool), first) << "run " << run;
}

TEST(ParallelAggregates, DoubleSumsDoNotDependOnThePoolWidth) {
  // Chunks are cut from the row count and the morsel size, so every pool
  // width sums the same chunks and merges them in the same order.
  const SpreadDoubles data;
  std::vector<std::uint64_t> want;
  for (const std::size_t width : {1, 2, 3, 8}) {
    sched::ThreadPool pool(width);
    const std::vector<std::uint64_t> got = data.sums(pool);
    if (want.empty()) want = got;
    EXPECT_EQ(got, want) << "pool of " << width;
  }
}

}  // namespace
}  // namespace eidb::exec
