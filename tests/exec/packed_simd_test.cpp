// SIMD tiers against their scalar references, word for word: the packed
// range scan and the semi-join filter test (PackedTier::kAvx512Vbmi vs
// the scalar block decoder), and the AVX2 / AVX-512 int32/int64 bitmap
// scans vs scan_bitmap_scalar(64). A tier the host lacks is skipped by
// name; DispatcherReportsTheVbmiTier fails if a host that has the ISA
// runs the packed kernels on the scalar tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "exec/join.hpp"
#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "util/rng.hpp"
#include "guarded_image.hpp"

namespace eidb::exec {
namespace {

bool host_has_vbmi() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vbmi");
#else
  return false;
#endif
}

#define SKIP_WITHOUT_VBMI()                                               \
  do {                                                                    \
    if (packed_tier() != PackedTier::kAvx512Vbmi)                         \
      GTEST_SKIP() << "host lacks avx512f+avx512bw+avx512vbmi: the "      \
                      "packed kernels run the scalar tier only";          \
  } while (0)

TEST(PackedSimd, DispatcherReportsTheVbmiTier) {
  // Guards against the tier compiling out: a host with the ISA must get it.
  if (!host_has_vbmi())
    GTEST_SKIP() << "host lacks avx512vbmi";
  EXPECT_TRUE(cpu_has_avx512_vbmi());
  EXPECT_EQ(packed_tier_name(packed_tier()), "avx512vbmi");
}

std::uint64_t width_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

std::vector<std::uint64_t> random_values(std::size_t n, unsigned bits,
                                         std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next64() & width_mask(bits);
  return v;
}

// 64k values, one past, and one short of the next block.
constexpr std::size_t kSizes[] = {65536, 65537, 65536 + 63};

class PackedRangeScanTier : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackedRangeScanTier, MatchesScalarWordForWord) {
  SKIP_WITHOUT_VBMI();
  const unsigned bits = GetParam();
  const std::uint64_t mask = width_mask(bits);
  for (const std::size_t n : kSizes) {
    const auto values = random_values(n, bits, 1000 * bits + n);
    const GuardedImage image(storage::bitpack(values, bits));
    const auto packed = image.words();
    Pcg32 rng(bits);
    const std::uint64_t a = rng.next64() & mask, b = rng.next64() & mask;
    const std::pair<std::uint64_t, std::uint64_t> bounds[] = {
        {std::min(a, b), std::max(a, b)},
        {mask / 4, mask / 2},
        {0, mask},
        {a, a},                                   // lo == hi
        {mask / 3, mask},                         // hi == mask
        {mask / 3, ~std::uint64_t{0}},            // hi > mask
        {mask + 1, ~std::uint64_t{0}},            // lo > mask
    };
    for (const auto& [lo, hi] : bounds) {
      BitVector want(n), got(n);
      scan_packed_bitmap_range_scalar(packed, bits, 0, n, lo, hi, want);
      scan_packed_bitmap_range(packed, bits, 0, n, lo, hi, got);
      ASSERT_EQ(got, want) << "bits=" << bits << " n=" << n << " [" << lo
                           << ", " << hi << "]";
    }
    // Ranges starting at every 64-aligned offset: two blocks each, so
    // the last ones end at the image end (a partial block or not). The
    // words just outside the range must keep their sentinel.
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    constexpr std::uint64_t kSentinel = 0x5a5a5a5a5a5a5a5aULL;
    BitVector want(n), got(n);
    for (std::size_t begin = 0; begin < n; begin += 64) {
      const std::size_t end = std::min(n, begin + 128);
      const std::size_t w_lo = begin / 64 == 0 ? 0 : begin / 64 - 1;
      const std::size_t w_hi = std::min(got.word_count(), (end + 63) / 64 + 1);
      std::fill(want.words() + w_lo, want.words() + w_hi, kSentinel);
      std::fill(got.words() + w_lo, got.words() + w_hi, kSentinel);
      scan_packed_bitmap_range_scalar(packed, bits, begin, end, lo, hi, want);
      scan_packed_bitmap_range(packed, bits, begin, end, lo, hi, got);
      ASSERT_TRUE(std::equal(got.words() + w_lo, got.words() + w_hi,
                             want.words() + w_lo))
          << "bits=" << bits << " n=" << n << " begin=" << begin;
      if (w_lo < begin / 64) {
        ASSERT_EQ(got.words()[w_lo], kSentinel);
      }
      if (w_hi > (end + 63) / 64) {
        ASSERT_EQ(got.words()[w_hi - 1], kSentinel);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths1To32, PackedRangeScanTier,
                         ::testing::Range(1u, 33u));

class JoinFilterTier : public ::testing::TestWithParam<unsigned> {};

TEST_P(JoinFilterTier, MatchesScalarWordForWord) {
  SKIP_WITHOUT_VBMI();
  const unsigned bits = GetParam();
  const std::uint64_t mask = width_mask(bits);
  const auto span_of = [](std::uint64_t width) {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(width, 1 << 20));
  };
  for (const std::size_t n : kSizes) {
    const auto values = random_values(n, bits, 7000 * bits + n);
    const GuardedImage image(storage::bitpack(values, bits));
    Pcg32 rng(bits * 31 + n);
    // All-dead, all-live and random selection words.
    BitVector random_sel(n);
    for (std::size_t i = 0; i < n; ++i)
      if ((rng.next() & 7) < 5) random_sel.set(i);
    BitVector all_live(n);
    all_live.set_all();
    const BitVector selections[] = {BitVector(n), all_live, random_sel};
    for (const std::int64_t reference :
         {std::int64_t{-123456789}, std::int64_t{0}, std::int64_t{1} << 40}) {
      const storage::PackedView view{image.words(), bits, reference, n};
      const JoinKeys keys = JoinKeys::from(view);
      // Filter domains: a window inside the keys (some below min, some at
      // or past min + domain), one above every key, one below every key,
      // one straddling the smallest keys.
      const std::int64_t wide = span_of(mask / 2 + 1);
      const std::pair<std::int64_t, std::int64_t> domains[] = {
          {reference + static_cast<std::int64_t>(mask / 4), wide},
          {reference + static_cast<std::int64_t>(mask) + 1, wide},
          {reference - wide - 3, wide},
          {reference - 2, span_of(mask / 8 + 3)},
      };
      for (const auto& [min_key, domain] : domains) {
        std::vector<std::int64_t> build(4096);
        for (auto& k : build)
          k = min_key + static_cast<std::int64_t>(
                            rng.next64() % static_cast<std::uint64_t>(domain));
        BitVector bsel(build.size());
        for (std::size_t i = 0; i < build.size(); ++i)
          if (rng.next() & 1) bsel.set(i);
        const JoinFilter filter(
            JoinKeys::from(std::span<const std::int64_t>(build)), bsel,
            min_key, domain);
        for (std::size_t s = 0; s < std::size(selections); ++s) {
          BitVector want = selections[s];
          const std::uint64_t want_kept =
              filter.apply_scalar(keys, want, 0, want.word_count());
          BitVector got = selections[s];
          EXPECT_EQ(filter.apply(keys, got, 0, got.word_count()), want_kept);
          ASSERT_EQ(got, want) << "bits=" << bits << " n=" << n
                               << " ref=" << reference << " min=" << min_key
                               << " sel=" << s;
          // Disjoint word ranges (the morsel-parallel split) compose;
          // checked over the random selection words.
          if (s != 2) continue;
          BitVector split = selections[s];
          const std::size_t mid = split.word_count() / 3;
          EXPECT_EQ(filter.apply(keys, split, 0, mid) +
                        filter.apply(keys, split, mid, split.word_count()),
                    want_kept);
          ASSERT_EQ(split, want) << "bits=" << bits << " n=" << n;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths1To32, JoinFilterTier,
                         ::testing::Range(1u, 33u));

// -- AVX2 / AVX-512 int32 and int64 bitmap scans -----------------------------

constexpr std::size_t kBitmapSizes[] = {0, 1, 63, 64, 65, 127, 1000, 4096 + 17};

template <typename T>
std::vector<T> extreme_values(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    switch (rng.next_bounded(4)) {
      case 0:
        x = std::numeric_limits<T>::min();
        break;
      case 1:
        x = std::numeric_limits<T>::max();
        break;
      default:
        x = static_cast<T>(rng.next_in_range(-1000, 1000));
    }
  }
  return v;
}

template <typename T>
std::vector<std::pair<T, T>> extreme_bounds() {
  constexpr T kMin = std::numeric_limits<T>::min();
  constexpr T kMax = std::numeric_limits<T>::max();
  return {{-500, 500}, {kMin, kMax}, {kMin, 0}, {0, kMax},
          {kMax, kMax}, {kMin, kMin}, {7, 7}};
}

TEST(BitmapScanTier, Avx2MatchesScalar) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "host lacks avx2";
  for (const std::size_t n : kBitmapSizes) {
    const auto v32 = extreme_values<std::int32_t>(n, n + 1);
    for (const auto& [lo, hi] : extreme_bounds<std::int32_t>()) {
      BitVector want(n), got(n);
      scan_bitmap_scalar(v32, lo, hi, want);
      scan_bitmap_avx2(v32, lo, hi, got);
      ASSERT_EQ(got, want) << "n=" << n << " [" << lo << ", " << hi << "]";
    }
    const auto v64 = extreme_values<std::int64_t>(n, n + 2);
    for (const auto& [lo, hi] : extreme_bounds<std::int64_t>()) {
      BitVector want(n), got(n);
      scan_bitmap_scalar64(v64, lo, hi, want);
      scan_bitmap_avx2_64(v64, lo, hi, got);
      ASSERT_EQ(got, want) << "n=" << n << " [" << lo << ", " << hi << "]";
    }
  }
}

TEST(BitmapScanTier, Avx512MatchesScalar) {
  if (!cpu_has_avx512()) GTEST_SKIP() << "host lacks avx512f+avx512bw";
  for (const std::size_t n : kBitmapSizes) {
    const auto v32 = extreme_values<std::int32_t>(n, n + 3);
    for (const auto& [lo, hi] : extreme_bounds<std::int32_t>()) {
      BitVector want(n), got(n);
      scan_bitmap_scalar(v32, lo, hi, want);
      scan_bitmap_avx512(v32, lo, hi, got);
      ASSERT_EQ(got, want) << "n=" << n << " [" << lo << ", " << hi << "]";
    }
    const auto v64 = extreme_values<std::int64_t>(n, n + 4);
    for (const auto& [lo, hi] : extreme_bounds<std::int64_t>()) {
      BitVector want(n), got(n);
      scan_bitmap_scalar64(v64, lo, hi, want);
      scan_bitmap_avx512_64(v64, lo, hi, got);
      ASSERT_EQ(got, want) << "n=" << n << " [" << lo << ", " << hi << "]";
    }
  }
}

}  // namespace
}  // namespace eidb::exec
