#include "exec/scan_kernels.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "storage/bitpack.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

std::vector<std::int32_t> random_i32(std::size_t n, std::int32_t lo,
                                     std::int32_t hi, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng.next_in_range(lo, hi));
  return v;
}

std::vector<std::int64_t> random_i64(std::size_t n, std::int64_t lo,
                                     std::int64_t hi, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.next_in_range(lo, hi);
  return v;
}

BitVector reference_bitmap32(const std::vector<std::int32_t>& v,
                             std::int32_t lo, std::int32_t hi) {
  BitVector b(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] >= lo && v[i] <= hi) b.set(i);
  return b;
}

BitVector reference_bitmap64(const std::vector<std::int64_t>& v,
                             std::int64_t lo, std::int64_t hi) {
  BitVector b(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] >= lo && v[i] <= hi) b.set(i);
  return b;
}

TEST(ScanKernels, VariantNames) {
  EXPECT_EQ(variant_name(ScanVariant::kBranching), "branching");
  EXPECT_EQ(variant_name(ScanVariant::kAvx512), "avx512");
}

TEST(ScanKernels, IndexKernelsAgreeWithReference) {
  const auto v = random_i32(5000, -100, 100, 1);
  std::vector<std::uint32_t> a(v.size()), b(v.size());
  const std::size_t na = scan_branching(v, -10, 25, a.data());
  const std::size_t nb = scan_predicated(v, -10, 25, b.data());
  ASSERT_EQ(na, nb);
  for (std::size_t i = 0; i < na; ++i) EXPECT_EQ(a[i], b[i]);
  const BitVector ref = reference_bitmap32(v, -10, 25);
  EXPECT_EQ(na, ref.count());
}

TEST(ScanKernels, EmptyInput) {
  const std::vector<std::int32_t> v;
  std::vector<std::uint32_t> out(1);
  EXPECT_EQ(scan_branching(v, 0, 10, out.data()), 0u);
  EXPECT_EQ(scan_predicated(v, 0, 10, out.data()), 0u);
  BitVector b(0);
  scan_bitmap_scalar(v, 0, 10, b);  // must not crash
}

TEST(ScanKernels, EmptyRangeSelectsNothing) {
  const auto v = random_i32(1000, 0, 100, 3);
  BitVector b(v.size());
  scan_bitmap_scalar(v, 200, 300, b);
  EXPECT_EQ(b.count(), 0u);
}

TEST(ScanKernels, FullRangeSelectsAll) {
  const auto v = random_i32(1000, -50, 50, 4);
  BitVector b(v.size());
  scan_bitmap_best(v, -50, 50, b);
  EXPECT_EQ(b.count(), v.size());
}

TEST(ScanKernels, PointPredicate) {
  std::vector<std::int32_t> v = {5, 7, 5, 3, 5};
  BitVector b(v.size());
  scan_bitmap_best(v, 5, 5, b);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(2));
  EXPECT_TRUE(b.test(4));
}

TEST(ScanKernels, NegativeBoundsHandled) {
  // The unsigned-subtraction trick must stay correct across zero.
  const auto v = random_i32(4096, -1000, 1000, 5);
  const BitVector ref = reference_bitmap32(v, -500, -100);
  BitVector scalar(v.size()), avx2(v.size()), avx512(v.size());
  scan_bitmap_scalar(v, -500, -100, scalar);
  scan_bitmap_avx2(v, -500, -100, avx2);
  scan_bitmap_avx512(v, -500, -100, avx512);
  EXPECT_EQ(scalar, ref);
  EXPECT_EQ(avx2, ref);
  EXPECT_EQ(avx512, ref);
}

TEST(ScanKernels, Int64ExtremeBounds) {
  std::vector<std::int64_t> v = {std::numeric_limits<std::int64_t>::min(), -1,
                                 0, 1,
                                 std::numeric_limits<std::int64_t>::max()};
  BitVector b(v.size());
  scan_bitmap_best64(v, std::numeric_limits<std::int64_t>::min(),
                     std::numeric_limits<std::int64_t>::max(), b);
  EXPECT_EQ(b.count(), v.size());
  BitVector c(v.size());
  scan_bitmap_best64(v, 0, std::numeric_limits<std::int64_t>::max(), c);
  EXPECT_EQ(c.count(), 3u);
}

TEST(ScanKernels, DoubleRange) {
  std::vector<double> v = {0.5, 1.5, 2.5, -3.0};
  BitVector b(v.size());
  scan_bitmap_double(v, 0.0, 2.0, b);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(1));
  EXPECT_FALSE(b.test(2));
  EXPECT_FALSE(b.test(3));
}


// Property sweep: every bitmap kernel matches the reference across sizes
// (covering SIMD-block and tail paths) and selectivities.
struct SweepCase {
  std::size_t n;
  double selectivity;
};

class BitmapKernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BitmapKernelSweep, AllKernelsMatchReference32) {
  const auto [n, sel] = GetParam();
  const auto v = random_i32(n, 0, 9999, 17 + n);
  const auto hi = static_cast<std::int32_t>(sel * 10000) - 1;
  const BitVector ref = reference_bitmap32(v, 0, hi);
  BitVector scalar(n), avx2(n), avx512(n);
  scan_bitmap_scalar(v, 0, hi, scalar);
  scan_bitmap_avx2(v, 0, hi, avx2);
  scan_bitmap_avx512(v, 0, hi, avx512);
  EXPECT_EQ(scalar, ref);
  EXPECT_EQ(avx2, ref);
  EXPECT_EQ(avx512, ref);
  std::vector<std::uint32_t> idx(n);
  EXPECT_EQ(scan_branching(v, 0, hi, idx.data()), ref.count());
  EXPECT_EQ(scan_predicated(v, 0, hi, idx.data()), ref.count());
}

TEST_P(BitmapKernelSweep, AllKernelsMatchReference64) {
  const auto [n, sel] = GetParam();
  const auto v = random_i64(n, 0, 999999, 31 + n);
  const auto hi = static_cast<std::int64_t>(sel * 1000000) - 1;
  const BitVector ref = reference_bitmap64(v, 0, hi);
  BitVector scalar(n), avx2(n), avx512(n);
  scan_bitmap_scalar64(v, 0, hi, scalar);
  scan_bitmap_avx2_64(v, 0, hi, avx2);
  scan_bitmap_avx512_64(v, 0, hi, avx512);
  EXPECT_EQ(scalar, ref);
  EXPECT_EQ(avx2, ref);
  EXPECT_EQ(avx512, ref);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSelectivities, BitmapKernelSweep,
    ::testing::Values(SweepCase{1, 0.5}, SweepCase{63, 0.5},
                      SweepCase{64, 0.5}, SweepCase{65, 0.1},
                      SweepCase{127, 0.9}, SweepCase{128, 0.01},
                      SweepCase{1000, 0.25}, SweepCase{4096, 0.5},
                      SweepCase{10000, 0.99}, SweepCase{100000, 0.001}));

// Packed scans agree with unpack-then-scan across widths.
class PackedScanSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackedScanSweep, MatchesUnpackedReference) {
  const unsigned bits = GetParam();
  constexpr std::size_t kN = 64 * 7 + 13;
  Pcg32 rng(100 + bits);
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> values(kN);
  for (auto& x : values) x = rng.next64() & mask;
  const auto packed = storage::bitpack(values, bits);

  const std::uint64_t lo = mask / 4, hi = mask / 2 + 1;
  BitVector got(kN);
  scan_packed_bitmap_range(packed, bits, 0, kN, lo, hi, got);

  BitVector ref(kN);
  for (std::size_t i = 0; i < kN; ++i)
    if (values[i] >= lo && values[i] <= hi) ref.set(i);
  EXPECT_EQ(got, ref) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedScanSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 11u, 13u, 16u,
                                           21u, 24u, 32u, 40u, 48u, 63u, 64u));

}  // namespace
}  // namespace eidb::exec
