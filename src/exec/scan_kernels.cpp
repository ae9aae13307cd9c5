#include "exec/scan_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <type_traits>

#include "storage/bitpack.hpp"
#include "storage/bitpack_avx512.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

std::string variant_name(ScanVariant v) {
  switch (v) {
    case ScanVariant::kBranching:
      return "branching";
    case ScanVariant::kPredicated:
      return "predicated";
    case ScanVariant::kAvx2:
      return "avx2";
    case ScanVariant::kAvx512:
      return "avx512";
    case ScanVariant::kAuto:
      return "auto";
  }
  return "invalid";
}

bool cpu_has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512_vbmi() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return cpu_has_avx512() && __builtin_cpu_supports("avx512vbmi") != 0;
  }();
  return has;
#else
  return false;
#endif
}

PackedTier packed_tier() {
  return cpu_has_avx512_vbmi() ? PackedTier::kAvx512Vbmi
                               : PackedTier::kScalar;
}

std::string packed_tier_name(PackedTier tier) {
  switch (tier) {
    case PackedTier::kScalar:
      return "scalar";
    case PackedTier::kAvx512Vbmi:
      return "avx512vbmi";
  }
  return "invalid";
}

// -- index kernels -------------------------------------------------------------

std::size_t scan_branching(std::span<const std::int32_t> values,
                           std::int32_t lo, std::int32_t hi,
                           std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi)
      out[k++] = static_cast<std::uint32_t>(i);
  }
  return k;
}

std::size_t scan_predicated(std::span<const std::int32_t> values,
                            std::int32_t lo, std::int32_t hi,
                            std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[k] = static_cast<std::uint32_t>(i);
    // Unsigned trick: v - lo <= hi - lo iff lo <= v <= hi (no branches).
    const std::uint32_t shifted = static_cast<std::uint32_t>(values[i]) -
                                  static_cast<std::uint32_t>(lo);
    const std::uint32_t width = static_cast<std::uint32_t>(hi) -
                                static_cast<std::uint32_t>(lo);
    k += shifted <= width;
  }
  return k;
}

// -- scalar bitmap ---------------------------------------------------------------

namespace {

/// Selection word for lo <= v[j] <= hi over the n <= 64 values at `v`
/// (unsigned-subtraction trick: one compare per value, no branches). The
/// scalar kernels are loops of it; the SIMD kernels use it for the last,
/// partial word.
template <typename T>
std::uint64_t range_word(const T* v, std::size_t n, T lo, T hi) {
  using U = std::make_unsigned_t<T>;
  const U width = static_cast<U>(static_cast<U>(hi) - static_cast<U>(lo));
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const U shifted =
        static_cast<U>(static_cast<U>(v[j]) - static_cast<U>(lo));
    bits |= static_cast<std::uint64_t>(shifted <= width) << j;
  }
  return bits;
}

/// Writes range_word for values [first * 64, n) into words[first...].
template <typename T>
void range_words_from(std::span<const T> values, std::size_t first, T lo,
                      T hi, std::uint64_t* words) {
  for (std::size_t w = first; w * 64 < values.size(); ++w)
    words[w] = range_word(values.data() + w * 64,
                          std::min<std::size_t>(64, values.size() - w * 64),
                          lo, hi);
}

}  // namespace

void scan_bitmap_scalar(std::span<const std::int32_t> values, std::int32_t lo,
                        std::int32_t hi, BitVector& out) {
  EIDB_EXPECTS(out.size() >= values.size());
  range_words_from(values, 0, lo, hi, out.words());
}

void scan_bitmap_scalar64(std::span<const std::int64_t> values,
                          std::int64_t lo, std::int64_t hi, BitVector& out) {
  EIDB_EXPECTS(out.size() >= values.size());
  range_words_from(values, 0, lo, hi, out.words());
}

// -- AVX2 / AVX-512 -----------------------------------------------------------
//
// Compiled in every x86-64 build through target attributes (no global -m
// flag) and entered only after the CPU check in the public wrapper. Each
// kernel writes the full 64-value words; the wrapper finishes the partial
// last word with range_word.

#if defined(__x86_64__)
namespace {

__attribute__((target("avx2"))) void avx2_words(
    std::span<const std::int32_t> values, std::int32_t lo, std::int32_t hi,
    std::uint64_t* words) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  for (std::size_t w = 0; w < values.size() / 64; ++w) {
    const std::int32_t* base = values.data() + w * 64;
    std::uint64_t outside = 0;
    for (unsigned g = 0; g < 8; ++g) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + g * 8));
      const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, v),
                                          _mm256_cmpgt_epi32(v, vhi));
      outside |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                     _mm256_movemask_ps(_mm256_castsi256_ps(out))))
                 << (g * 8);
    }
    words[w] = ~outside;
  }
}

__attribute__((target("avx2"))) void avx2_words64(
    std::span<const std::int64_t> values, std::int64_t lo, std::int64_t hi,
    std::uint64_t* words) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  for (std::size_t w = 0; w < values.size() / 64; ++w) {
    const std::int64_t* base = values.data() + w * 64;
    std::uint64_t outside = 0;
    for (unsigned g = 0; g < 16; ++g) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + g * 4));
      const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v),
                                          _mm256_cmpgt_epi64(v, vhi));
      outside |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(out))))
                 << (g * 4);
    }
    words[w] = ~outside;
  }
}

__attribute__((target("avx512f,avx512bw"))) void avx512_words(
    std::span<const std::int32_t> values, std::int32_t lo, std::int32_t hi,
    std::uint64_t* words) {
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  for (std::size_t w = 0; w < values.size() / 64; ++w) {
    const std::int32_t* base = values.data() + w * 64;
    std::uint64_t bits = 0;
    for (unsigned g = 0; g < 4; ++g) {
      const __m512i v = _mm512_loadu_si512(base + g * 16);
      const __mmask16 m =
          _mm512_mask_cmple_epi32_mask(_mm512_cmple_epi32_mask(vlo, v), v, vhi);
      bits |= static_cast<std::uint64_t>(m) << (g * 16);
    }
    words[w] = bits;
  }
}

__attribute__((target("avx512f,avx512bw"))) void avx512_words64(
    std::span<const std::int64_t> values, std::int64_t lo, std::int64_t hi,
    std::uint64_t* words) {
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  for (std::size_t w = 0; w < values.size() / 64; ++w) {
    const std::int64_t* base = values.data() + w * 64;
    std::uint64_t bits = 0;
    for (unsigned g = 0; g < 8; ++g) {
      const __m512i v = _mm512_loadu_si512(base + g * 8);
      const __mmask8 m =
          _mm512_mask_cmple_epi64_mask(_mm512_cmple_epi64_mask(vlo, v), v, vhi);
      bits |= static_cast<std::uint64_t>(m) << (g * 8);
    }
    words[w] = bits;
  }
}

}  // namespace
#endif  // __x86_64__

void scan_bitmap_avx2(std::span<const std::int32_t> values, std::int32_t lo,
                      std::int32_t hi, BitVector& out) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    EIDB_EXPECTS(out.size() >= values.size());
    avx2_words(values, lo, hi, out.words());
    range_words_from(values, values.size() / 64, lo, hi, out.words());
    return;
  }
#endif
  scan_bitmap_scalar(values, lo, hi, out);
}

void scan_bitmap_avx2_64(std::span<const std::int64_t> values, std::int64_t lo,
                         std::int64_t hi, BitVector& out) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    EIDB_EXPECTS(out.size() >= values.size());
    avx2_words64(values, lo, hi, out.words());
    range_words_from(values, values.size() / 64, lo, hi, out.words());
    return;
  }
#endif
  scan_bitmap_scalar64(values, lo, hi, out);
}

void scan_bitmap_avx512(std::span<const std::int32_t> values, std::int32_t lo,
                        std::int32_t hi, BitVector& out) {
#if defined(__x86_64__)
  if (cpu_has_avx512()) {
    EIDB_EXPECTS(out.size() >= values.size());
    avx512_words(values, lo, hi, out.words());
    range_words_from(values, values.size() / 64, lo, hi, out.words());
    return;
  }
#endif
  scan_bitmap_avx2(values, lo, hi, out);
}

void scan_bitmap_avx512_64(std::span<const std::int64_t> values,
                           std::int64_t lo, std::int64_t hi, BitVector& out) {
#if defined(__x86_64__)
  if (cpu_has_avx512()) {
    EIDB_EXPECTS(out.size() >= values.size());
    avx512_words64(values, lo, hi, out.words());
    range_words_from(values, values.size() / 64, lo, hi, out.words());
    return;
  }
#endif
  scan_bitmap_avx2_64(values, lo, hi, out);
}

void scan_bitmap_double(std::span<const double> values, double lo, double hi,
                        BitVector& out) {
  EIDB_EXPECTS(out.size() >= values.size());
  std::uint64_t* words = out.words();
  const std::size_t n = values.size();
  for (std::size_t w = 0; w * 64 < n; ++w) {
    std::uint64_t bits = 0;
    const std::size_t end = std::min<std::size_t>(64, n - w * 64);
    for (std::size_t j = 0; j < end; ++j) {
      const double v = values[w * 64 + j];
      bits |= static_cast<std::uint64_t>(v >= lo && v <= hi) << j;
    }
    words[w] = bits;
  }
}

// -- packed scan -----------------------------------------------------------------

namespace {

/// Scalar tier: blocks [block, value_end) through the per-width block
/// decoder, the partial last block value by value.
void packed_words_scalar(std::span<const std::uint64_t> packed, unsigned bits,
                         std::size_t block, std::size_t value_end,
                         std::uint64_t lo, std::uint64_t width,
                         std::uint64_t* words) {
  alignas(64) std::uint64_t buf[64];
  for (; block + 64 <= value_end; block += 64) {
    storage::bitunpack_block64(packed, bits, block, buf);
    std::uint64_t bv = 0;
    for (unsigned j = 0; j < 64; ++j)
      bv |= static_cast<std::uint64_t>((buf[j] - lo) <= width) << j;
    words[block / 64] = bv;
  }
  if (block < value_end) {
    std::uint64_t bv = 0;
    for (std::size_t j = 0; block + j < value_end; ++j) {
      const std::uint64_t v = storage::bitpacked_at(packed, bits, block + j);
      bv |= static_cast<std::uint64_t>((v - lo) <= width) << j;
    }
    words[block / 64] = bv;
  }
}

#if defined(__x86_64__)
/// AVX-512 tier: full blocks [block, block_end) decoded 16 values at a
/// time by the storage core and compared in 32-bit lanes (lo and width
/// are already clamped into the width's domain, so they fit).
EIDB_TARGET_AVX512_VBMI void packed_words_avx512(
    std::span<const std::uint64_t> packed, unsigned bits, std::size_t block,
    std::size_t block_end, std::uint32_t lo, std::uint32_t width,
    std::uint64_t* words) {
  const storage::avx512::Unpacker unpack(packed.data(), bits);
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vwidth = _mm512_set1_epi32(static_cast<int>(width));
  for (; block < block_end; block += 64) {
    std::uint64_t bv = 0;
    #pragma GCC unroll 4
    for (unsigned g = 0; g < 4; ++g) {
      const __m512i v = unpack.load16(block + 16 * g);
      const __mmask16 m =
          _mm512_cmple_epu32_mask(_mm512_sub_epi32(v, vlo), vwidth);
      bv |= static_cast<std::uint64_t>(m) << (16 * g);
    }
    words[block / 64] = bv;
  }
}
#endif  // __x86_64__

void scan_packed_range(std::span<const std::uint64_t> packed, unsigned bits,
                       std::size_t value_begin, std::size_t value_end,
                       std::uint64_t lo, std::uint64_t hi, BitVector& out,
                       PackedTier tier) {
  EIDB_EXPECTS(out.size() >= value_end);
  EIDB_EXPECTS((value_begin & 63) == 0);
  std::uint64_t* words = out.words();
  if (value_begin >= value_end) return;

  // Clamp the predicate into the width's domain.
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  if (lo > mask) {
    // Nothing representable can match.
    for (std::size_t w = value_begin / 64; w * 64 < value_end; ++w)
      words[w] = 0;
    return;
  }
  hi = std::min(hi, mask);

  std::size_t block = value_begin;
#if defined(__x86_64__)
  const std::size_t block_end = value_end & ~std::size_t{63};
  if (tier == PackedTier::kAvx512Vbmi && bits >= 1 &&
      bits <= storage::avx512::kMaxBits && block < block_end) {
    EIDB_EXPECTS(packed.size() >= storage::packed_word_count(block_end, bits));
    packed_words_avx512(packed, bits, block, block_end,
                        static_cast<std::uint32_t>(lo),
                        static_cast<std::uint32_t>(hi - lo), words);
    block = block_end;
  }
#else
  (void)tier;
#endif
  packed_words_scalar(packed, bits, block, value_end, lo, hi - lo, words);
}

}  // namespace

void scan_packed_bitmap_range(std::span<const std::uint64_t> packed,
                              unsigned bits, std::size_t value_begin,
                              std::size_t value_end, std::uint64_t lo,
                              std::uint64_t hi, BitVector& out) {
  scan_packed_range(packed, bits, value_begin, value_end, lo, hi, out,
                    packed_tier());
}

void scan_packed_bitmap_range_scalar(std::span<const std::uint64_t> packed,
                                     unsigned bits, std::size_t value_begin,
                                     std::size_t value_end, std::uint64_t lo,
                                     std::uint64_t hi, BitVector& out) {
  scan_packed_range(packed, bits, value_begin, value_end, lo, hi, out,
                    PackedTier::kScalar);
}

void scan_packed_bitmap(std::span<const std::uint64_t> packed, unsigned bits,
                        std::size_t count, std::uint64_t lo, std::uint64_t hi,
                        BitVector& out) {
  scan_packed_bitmap_range(packed, bits, 0, count, lo, hi, out);
}

// -- dispatch --------------------------------------------------------------------

void scan_bitmap_best(std::span<const std::int32_t> values, std::int32_t lo,
                      std::int32_t hi, BitVector& out) {
  scan_bitmap_avx512(values, lo, hi, out);
}

void scan_bitmap_best64(std::span<const std::int64_t> values, std::int64_t lo,
                        std::int64_t hi, BitVector& out) {
  scan_bitmap_avx512_64(values, lo, hi, out);
}

ScanVariant choose_variant(double sel) {
  // SIMD always wins for bitmap production when available.
  if (cpu_has_avx512()) return ScanVariant::kAvx512;
  if (cpu_has_avx2()) return ScanVariant::kAvx2;
  // Scalar machines: branching is cheaper when the branch predicts well
  // (selectivity near the extremes; Ross's crossover).
  return (sel < 0.08 || sel > 0.92) ? ScanVariant::kBranching
                                    : ScanVariant::kPredicated;
}

}  // namespace eidb::exec
