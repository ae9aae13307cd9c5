// AVX-512 decoder for bit-packed images at widths 1..25: the SIMD tier of
// bitunpack_block64 (bitpack.hpp), shared by the packed range scan and the
// semi-join filter test.
//
// Sixteen consecutive values at width B span exactly 2*B bytes, so every
// 16-value group starts on a byte boundary and one per-width plan decodes
// any group: `vpermb` gives lane i the four bytes starting at byte
// (i*B)/8, `vpsrlvd` shifts out the (i*B)%8 leading bits, and an AND keeps
// B bits. Up to B = 25 a value plus its in-byte offset (<= 7) fits one
// 32-bit lane; wider images stay on the scalar decoder.
//
// Only x86-64 builds see this header's contents. Every function here
// carries EIDB_TARGET_AVX512_VBMI instead of relying on a global -m flag,
// so a default build compiles it and callers pick it at run time: call it
// only after exec::packed_tier() reported PackedTier::kAvx512Vbmi.
#pragma once

#if defined(__x86_64__)

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>

#define EIDB_TARGET_AVX512_VBMI \
  __attribute__((target("avx512f,avx512bw,avx512vbmi")))

namespace eidb::storage::avx512 {

/// Widest packed width the core decodes.
inline constexpr unsigned kMaxBits = 25;

/// Decode plan for one width: the `vpermb` byte indices and `vpsrlvd`
/// counts of a 16-value group, its value mask, and the byte mask of the
/// 2*B bytes the group occupies.
struct UnpackPlan {
  std::uint8_t perm[64] = {};
  std::uint32_t shift[16] = {};
  std::uint32_t value_mask = 0;
  std::uint64_t load_mask = 0;
};

constexpr UnpackPlan make_unpack_plan(unsigned bits) {
  UnpackPlan plan;
  for (unsigned i = 0; i < 16; ++i) {
    for (unsigned b = 0; b < 4; ++b)
      plan.perm[4 * i + b] = static_cast<std::uint8_t>(i * bits / 8 + b);
    plan.shift[i] = i * bits % 8;
  }
  plan.value_mask = (std::uint32_t{1} << bits) - 1;
  plan.load_mask = (std::uint64_t{1} << (2 * bits)) - 1;
  return plan;
}

/// Plans indexed by width 0..kMaxBits (width 0 is never decoded here).
inline constexpr std::array<UnpackPlan, kMaxBits + 1> kUnpackPlans = [] {
  std::array<UnpackPlan, kMaxBits + 1> plans;
  for (unsigned bits = 0; bits <= kMaxBits; ++bits)
    plans[bits] = make_unpack_plan(bits);
  return plans;
}();

/// Decoder over one packed image (storage::bitpack layout) at width
/// `bits` in [1, kMaxBits]. It reads the image in place, and each group
/// load is masked to the group's own 2*B bytes, so no read ever passes the
/// byte holding the image's last value — the image may end at any byte.
class Unpacker {
 public:
  EIDB_TARGET_AVX512_VBMI Unpacker(const std::uint64_t* words, unsigned bits)
      : bytes_(reinterpret_cast<const std::uint8_t*>(words)),
        bits_(bits),
        load_mask_(kUnpackPlans[bits].load_mask),
        perm_(_mm512_loadu_si512(kUnpackPlans[bits].perm)),
        shift_(_mm512_loadu_si512(kUnpackPlans[bits].shift)),
        mask_(_mm512_set1_epi32(
            static_cast<int>(kUnpackPlans[bits].value_mask))) {}

  /// Values [first, first + 16) as 16 unsigned 32-bit lanes.
  /// Preconditions: first % 16 == 0; all 16 values inside the image.
  EIDB_TARGET_AVX512_VBMI __m512i load16(std::size_t first) const {
    // The zero-masked forms under an all-ones mask are the plain vpermb /
    // vpsrlvd; the unmasked intrinsics trip GCC 12's false
    // -Wmaybe-uninitialized on their undefined pass-through (PR105593).
    const __m512i raw =
        _mm512_maskz_loadu_epi8(load_mask_, bytes_ + first / 8 * bits_);
    const __m512i lanes =
        _mm512_maskz_permutexvar_epi8(~__mmask64{0}, perm_, raw);
    return _mm512_and_si512(
        _mm512_maskz_srlv_epi32(__mmask16{0xffff}, lanes, shift_), mask_);
  }

 private:
  const std::uint8_t* bytes_;
  std::size_t bits_;
  __mmask64 load_mask_;
  __m512i perm_;
  __m512i shift_;
  __m512i mask_;
};

}  // namespace eidb::storage::avx512

#endif  // __x86_64__
