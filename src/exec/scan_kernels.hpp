// Range-predicate scan kernels: the reconfigurable operator of §IV.B.
//
// The paper (citing Ross [17]): "selectivity factors significantly impact
// the success of branch prediction forcing the operator to switch between
// different implementations". Four implementations of the same contract —
// select rows with lo <= v <= hi — are provided:
//
//  * kBranching   — `if (match) out[k++] = i`; fastest when the branch is
//                   predictable (selectivity near 0 or 1), collapses near 50%.
//  * kPredicated  — `out[k] = i; k += match`; branch-free, selectivity-
//                   independent cost.
//  * kAvx2        — 256-bit SIMD compare into a selection bitmap.
//  * kAvx512      — 512-bit SIMD compare; mask registers write the bitmap
//                   directly.
//
// The SIMD kernels carry per-function target attributes and check the CPU
// on every call, so a default build ships them and a host without the ISA
// falls back one tier instead of faulting.
//
// The adaptive dispatcher (kAuto) is the "reconfigurable operator": it picks
// the variant the calibrated cost model predicts cheapest for the estimated
// selectivity and available ISA (experiment E3 measures the envelope).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/bitvector.hpp"

namespace eidb::exec {

enum class ScanVariant : std::uint8_t {
  kBranching,
  kPredicated,
  kAvx2,
  kAvx512,
  kAuto,
};

[[nodiscard]] std::string variant_name(ScanVariant v);

/// ISA support detected at runtime (always false off x86-64).
[[nodiscard]] bool cpu_has_avx2();
/// AVX-512 F + BW.
[[nodiscard]] bool cpu_has_avx512();
/// AVX-512 F + BW + VBMI (checked once, then cached).
[[nodiscard]] bool cpu_has_avx512_vbmi();

/// Instruction-set tier the packed kernels run at: scan_packed_bitmap_range,
/// JoinFilter::apply over packed keys, and the block path of the
/// aggregation kernels (exec/vector_agg). kAvx512Vbmi decodes widths 1..25
/// with storage's AVX-512 unpack core; everything else (other CPUs, wider
/// images, partial last blocks, plain keys) runs the scalar block decoder.
enum class PackedTier : std::uint8_t { kScalar, kAvx512Vbmi };

/// The tier this host runs: kAvx512Vbmi iff cpu_has_avx512_vbmi().
[[nodiscard]] PackedTier packed_tier();
[[nodiscard]] std::string packed_tier_name(PackedTier tier);

// -- Index-producing kernels (Ross-style selection) ---------------------------

/// Appends matching row indices to `out` (caller sizes it to values.size()).
/// Returns the number of matches.
std::size_t scan_branching(std::span<const std::int32_t> values,
                           std::int32_t lo, std::int32_t hi,
                           std::uint32_t* out);

std::size_t scan_predicated(std::span<const std::int32_t> values,
                            std::int32_t lo, std::int32_t hi,
                            std::uint32_t* out);

// -- Bitmap-producing kernels --------------------------------------------------

/// Sets bit i of `out` iff lo <= values[i] <= hi. `out` must be sized to
/// values.size(). Scalar reference implementation.
void scan_bitmap_scalar(std::span<const std::int32_t> values, std::int32_t lo,
                        std::int32_t hi, BitVector& out);
void scan_bitmap_scalar64(std::span<const std::int64_t> values,
                          std::int64_t lo, std::int64_t hi, BitVector& out);

/// AVX2 variants. Compiled into every x86-64 build by target attribute;
/// each call checks the CPU and falls back to scalar without AVX2.
void scan_bitmap_avx2(std::span<const std::int32_t> values, std::int32_t lo,
                      std::int32_t hi, BitVector& out);
void scan_bitmap_avx2_64(std::span<const std::int64_t> values, std::int64_t lo,
                         std::int64_t hi, BitVector& out);

/// AVX-512 (F + BW) variants; each call falls back to the AVX2 variant
/// when the CPU lacks AVX-512.
void scan_bitmap_avx512(std::span<const std::int32_t> values, std::int32_t lo,
                        std::int32_t hi, BitVector& out);
void scan_bitmap_avx512_64(std::span<const std::int64_t> values,
                           std::int64_t lo, std::int64_t hi, BitVector& out);

/// Double-range scan (scalar + AVX2-class autovectorized).
void scan_bitmap_double(std::span<const double> values, double lo, double hi,
                        BitVector& out);

// -- Packed (compressed) scan --------------------------------------------------

/// Scans values [value_begin, value_end) of a bit-packed column (values
/// packed at `bits`, FOR-shifted domain) for lo <= v <= hi without
/// materializing the column. Writes only the selection words covering
/// that range, so 64-aligned chunks can be scanned by independent
/// workers; `value_begin` must be a multiple of 64. Runs at packed_tier().
/// Experiment E5: memory traffic shrinks with bits, so narrow widths scan
/// faster *and* cheaper than the 64-bit raw column once the scan is
/// memory-bound.
void scan_packed_bitmap_range(std::span<const std::uint64_t> packed,
                              unsigned bits, std::size_t value_begin,
                              std::size_t value_end, std::uint64_t lo,
                              std::uint64_t hi, BitVector& out);

/// The same scan at PackedTier::kScalar on any host: the reference the
/// SIMD tier is tested and benchmarked against.
void scan_packed_bitmap_range_scalar(std::span<const std::uint64_t> packed,
                                     unsigned bits, std::size_t value_begin,
                                     std::size_t value_end, std::uint64_t lo,
                                     std::uint64_t hi, BitVector& out);

// -- Dispatch ------------------------------------------------------------------

/// Best bitmap kernel for this host.
void scan_bitmap_best(std::span<const std::int32_t> values, std::int32_t lo,
                      std::int32_t hi, BitVector& out);
void scan_bitmap_best64(std::span<const std::int64_t> values, std::int64_t lo,
                        std::int64_t hi, BitVector& out);

}  // namespace eidb::exec
