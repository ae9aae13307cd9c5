#include "exec/fused.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "storage/bitpack.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

AggResult fused_filter_aggregate(std::span<const std::int64_t> keys,
                                 std::int64_t lo, std::int64_t hi,
                                 std::span<const std::int64_t> values) {
  EIDB_EXPECTS(keys.size() == values.size());
  AggResult r;
  r.min = std::numeric_limits<std::int64_t>::max();
  r.max = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t shifted = static_cast<std::uint64_t>(keys[i]) -
                                  static_cast<std::uint64_t>(lo);
    if (shifted <= width) {
      const std::int64_t v = values[i];
      ++r.count;
      r.sum += v;
      r.min = std::min(r.min, v);
      r.max = std::max(r.max, v);
    }
  }
  if (r.count == 0) r.min = r.max = 0;
  return r;
}

AggResult fused_filter_aggregate_self(std::span<const std::int64_t> values,
                                      std::int64_t lo, std::int64_t hi) {
  return fused_filter_aggregate(values, lo, hi, values);
}

void scan_bitmap_masked64(std::span<const std::int64_t> values,
                          std::int64_t lo, std::int64_t hi,
                          BitVector& selection) {
  MaskedScanStats stats;
  scan_bitmap_masked64_counted(values, lo, hi, selection, stats);
}

namespace {

/// Shared masked-scan core: `pred(i)` decides row i; dead 64-tuple words
/// are skipped without touching the data.
template <typename Pred>
void masked_scan_impl(std::size_t n, BitVector& selection,
                      MaskedScanStats& stats, Pred&& pred) {
  EIDB_EXPECTS(selection.size() >= n);
  std::uint64_t* words = selection.words();
  stats = MaskedScanStats{};
  for (std::size_t w = 0; w * 64 < n; ++w) {
    ++stats.words_total;
    std::uint64_t live = words[w];
    if (live == 0) {
      ++stats.words_skipped;  // no candidates: 64 tuples untouched
      continue;
    }
    std::uint64_t keep = 0;
    // Evaluate only the live candidate bits.
    while (live != 0) {
      const auto j = static_cast<unsigned>(__builtin_ctzll(live));
      live &= live - 1;
      keep |= static_cast<std::uint64_t>(pred(w * 64 + j)) << j;
    }
    words[w] &= keep;
  }
}

}  // namespace

void scan_bitmap_masked64_counted(std::span<const std::int64_t> values,
                                  std::int64_t lo, std::int64_t hi,
                                  BitVector& selection,
                                  MaskedScanStats& stats) {
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  masked_scan_impl(values.size(), selection, stats, [&](std::size_t i) {
    const std::uint64_t shifted = static_cast<std::uint64_t>(values[i]) -
                                  static_cast<std::uint64_t>(lo);
    return shifted <= width;
  });
}

void scan_bitmap_masked32(std::span<const std::int32_t> values,
                          std::int32_t lo, std::int32_t hi,
                          BitVector& selection) {
  MaskedScanStats stats;
  scan_bitmap_masked32_counted(values, lo, hi, selection, stats);
}

void scan_bitmap_masked32_counted(std::span<const std::int32_t> values,
                                  std::int32_t lo, std::int32_t hi,
                                  BitVector& selection,
                                  MaskedScanStats& stats) {
  const std::uint32_t width =
      static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
  masked_scan_impl(values.size(), selection, stats, [&](std::size_t i) {
    const std::uint32_t shifted = static_cast<std::uint32_t>(values[i]) -
                                  static_cast<std::uint32_t>(lo);
    return shifted <= width;
  });
}

void scan_bitmap_masked_double(std::span<const double> values, double lo,
                               double hi, BitVector& selection) {
  MaskedScanStats stats;
  scan_bitmap_masked_double_counted(values, lo, hi, selection, stats);
}

void scan_bitmap_masked_double_counted(std::span<const double> values,
                                       double lo, double hi,
                                       BitVector& selection,
                                       MaskedScanStats& stats) {
  masked_scan_impl(values.size(), selection, stats, [&](std::size_t i) {
    return values[i] >= lo && values[i] <= hi;
  });
}

void scan_packed_bitmap_masked_counted(std::span<const std::uint64_t> packed,
                                       unsigned bits, std::size_t count,
                                       std::uint64_t lo, std::uint64_t hi,
                                       BitVector& selection,
                                       MaskedScanStats& stats) {
  EIDB_EXPECTS(selection.size() >= count);
  std::uint64_t* words = selection.words();
  stats = MaskedScanStats{};
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  if (lo > mask) {  // nothing representable can match
    for (std::size_t w = 0; w * 64 < count; ++w) {
      ++stats.words_total;
      words[w] = 0;
    }
    return;
  }
  hi = std::min(hi, mask);
  const std::uint64_t width = hi - lo;

  // Byte-aligned widths compare the packed image in place (the typed
  // loops autovectorize), in line with the cost model's aligned-width
  // pricing. Reinterpreting the packed words as narrow element arrays
  // matches the little-endian bitpack layout only on little-endian hosts;
  // others fall through to the endian-agnostic block unpack below.
  constexpr bool kLittleEndian =
      std::endian::native == std::endian::little;
  const auto live_word_match = [&](auto* data, std::size_t base,
                                   std::size_t n) {
    std::uint64_t match = 0;
    for (std::size_t j = 0; j < n; ++j)
      match |= static_cast<std::uint64_t>(
                   (static_cast<std::uint64_t>(data[base + j]) - lo) <=
                   width)
               << j;
    return match;
  };

  alignas(64) std::uint64_t buf[64];
  for (std::size_t w = 0; w * 64 < count; ++w) {
    ++stats.words_total;
    const std::uint64_t live = words[w];
    if (live == 0) {
      ++stats.words_skipped;  // dead block: packed words never read
      continue;
    }
    const std::size_t base = w * 64;
    const std::size_t n = std::min<std::size_t>(64, count - base);
    std::uint64_t match = 0;
    if (kLittleEndian && bits == 8) {
      match = live_word_match(
          reinterpret_cast<const std::uint8_t*>(packed.data()), base, n);
    } else if (kLittleEndian && bits == 16) {
      match = live_word_match(
          reinterpret_cast<const std::uint16_t*>(packed.data()), base, n);
    } else if (kLittleEndian && bits == 32) {
      match = live_word_match(
          reinterpret_cast<const std::uint32_t*>(packed.data()), base, n);
    } else if (n == 64) {
      // Unpack the whole block (branch-light, autovectorizes) — cheaper
      // than per-bit random access once a few candidates survive.
      storage::bitunpack_block64(packed, bits, base, buf);
      for (unsigned j = 0; j < 64; ++j)
        match |= static_cast<std::uint64_t>((buf[j] - lo) <= width) << j;
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t v = storage::bitpacked_at(packed, bits, base + j);
        match |= static_cast<std::uint64_t>((v - lo) <= width) << j;
      }
    }
    words[w] = live & match;
  }
}

}  // namespace eidb::exec
