#include "exec/join.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>

#include "exec/scan_kernels.hpp"
#include "storage/bitpack_avx512.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

#if defined(__x86_64__)
/// AVX-512 tier of JoinFilter::apply over full selection words
/// [word_begin, word_end) of packed keys. A key's filter offset is
/// (v - lo) + base for its packed value v; only v in [lo, lo + span] can
/// land inside the domain, so that one unsigned compare is the bound
/// check, and the offsets it admits fit 32-bit lanes. The bound-checked,
/// live lanes gather their 32-bit filter word; the rest never load.
EIDB_TARGET_AVX512_VBMI std::uint64_t filter_words_avx512(
    const storage::PackedView& keys, const std::uint64_t* filter,
    std::uint32_t lo, std::uint32_t span, std::uint32_t base,
    std::uint64_t* words, std::size_t word_begin, std::size_t word_end) {
  const storage::avx512::Unpacker unpack(keys.words.data(), keys.bits);
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vspan = _mm512_set1_epi32(static_cast<int>(span));
  const __m512i vbase = _mm512_set1_epi32(static_cast<int>(base));
  const __m512i v31 = _mm512_set1_epi32(31);
  const __m512i one = _mm512_set1_epi32(1);
  std::uint64_t kept = 0;
  for (std::size_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t live = words[w];
    if (live == 0) continue;
    std::uint64_t keep = 0;
    #pragma GCC unroll 4
    for (unsigned g = 0; g < 4; ++g) {
      const __m512i d =
          _mm512_sub_epi32(unpack.load16(w * 64 + 16 * g), vlo);
      const __mmask16 in = _mm512_mask_cmple_epu32_mask(
          static_cast<__mmask16>(live >> (16 * g)), d, vspan);
      const __m512i off = _mm512_add_epi32(d, vbase);
      // Zero-masked shifts: see storage::avx512::Unpacker::load16.
      const __m512i word = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), in, _mm512_maskz_srli_epi32(in, off, 5),
          filter, 4);
      const __mmask16 hit = _mm512_mask_test_epi32_mask(
          in, _mm512_maskz_srlv_epi32(in, word, _mm512_and_si512(off, v31)),
          one);
      keep |= static_cast<std::uint64_t>(hit) << (16 * g);
    }
    words[w] = keep;
    kept += static_cast<std::uint64_t>(__builtin_popcountll(keep));
  }
  return kept;
}
#endif  // __x86_64__

/// Inserts the selected rows into `table` in descending row order so the
/// LIFO chains replay ascending during probes: block output matches the
/// nested-loop oracle's (probe asc, build asc) order without a sort.
template <typename JoinTable>
void insert_descending(JoinTable& table, const JoinKeys& keys,
                       const BitVector& selection) {
  const std::uint64_t* words = selection.words();
  for (std::size_t w = selection.word_count(); w-- > 0;) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(63 - __builtin_clzll(bits));
      bits &= ~(std::uint64_t{1} << j);
      const std::size_t i = w * 64 + j;
      table.insert(keys.at(i), static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace

std::vector<JoinPair> hash_join(std::span<const std::int64_t> build_keys,
                                const BitVector& build_selection,
                                std::span<const std::int64_t> probe_keys,
                                const BitVector& probe_selection) {
  // Selections are per-row bitmaps over the key columns: a larger
  // selection would let for_each_set index past the key span.
  EIDB_EXPECTS(build_selection.size() == build_keys.size());
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());

  JoinHashTable table(build_selection.count());
  build_selection.for_each_set([&](std::size_t i) {
    table.insert(build_keys[i], static_cast<std::uint32_t>(i));
  });

  std::vector<JoinPair> out;
  probe_selection.for_each_set([&](std::size_t i) {
    table.probe(probe_keys[i], [&](std::uint32_t build_row) {
      out.push_back({build_row, static_cast<std::uint32_t>(i)});
    });
  });
  // Chain order is LIFO; normalize to ascending build row per probe row so
  // output order is deterministic and comparable with the oracle.
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.probe_row != b.probe_row) return a.probe_row < b.probe_row;
    return a.build_row < b.build_row;
  });
  return out;
}

std::vector<JoinPair> nested_loop_join(
    std::span<const std::int64_t> build_keys, const BitVector& build_selection,
    std::span<const std::int64_t> probe_keys,
    const BitVector& probe_selection) {
  EIDB_EXPECTS(build_selection.size() == build_keys.size());
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());
  std::vector<JoinPair> out;
  probe_selection.for_each_set([&](std::size_t p) {
    build_selection.for_each_set([&](std::size_t b) {
      if (build_keys[b] == probe_keys[p])
        out.push_back(
            {static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(p)});
    });
  });
  return out;
}

JoinHashTable build_join_table(const JoinKeys& keys,
                               const BitVector& selection) {
  EIDB_EXPECTS(selection.size() == keys.size());
  JoinHashTable table(selection.count());
  insert_descending(table, keys, selection);
  return table;
}

DenseJoinTable build_dense_join_table(const JoinKeys& keys,
                                      const BitVector& selection,
                                      std::int64_t min_key,
                                      std::int64_t domain) {
  EIDB_EXPECTS(selection.size() == keys.size());
  EIDB_EXPECTS(domain >= 1);
  DenseJoinTable table(min_key, domain);
  insert_descending(table, keys, selection);
  return table;
}

JoinFilter::JoinFilter(const JoinKeys& keys, const BitVector& selection,
                       std::int64_t min_key, std::int64_t domain,
                       std::int64_t live_min)
    : min_(min_key),
      bits_(static_cast<std::size_t>(std::max<std::int64_t>(0, domain))) {
  EIDB_EXPECTS(selection.size() == keys.size());
  EIDB_EXPECTS(domain >= 1);
  selection.for_each_set([&](std::size_t i) {
    const std::int64_t key = keys.at(i);
    const std::uint64_t off =
        static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(min_);
    EIDB_EXPECTS(off < bits_.size());
    if (key < live_min) return;
    const auto at = static_cast<std::size_t>(off);
    repeats_ += bits_.test(at) ? 1 : 0;
    bits_.set(at);
  });
}

std::uint64_t JoinFilter::apply(const JoinKeys& probe_keys,
                                BitVector& selection, std::size_t word_begin,
                                std::size_t word_end) const {
#if defined(__x86_64__)
  const storage::PackedView* packed = probe_keys.packed();
  if (packed != nullptr && packed->bits >= 1 &&
      packed->bits <= storage::avx512::kMaxBits &&
      bits_.size() <= (std::size_t{1} << 32) &&
      packed_tier() == PackedTier::kAvx512Vbmi) {
    // Packed value v is key reference + v, at filter offset bias + v (mod
    // 2^64): values below `lo` fall under min_ or wrap past the domain,
    // and `base` is the offset of value lo.
    const std::uint64_t domain = bits_.size();
    const std::uint64_t max_value = (std::uint64_t{1} << packed->bits) - 1;
    const std::uint64_t bias = static_cast<std::uint64_t>(packed->reference) -
                               static_cast<std::uint64_t>(min_);
    const std::uint64_t lo = bias < domain ? 0 : 0 - bias;
    const std::uint64_t base = bias < domain ? bias : 0;
    if (lo <= max_value) {
      EIDB_EXPECTS(selection.size() == probe_keys.size());
      const std::size_t end = std::min(word_end, selection.word_count());
      const std::size_t full = std::min(end, packed->count / 64);
      std::uint64_t kept = 0;
      if (word_begin < full) {
        EIDB_EXPECTS(packed->words.size() >=
                     storage::packed_word_count(full * 64, packed->bits));
        const std::uint64_t hi =
            std::min(max_value, lo + (domain - 1 - base));
        kept = filter_words_avx512(
            *packed, bits_.words(), static_cast<std::uint32_t>(lo),
            static_cast<std::uint32_t>(hi - lo),
            static_cast<std::uint32_t>(base), selection.words(), word_begin,
            full);
      }
      return kept + apply_scalar(probe_keys, selection,
                                 std::max(word_begin, full), end);
    }
  }
#endif
  return apply_scalar(probe_keys, selection, word_begin, word_end);
}

std::uint64_t JoinFilter::apply_scalar(const JoinKeys& probe_keys,
                                       BitVector& selection,
                                       std::size_t word_begin,
                                       std::size_t word_end) const {
  EIDB_EXPECTS(selection.size() == probe_keys.size());
  std::uint64_t* words = selection.words();
  const std::size_t end = std::min(word_end, selection.word_count());
  const std::size_t rows = probe_keys.size();
  std::uint64_t kept = 0;
  alignas(64) std::int64_t keys[64];
  for (std::size_t w = word_begin; w < end; ++w) {
    const std::uint64_t live = words[w];
    if (live == 0) continue;
    const std::size_t base = w * 64;
    std::uint64_t keep = 0;
    if (base + 64 <= rows) {
      probe_keys.block64(base, keys);
      for (std::size_t j = 0; j < 64; ++j)
        keep |= static_cast<std::uint64_t>(contains(keys[j])) << j;
    } else {
      for (std::size_t j = 0; base + j < rows; ++j)
        keep |= static_cast<std::uint64_t>(contains(probe_keys.at(base + j)))
                << j;
    }
    words[w] = live & keep;
    kept += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
  }
  return kept;
}

}  // namespace eidb::exec
